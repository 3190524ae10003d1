"""Tests for the oracles, statistics, and audits."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from frugaldp.approx_mech import ApproxParams, mech_approx_efficient
from frugaldp.audit_harness import (
    DiscreteDist,
    accuracy_audit,
    chi_square,
    oracle_coord_dist,
    oracle_coord_dist_approx,
    oracle_coord_dist_pure,
    oracle_joint_dist,
    oracle_joint_dist_approx,
    oracle_joint_dist_pure,
    privacy_audit,
    randomness_audit,
    tv_distance,
)
from frugaldp.bit_tape import BitTape
from frugaldp.errors import ParameterDomainError
from frugaldp.precise_math import IntervalValue, exp_pos
from frugaldp.pure_mech import PureParams, mech_pure_efficient
from frugaldp.release import CountVector
from reference import (
    approx_params_from_sigma,
    mech_approx_reference,
    mech_pure_reference,
    two_sample_chi_square,
)


def _dist(pairs) -> DiscreteDist:
    return DiscreteDist(
        mass={k: IntervalValue.from_fraction(Fraction(v), 96) for k, v in pairs.items()},
        deficit=Fraction(0),
    )


class TestStatistics:
    def test_tv_identical_is_zero(self):
        d = _dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert tv_distance(d, d) == 0

    def test_tv_disjoint_is_one(self):
        a = _dist({0: 1})
        b = _dist({1: 1})
        assert tv_distance(a, b) == 1

    def test_tv_known_perturbation(self):
        ref = _dist({0: Fraction(1, 2), 1: Fraction(1, 2)})
        hist = {0: 600, 1: 400}
        assert tv_distance(hist, ref) == Fraction(1, 10)

    def test_tv_empty_histogram(self):
        with pytest.raises(ParameterDomainError):
            tv_distance({}, _dist({0: 1}))

    def test_chi_square_accepts_true_distribution(self):
        ref = _dist({0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)})
        tape = BitTape(seed=1001)
        hist = Counter()
        for _ in range(30_000):
            u = tape.uniform_range(4)
            hist[0 if u == 1 else 1 if u == 2 else 2] += 1
        assert chi_square(hist, ref) >= 0.001

    def test_chi_square_rejects_wrong_distribution(self):
        ref = _dist({0: Fraction(1, 4), 1: Fraction(3, 4)})
        hist = {0: 5000, 1: 5000}
        assert chi_square(hist, ref) < 1e-6

    def test_chi_square_pools_small_bins(self):
        ref = _dist({0: Fraction(989, 1000), 1: Fraction(1, 100), 2: Fraction(1, 1000)})
        hist = {0: 9890, 1: 100, 2: 10}
        p = chi_square(hist, ref)
        assert 0 <= p <= 1

    def test_chi_square_mass_outside_support_fails(self):
        ref = _dist({0: 1})
        hist = {0: 900, 5: 100}
        assert chi_square(hist, ref) == 0.0

    def test_two_sample_detects_shift(self):
        a = {0: 5000, 1: 5000}
        b = {0: 6000, 1: 4000}
        assert two_sample_chi_square(a, b) < 1e-6
        assert two_sample_chi_square(a, dict(a)) == 1.0


class TestApproxOracle:
    def test_tiny_variance_collapses_to_shift_mixture(self):
        # sigma^2 -> 0: law is uniform over the s rounded shifted values.
        params = ApproxParams(1, 3, Fraction(1, 10000), 2)
        dist = oracle_coord_dist_approx(10, params)
        expected = Counter(
            ((10 + 2 * v) // 6) * 6 for v in range(1, 4)
        )  # all three shifts round to 12
        mids = dist.midpoints()
        for outcome, count in expected.items():
            assert abs(float(mids[outcome]) - count / 3) < 1e-6

    def test_support_and_mass(self):
        params = approx_params_from_sigma(1, 3, Fraction(2), Fraction(1, 1024))
        dist = oracle_coord_dist_approx(5, params)
        bound = params.accuracy_bound
        for outcome in dist.support():
            assert outcome % params.grid == 0
            assert abs(outcome - 5) <= bound
        lo, hi = dist.total_mass()
        assert lo >= 1 - Fraction(1, 1 << 30)
        assert hi <= 1 + Fraction(1, 1 << 20)

    def test_matches_monte_carlo_of_reference(self):
        params = approx_params_from_sigma(1, 3, Fraction(2), Fraction(1, 1024))
        counts = CountVector(d=1, n=20, sums=(5,))
        dist = oracle_coord_dist_approx(5, params)
        tape = BitTape(seed=1002)
        hist = Counter()
        for _ in range(100_000):
            hist[mech_approx_reference(counts, params, 3, tape).values[0]] += 1
        assert chi_square(hist, dist) >= 0.001


class TestPureOracle:
    def test_support_is_grid(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        dist = oracle_coord_dist_pure(3, params)
        assert all(outcome % params.grid == 0 for outcome in dist.support())

    def test_mass_deficit_bounded(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        tol = Fraction(1, 1 << 20)
        dist = oracle_coord_dist_pure(3, params, tail_tol=tol)
        assert dist.deficit <= tol
        lo, hi = dist.total_mass()
        assert lo >= 1 - 2 * tol
        assert hi <= 1 + 2 * tol

    def test_spot_value_against_monte_carlo(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=10, sums=(0,))
        dist = oracle_coord_dist_pure(0, params)
        tape = BitTape(seed=1003)
        n = 200_000
        hist = Counter()
        for _ in range(n):
            hist[mech_pure_reference(counts, params, 2, tape).values[0]] += 1
        mids = dist.midpoints()
        for outcome, prob in mids.items():
            p = float(prob)
            if p < 1e-4:
                continue
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(hist.get(outcome, 0) / n - p) <= 4 * sigma + 1e-4

    def test_joint_matches_efficient_mechanism(self):
        params = PureParams(2, 2, Fraction(1), 2)
        counts = CountVector(d=2, n=10, sums=(3, 7))
        joint = oracle_joint_dist_pure(counts, params)
        tape = BitTape(seed=1004)
        hist = Counter()
        for _ in range(30_000):
            hist[mech_pure_efficient(counts, params, tape)[0].values] += 1
        assert chi_square(hist, joint) >= 0.001
        assert float(tv_distance(hist, joint)) <= 0.03


@pytest.mark.parametrize(
    "params, counts",
    [
        (
            approx_params_from_sigma(2, 3, Fraction(2), Fraction(1, 1024)),
            CountVector(d=2, n=20, sums=(5, 11)),
        ),
        (PureParams(2, 2, Fraction(1), 2), CountVector(d=2, n=10, sums=(3, 7))),
    ],
    ids=["approx", "pure"],
)
def test_coordinate_law_is_the_marginal_of_the_joint_law(params, counts):
    joint = oracle_joint_dist(counts, params)
    for i, sum_i in enumerate(counts.sums):
        coord = oracle_coord_dist(sum_i, params)
        lo, hi = Counter(), Counter()
        for outcome, iv in joint.mass.items():
            lo[outcome[i]] += iv.lo.as_fraction()
            hi[outcome[i]] += iv.hi.as_fraction()
        assert set(coord.mass) <= set(lo)  # pure mode: the joint's horizon reaches further
        for g in lo:
            iv = coord.mass.get(g, IntervalValue.exact(0))
            # Both enclose the true marginal, up to their deficits.
            assert lo[g] <= iv.hi.as_fraction() + coord.deficit
            assert iv.lo.as_fraction() <= hi[g] + joint.deficit
            assert abs(iv.midpoint() - (lo[g] + hi[g]) / 2) <= Fraction(1, 1 << 30)


class TestBatchAudits:
    def _approx_batch(self, runs=50):
        params = approx_params_from_sigma(3, 4, Fraction(2), Fraction(1, 1024))
        counts = CountVector(d=3, n=30, sums=(2, 15, 28))
        tape = BitTape(seed=1005)
        return [mech_approx_efficient(counts, params, tape) for _ in range(runs)], counts, params

    def test_randomness_audit_shape(self):
        results, _, _ = self._approx_batch()
        report = randomness_audit(results)
        assert report["runs"] == 50
        assert report["mean_bits_total"] >= 0
        assert set(report["percentile_bits"]) == {"p50", "p90", "p99"}
        assert "shift" in report["mean_bits_by_category"]

    def test_accuracy_audit_deterministic_bound(self):
        results, counts, params = self._approx_batch()
        report = accuracy_audit(results, counts, params.accuracy_bound, 0.0)
        assert report["exceedances"] == 0
        assert report["pass"]

    def test_accuracy_audit_flags_violations(self):
        results, counts, _ = self._approx_batch()
        report = accuracy_audit(results, counts, 0, 0.0)  # alpha = 0 must fail
        assert not report["pass"]

    def test_empty_batches_rejected(self):
        with pytest.raises(ParameterDomainError):
            randomness_audit([])

    def test_insufficient_trials_rejected(self):
        results, counts, params = self._approx_batch(runs=20)
        with pytest.raises(ParameterDomainError):
            accuracy_audit(results, counts, params.accuracy_bound, 0.01)

    def test_boundary_count_matches_crossing_law(self):
        # Mean boundary coordinates per run stays below 2d/s plus noise.
        from frugaldp.approx_mech import derive_approx_params

        d, s, runs = 256, 16, 300
        n_rows = 1_000_003
        counts = CountVector(d=d, n=n_rows, sums=tuple((40_009 * i) % n_rows for i in range(d)))
        params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, s)
        tape = BitTape(seed=1006)
        results = [mech_approx_efficient(counts, params, tape) for _ in range(runs)]
        report = randomness_audit(results)
        limit = 2 * d / s
        sigma = math.sqrt(limit / runs)
        assert report["mean_boundary_count"] <= limit + 3 * sigma


class TestPrivacyAudit:
    def test_pure_reference_respects_epsilon(self):
        eps = Fraction(1, 16)
        params = PureParams(1, 2, eps, 32)
        a = CountVector(d=1, n=5, sums=(0,))
        b = CountVector(d=1, n=5, sums=(1,))
        res = privacy_audit(a, b, params, eps, Fraction(0))
        assert res.passed
        assert res.epsilon_hat <= float(eps) + 1e-9
        assert res.delta_slack == 0.0
        assert res.events_examined > 0

    def test_pure_identical_inputs_ratio_one(self):
        eps = Fraction(1, 16)
        params = PureParams(1, 2, eps, 32)
        a = CountVector(d=1, n=5, sums=(2,))
        res = privacy_audit(a, a, params, eps, Fraction(0))
        assert res.passed
        assert res.epsilon_hat <= 1e-12

    def test_pure_detects_budget_overrun(self):
        # Auditing at a target below the mechanism's actual epsilon must fail.
        eps = Fraction(1, 2)
        params = PureParams(1, 2, eps, 4)
        a = CountVector(d=1, n=5, sums=(0,))
        b = CountVector(d=1, n=5, sums=(1,))
        res = privacy_audit(a, b, params, Fraction(1, 100), Fraction(0))
        assert not res.passed

    def test_approx_truncated_envelope(self):
        eps, delta = Fraction(1), Fraction(1, 4)
        from frugaldp.approx_mech import derive_approx_params

        params = derive_approx_params(eps, delta, 1, 3)
        a = CountVector(d=1, n=5, sums=(0,))
        b = CountVector(d=1, n=5, sums=(1,))
        envelope = (exp_pos(eps, 64).hi.as_fraction() + 1) * params.gamma.hi.as_fraction() + delta
        res = privacy_audit(a, b, params, eps, envelope)
        assert res.passed

    def test_unknown_kind(self):
        """Params of an unknown type are rejected: the params type is the mode."""
        a = CountVector(d=1, n=5, sums=(0,))
        with pytest.raises(ParameterDomainError):
            privacy_audit(a, a, object(), Fraction(1), Fraction(0))
