"""Tests for the oracles, statistics, and audits."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats

from frugaldp import audit_harness
from frugaldp.approx_mech import ApproxParams, derive_approx_params, mech_approx_efficient
from frugaldp.audit_harness import (
    _TAIL_TOL,
    DiscreteDist,
    _approx_noise,
    _chi2_sf,
    _exp_neg_powers,
    _joint_dist,
    _pure_noise,
    _shift_laws,
    _tolerance_bits,
    chi_square,
    oracle_joint_dist,
    privacy_audit,
    randomness_audit,
    tv_distance,
)
from frugaldp.bit_tape import BitTape
from frugaldp.errors import ParameterDomainError
from frugaldp.precise_math import _exp_neg_guarded, exp_pos, rational_enclose
from frugaldp.pure_mech import PureParams, derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector
from reference import (
    approx_params_from_sigma,
    mech_approx_reference,
    mech_pure_reference,
    two_sample_chi_square,
    uniform_range,
)


def _dist(pairs) -> DiscreteDist:
    return DiscreteDist(
        mass={k: rational_enclose(v, 96) for k, v in pairs.items()},
        deficit=Fraction(0),
        w=96,
    )


def _total_mass(dist: DiscreteDist) -> tuple[Fraction, Fraction]:
    """Bounds on the total mass of ``dist``, its deficit included."""
    lo = sum(lo for lo, _ in dist.mass.values())
    hi = sum(hi for _, hi in dist.mass.values())
    return Fraction(lo, 1 << dist.w), Fraction(hi, 1 << dist.w) + dist.deficit


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
            u = uniform_range(tape, 4)
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

    def test_chi_square_matches_scipy(self):
        ref = _dist({0: Fraction(1, 8), 1: Fraction(3, 8), 2: Fraction(1, 2)})
        hist = {0: 140, 1: 360, 2: 500}
        expected = np.array([125.0, 375.0, 500.0])
        p = stats.chisquare(np.array([140, 360, 500]), expected).pvalue
        assert chi_square(hist, ref) == pytest.approx(p, rel=1e-12)

    def test_two_sample_detects_shift(self):
        a = {0: 5000, 1: 5000}
        b = {0: 6000, 1: 4000}
        assert two_sample_chi_square(a, b) < 1e-6
        assert two_sample_chi_square(a, dict(a)) == 1.0


class TestChiSquareTail:
    DEGREES = [*range(1, 61), 255, 256, 999, 2716]

    def test_matches_scipy(self):
        checked = 0
        for k in self.DEGREES:
            top = k + 10 * math.sqrt(2 * k)
            xs = [*np.geomspace(0.01, top, 25), *np.linspace(0.01, top, 25), 700.0, 1400.0]
            for x in xs:
                ref = stats.chi2.sf(x, k)
                if ref == 0:
                    continue
                assert _chi2_sf(float(x), k) == pytest.approx(ref, rel=1e-9, abs=0), (k, x)
                checked += 1
        assert checked > 3000

    @pytest.mark.parametrize("k", [1, 2, 3, 2716])
    def test_nonpositive_statistic_is_certain(self, k):
        assert _chi2_sf(0.0, k) == 1.0
        assert _chi2_sf(-2.5, k) == 1.0


def _one(sum_i: int) -> CountVector:
    """One count: a coordinate's law is the joint law at d = 1, keyed by 1-tuples."""
    return CountVector(d=1, n=sum_i, sums=(sum_i,))


class TestApproxOracle:
    def test_tiny_variance_collapses_to_shift_mixture(self):
        # sigma^2 -> 0: law is uniform over the s rounded shifted values.
        params = ApproxParams(1, 3, Fraction(1, 10000), 2)
        dist = oracle_joint_dist(_one(10), params)
        expected = Counter(
            ((10 + 2 * v) // 6) * 6 for v in range(1, 4)
        )  # all three shifts round to 12
        mids = dist.midpoints()
        for outcome, count in expected.items():
            assert abs(float(mids[(outcome,)]) - count / 3) < 1e-6

    def test_support_and_mass(self):
        params = approx_params_from_sigma(1, 3, Fraction(2), Fraction(1, 1024))
        dist = oracle_joint_dist(_one(5), params)
        bound = params.accuracy_bound
        for (outcome,) in sorted(dist.mass):
            assert outcome % params.grid == 0
            assert abs(outcome - 5) <= bound
        lo, hi = _total_mass(dist)
        assert lo >= 1 - Fraction(1, 1 << 30)
        assert hi <= 1 + Fraction(1, 1 << 20)

    def test_matches_monte_carlo_of_reference(self):
        params = approx_params_from_sigma(1, 3, Fraction(2), Fraction(1, 1024))
        counts = CountVector(d=1, n=20, sums=(5,))
        dist = oracle_joint_dist(counts, params)
        tape = BitTape(seed=1002)
        hist = Counter()
        for _ in range(100_000):
            hist[mech_approx_reference(counts, params, 3, tape).values] += 1
        assert chi_square(hist, dist) >= 0.001


class TestPureOracle:
    def test_support_is_grid(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        dist = oracle_joint_dist(_one(3), params)
        assert all(outcome % params.grid == 0 for (outcome,) in dist.mass)

    def test_mass_deficit_bounded(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        tol = Fraction(1, 1 << 20)
        dist = oracle_joint_dist(_one(3), params, tail_tol=tol)
        assert dist.deficit <= tol
        lo, hi = _total_mass(dist)
        assert lo >= 1 - 2 * tol
        assert hi <= 1 + 2 * tol

    def test_spot_value_against_monte_carlo(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=10, sums=(0,))
        dist = oracle_joint_dist(counts, params)
        tape = BitTape(seed=1003)
        n = 200_000
        hist = Counter()
        for _ in range(n):
            hist[mech_pure_reference(counts, params, 2, tape).values] += 1
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
        joint = oracle_joint_dist(counts, params)
        tape = BitTape(seed=1004)
        hist = Counter()
        for _ in range(30_000):
            hist[mech_pure_efficient(counts, params, tape)[0].values] += 1
        assert chi_square(hist, joint) >= 0.001
        assert float(tv_distance(hist, joint)) <= 0.03


def test_joint_law_is_the_left_fold_over_every_combination():
    """Shared partial products give every mass bit for bit, in the same outcome order."""
    params = PureParams(3, 2, Fraction(1), 2)
    tol = Fraction(1, 1 << 10) / 3  # a short horizon keeps the enumeration small
    w = _tolerance_bits(tol, 8 * params.s * 3)
    laws, scale = _shift_laws((3, 7, 8), params, _pure_noise(params, tol, w), w)
    acc = {}
    for per_coord in laws:
        for combo in product(*(law.items() for law in per_coord)):
            lo, hi = combo[0][1]
            for _, (f_lo, f_hi) in combo[1:]:
                lo, hi = lo * f_lo, hi * f_hi
            outcome = tuple(g for g, _ in combo)
            a, b = acc.get(outcome, (0, 0))
            acc[outcome] = a + lo, b + hi
    joint = _joint_dist(laws, scale, params.s, w, Fraction(0))
    assert list(joint.mass) == list(acc)
    for outcome, (lo, hi) in acc.items():
        # The average over the s shifts, rounded outward from 2**-(3 scale) to 2**-w.
        exact = Fraction(1 << w, params.s << (3 * scale))
        assert joint.mass[outcome] == (math.floor(lo * exact), math.ceil(hi * exact))


AUDIT_DESK = CountVector(d=3, n=100, sums=(17, 50, 93)), derive_pure_params(Fraction(1, 4), 3, 2)
APPROX_SPREAD = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), 4096, 4)


@pytest.mark.parametrize(
    "oracle, min_count",
    [
        (lambda: oracle_joint_dist(*AUDIT_DESK), 200),
        (lambda: oracle_joint_dist(CountVector(d=2, n=10, sums=(3, 7)), PureParams(2, 2, Fraction(1), 2)), 20),
        (lambda: oracle_joint_dist(_one(17), APPROX_SPREAD), 1000),
    ],
    ids=["audit-desk", "criterion-02", "approx-spread"],
)
def test_power_weights_enclose_each_magnitude(monkeypatch, oracle, min_count):
    """Every weight of the power recurrence overlaps the one-exponential-per-magnitude enclosure and has width <= 4."""
    calls = []

    def spy(x, count, w, square):
        calls.append((x, w, square, _exp_neg_powers(x, count, w, square)))
        return calls[-1][-1]

    monkeypatch.setattr(audit_harness, "_exp_neg_powers", spy)
    oracle()
    ((x, w, square, weights),) = calls
    assert len(weights) >= min_count
    for j, (lo, hi) in enumerate(weights):
        ref_lo, ref_hi = _exp_neg_guarded((j * j if square else j) * x, w)
        assert max(lo, ref_lo) <= min(hi, ref_hi), j
        assert 0 <= hi - lo <= 4, j


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["approx", "pure"])
def test_shift_laws_are_the_pushforward_of_each_noise_value(mode, s):
    """Cell masses from prefix sums equal the per-eta push-forward, keys and order included."""
    sums = (0, 5, 11, 23)
    if mode == "approx":
        params = approx_params_from_sigma(4, s, Fraction(2), Fraction(1, 1024))
        w = _tolerance_bits(_TAIL_TOL, 4 * params.r * s * 4)
        noise = _approx_noise(params, w)
    else:
        params = PureParams(4, s, Fraction(1), 2)
        tol = Fraction(1, 1 << 10)
        w = _tolerance_bits(tol, 8 * s * 4)
        noise = _pure_noise(params, tol, w)
    weights, total, _, _ = noise
    reach, grid = len(weights) // 2, params.grid
    brute = []
    for v in range(1, s + 1):
        per_coord = []
        for sum_i in sums:
            c, law = sum_i + grid // s * v, {}
            for i, (lo, hi) in enumerate(weights):
                eta = i - reach
                g = (c + eta) // grid * grid
                a, b = law.get(g, (0, 0))
                law[g] = a + lo, b + hi
            if total is not None:
                law = {g: ((lo << w) // total[1], -(-(hi << w) // total[0])) for g, (lo, hi) in law.items()}
            per_coord.append(law)
        brute.append(per_coord)
    laws, _ = _shift_laws(sums, params, noise, w)
    assert laws == brute
    assert [[list(law) for law in per_coord] for per_coord in laws] == [
        [list(law) for law in per_coord] for per_coord in brute
    ]


def test_one_exponential_per_noise_law(monkeypatch):
    """The oracles' cost in exponentials does not grow with the horizon or with r."""
    calls = []
    real = audit_harness._exp_neg_guarded
    monkeypatch.setattr(audit_harness, "_exp_neg_guarded", lambda x, w: calls.append(x) or real(x, w))
    oracle_joint_dist(*AUDIT_DESK)
    assert len(calls) <= 8
    calls.clear()
    oracle_joint_dist(_one(9_999_999), APPROX_SPREAD)
    assert len(calls) <= 8


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
        coord = oracle_joint_dist(_one(sum_i), params)
        lo, hi = Counter(), Counter()
        for outcome, (m_lo, m_hi) in joint.mass.items():
            lo[outcome[i:i + 1]] += Fraction(m_lo, 1 << joint.w)
            hi[outcome[i:i + 1]] += Fraction(m_hi, 1 << joint.w)
        assert set(coord.mass) <= set(lo)  # pure mode: the joint's horizon reaches further
        mids = coord.midpoints()
        for g in lo:
            c_lo, c_hi = coord.mass.get(g, (0, 0))
            # Both enclose the true marginal, up to their deficits.
            assert lo[g] <= Fraction(c_hi, 1 << coord.w) + coord.deficit
            assert Fraction(c_lo, 1 << coord.w) <= hi[g] + joint.deficit
            assert abs(mids.get(g, 0) - (lo[g] + hi[g]) / 2) <= Fraction(1, 1 << 30)


class TestBatchAudits:
    def _approx_batch(self, runs=50):
        params = approx_params_from_sigma(3, 4, Fraction(2), Fraction(1, 1024))
        counts = CountVector(d=3, n=30, sums=(2, 15, 28))
        tape = BitTape(seed=1005)
        return [mech_approx_efficient(counts, params, tape) for _ in range(runs)]

    def test_randomness_audit_shape(self):
        results = self._approx_batch()
        report = randomness_audit(results)
        assert report["runs"] == 50
        assert report["mean_bits_total"] >= 0
        assert set(report["percentile_bits"]) == {"p50", "p90", "p99"}
        assert "shift" in report["mean_bits_by_category"]

    @pytest.mark.parametrize("runs", [1, 2, 3, 7, 200])
    def test_randomness_audit_matches_numpy(self, runs):
        results = self._approx_batch(runs)
        totals = [r.report.bits_total for r in results]
        report = randomness_audit(results)
        for q in (50, 90, 99):
            assert report["percentile_bits"][f"p{q}"] == pytest.approx(np.percentile(totals, q), rel=1e-12)
        assert report["mean_bits_total"] == pytest.approx(np.mean(totals), rel=1e-12)

    def test_one_run_is_its_own_percentile(self):
        results = self._approx_batch(1)
        total = results[0].report.bits_total
        report = randomness_audit(results)
        assert report["percentile_bits"] == {"p50": total, "p90": total, "p99": total}
        assert report["mean_bits_total"] == total

    def test_empty_batches_rejected(self):
        with pytest.raises(ParameterDomainError):
            randomness_audit([])

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
        envelope = (Fraction(exp_pos(eps, 64)[1], 1 << 64) + 1) * params.gamma.hi + delta
        res = privacy_audit(a, b, params, eps, envelope)
        assert res.passed

    def test_unknown_kind(self):
        """Params of an unknown type are rejected: the params type is the mode."""
        a = CountVector(d=1, n=5, sums=(0,))
        with pytest.raises(ParameterDomainError):
            privacy_audit(a, a, object(), Fraction(1), Fraction(0))
