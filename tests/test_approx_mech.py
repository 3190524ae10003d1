"""Tests for the approximate-DP release mechanisms."""

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frugaldp.approx_mech import (
    _MAX_RADIUS,
    ApproxParams,
    _assert_envelope,
    certify_window_radius,
    derive_approx_params,
    mech_approx_efficient,
)
from frugaldp.bit_tape import BitTape
from frugaldp.errors import InternalError, ParameterDomainError
from frugaldp.release import CountVector
from reference import (
    approx_params_from_sigma,
    crossing_shifts,
    floor_multiple,
    is_silent,
    mech_approx_reference,
    two_sample_chi_square,
)


class TestFloorMultiple:
    def test_examples(self):
        assert floor_multiple(7, 3) == 6
        assert floor_multiple(12, 4) == 12
        assert floor_multiple(-1, 3) == -3

    @given(st.integers(min_value=-(10**9), max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_properties(self, v, k):
        m = floor_multiple(v, k)
        assert m % k == 0
        assert m <= v < m + k

    def test_bad_grid(self):
        with pytest.raises(ParameterDomainError):
            floor_multiple(5, 0)


class TestDeriveParams:
    def test_sigma_formula(self):
        # delta ~ exp(-1): sigma^2 = 4 ln(2/delta) = 4 (ln 2 + 1) ~ 6.7726.
        delta = Fraction(367879441171442, 10**15)
        params = derive_approx_params(Fraction(1), delta, 1, 3)
        ref = 4 * math.log(2 / float(delta))
        assert abs(float(params.sigma_sq_interval.lo) - ref) < 1e-9
        assert abs(float(params.sigma_sq_interval.hi) - ref) < 1e-9
        assert params.sigma_sq == params.sigma_sq_interval.hi

    def test_delta_domain_enforced(self):
        # exp(-1/2) ~ 0.6065: delta = 0.7 must be rejected.
        with pytest.raises(ParameterDomainError):
            derive_approx_params(Fraction(1), Fraction(7, 10), 2, 2)
        derive_approx_params(Fraction(1), Fraction(6, 10), 2, 2)

    @pytest.mark.parametrize(
        "epsilon, delta", [(Fraction(1), Fraction(1, 10**30)), (Fraction(1, 10), Fraction(1, 10**29))]
    )
    def test_gamma_below_two_to_the_minus_96(self, epsilon, delta):
        # gamma = delta / (2 (e^eps + 1)) is about 1.3e-31 and 2.4e-30 here,
        # below the 2**-96 grid it was once rounded to, which left it zero.
        params = derive_approx_params(epsilon, delta, 3, 2)
        gamma = float(delta) / (2 * (math.exp(float(epsilon)) + 1))
        assert 0 < params.gamma.lo <= params.gamma.hi < Fraction(1, 1 << 96)
        assert params.gamma.hi - params.gamma.lo <= params.gamma.lo / (1 << 90)
        assert math.isclose(float(params.gamma.lo), gamma, rel_tol=1e-12)
        sigma_sq, budget = float(params.sigma_sq), float(params.gamma.lo) / params.d
        assert 2 * math.exp(-params.r**2 / (2 * sigma_sq)) <= budget
        assert 2 * math.exp(-((params.r - 1) ** 2) / (2 * sigma_sq)) > budget

    def test_window_radius_certified_minimal(self):
        params = derive_approx_params(Fraction(1), Fraction(1, 4), 4, 4)
        sigma_sq = float(params.sigma_sq)
        budget = float(params.gamma.lo) / params.d
        assert 2 * math.exp(-params.r**2 / (2 * sigma_sq)) <= budget
        assert 2 * math.exp(-((params.r - 1) ** 2) / (2 * sigma_sq)) > budget

    def test_certify_window_radius_direct(self):
        r = certify_window_radius(Fraction(2), Fraction(1, 2048))
        assert 2 * math.exp(-(r**2) / 4) <= 1 / 2048
        assert 2 * math.exp(-((r - 1) ** 2) / 4) > 1 / 2048

    def test_radius_cap_is_exact(self):
        # sigma^2 = R^2 / (2 L), L just above ln 8, puts the certified r at R for budget 1/4.
        ln_8 = Fraction(2079441541679836, 10**15)
        for radius in (_MAX_RADIUS - 10, _MAX_RADIUS):
            assert certify_window_radius(radius * radius / (2 * ln_8), Fraction(1, 4)) == radius
        with pytest.raises(ParameterDomainError, match="window radius"):
            certify_window_radius((_MAX_RADIUS + 10) ** 2 / (2 * ln_8), Fraction(1, 4))

    @pytest.mark.parametrize("epsilon, r", [(1, 3445), (Fraction(1, 100), 340204), (Fraction(1, 1000), 3401721)])
    def test_radius_at_small_epsilon_is_under_the_cap(self, epsilon, r):
        assert derive_approx_params(Fraction(epsilon), Fraction(1, 1 << 20), 4096, 4).r == r

    def test_tiny_epsilon_is_refused_at_once(self):
        # r would be near 2**1331; the search for it once never returned.
        started = time.perf_counter()
        with pytest.raises(ParameterDomainError, match="window radius"):
            derive_approx_params(Fraction(1, 10**400), Fraction(1, 4), 2, 2)
        assert time.perf_counter() - started < 1

    def test_basic_validation(self):
        with pytest.raises(ParameterDomainError):
            derive_approx_params(Fraction(0), Fraction(1, 4), 2, 2)
        with pytest.raises(ParameterDomainError):
            derive_approx_params(Fraction(1), Fraction(0), 2, 2)
        with pytest.raises(ParameterDomainError):
            derive_approx_params(Fraction(1), Fraction(1, 4), 0, 2)


class TestHandEvaluations:
    # d=1, sums=10, r=2, s=3: grid 6. With shift 4 both probe points round
    # to 12, so the release is silent; with shift 2 they disagree.
    def _params(self):
        return ApproxParams(1, 3, Fraction(2), 2)

    def test_silent_branch(self):
        counts = CountVector(d=1, n=20, sums=(10,))
        tape = BitTape(seed=901)
        res = mech_approx_efficient(counts, self._params(), tape, omega=4)
        assert res.values == (12,)
        assert res.report.bits_total == 0
        assert res.report.boundary_coordinates == ()

    def test_noisy_branch(self):
        counts = CountVector(d=1, n=20, sums=(10,))
        tape = BitTape(seed=902)
        res = mech_approx_efficient(counts, self._params(), tape, omega=2)
        assert res.report.boundary_coordinates == (0,)
        assert res.report.bits_by_category.get("gaussian", 0) > 0
        assert res.values[0] % 6 == 0

    def test_silent_test_math(self):
        assert is_silent(10, 4, 2, 6)
        assert not is_silent(10, 2, 2, 6)

    def test_silent_test_rejects_bad_grid(self):
        with pytest.raises(ParameterDomainError):
            is_silent(10, 4, 2, 0)

    def test_touching_an_edge_only_at_r_is_silent(self):
        # Shifted count 10: the noise reaches 9..11 and all of it rounds to 6.
        # Only noise +2 = r would reach the grid multiple 12, and |noise| < r.
        assert is_silent(8, 2, 2, 6)
        counts = CountVector(d=1, n=20, sums=(8,))
        res = mech_approx_efficient(counts, self._params(), BitTape(seed=913), omega=2)
        assert res.values == (6,)
        assert res.report.bits_total == 0
        assert res.report.boundary_coordinates == ()

    def test_variant3_forced_shift_tiny_noise(self):
        counts = CountVector(d=1, n=20, sums=(10,))
        params = ApproxParams(1, 3, Fraction(1, 10000), 2)
        tape = BitTape(seed=903)
        for _ in range(200):
            res = mech_approx_reference(counts, params, 3, tape, omega=4)
            assert res.values == (12,)


class TestReferenceChain:
    def test_truncation_with_huge_radius_is_identity(self):
        counts = CountVector(d=1, n=20, sums=(10,))
        loose = ApproxParams(1, 3, Fraction(2), 200)
        hist1 = Counter()
        hist2 = Counter()
        t1, t2 = BitTape(seed=904), BitTape(seed=905)
        for _ in range(30_000):
            hist1[mech_approx_reference(counts, loose, 1, t1).values] += 1
            hist2[mech_approx_reference(counts, loose, 2, t2).values] += 1
        assert two_sample_chi_square(hist1, hist2) >= 0.001

    def test_variant1_tiny_variance_pins_output(self):
        counts = CountVector(d=2, n=20, sums=(5, 11))
        params = ApproxParams(2, 2, Fraction(1, 100), 1)
        tape = BitTape(seed=906)
        for _ in range(2_000):
            res = mech_approx_reference(counts, params, 1, tape)
            assert res.values == (5, 11)  # P[noise != 0] ~ 2 exp(-50)

    def test_variant_validation(self):
        counts = CountVector(d=1, n=5, sums=(3,))
        params = ApproxParams(1, 2, Fraction(2), 2)
        with pytest.raises(ParameterDomainError):
            mech_approx_reference(counts, params, 4, BitTape(seed=907))


@functools.cache
def _forced_shift_cell_bits():
    """Cell bits of 200 releases of 1 024 counts at s = 4, the shift forced to each unit in turn.

    Returns, per release, the entropy sum h(p_i) of the single-edge cells
    and their expected departures sum p_i (p_i from the level-1
    ``tail_ratio`` records), and the total cell bits.
    """
    d, s = 1024, 4
    params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, s)
    rng = random.Random(1024)
    counts = CountVector(d, 10**7, tuple(rng.randrange(10**7 + 1) for _ in range(d)))
    unit, grid = params.r, params.grid

    def law(omega):
        entropy = departures = 0.0
        for c in counts.sums:
            center = c + omega
            k = (center - unit + 1) // grid * grid + grid - center
            if k < unit:  # the boundary coordinate's single edge, at key k
                p, lo, hi, _ = params.cells.tail_ratio(k if k > 0 else 1 - k, 1)
                q = (lo + hi) / 2 ** (p + 1)
                entropy -= q * math.log2(q) + (1 - q) * math.log2(1 - q)
                departures += q
        return entropy, departures

    laws = {omega: law(omega) for omega in range(unit, grid + 1, unit)}
    tape = BitTape(seed=916)
    cell_bits, release_laws = 0, []
    for i in range(200):
        omega = unit * (1 + i % s)
        cell_bits += mech_approx_efficient(counts, params, tape, omega).report.bits_by_category["gaussian"]
        release_laws.append(laws[omega])
    return release_laws, cell_bits


class TestEfficientMechanism:
    def test_deterministic_envelope_always_holds(self):
        counts = CountVector(d=4, n=50, sums=(0, 17, 33, 50))
        params = approx_params_from_sigma(4, 5, Fraction(3), Fraction(1, 4096))
        tape = BitTape(seed=908)
        bound = params.accuracy_bound
        assert bound == params.r * (2 * params.s + 1)
        for _ in range(2_000):
            res = mech_approx_efficient(counts, params, tape)
            err = max(abs(y - s) for y, s in zip(res.values, counts.sums))
            assert err <= bound

    def test_envelope_check_at_its_edge(self):
        # An error of exactly r(2s+1) passes and one more fails, in both signs.
        params = ApproxParams(2, 3, Fraction(4), 5)
        bound = params.accuracy_bound
        assert bound == 35
        counts = CountVector(d=2, n=100, sums=(40, 60))
        _assert_envelope((40 + bound, 60 - bound), counts, params)
        for values in ((40 + bound + 1, 60), (40, 60 - bound - 1)):
            with pytest.raises(InternalError):
                _assert_envelope(values, counts, params)

    def test_outputs_on_grid(self):
        counts = CountVector(d=3, n=30, sums=(1, 15, 30))
        params = approx_params_from_sigma(3, 4, Fraction(2), Fraction(1, 1024))
        tape = BitTape(seed=909)
        for _ in range(500):
            res = mech_approx_efficient(counts, params, tape)
            assert all(v % params.grid == 0 for v in res.values)

    def test_boundary_fraction_bounded(self):
        # Fraction of coordinates needing noise <= 2/s plus sampling slack.
        d, s = 64, 8
        counts = CountVector(d=d, n=1000, sums=tuple((37 * i) % 1000 for i in range(d)))
        params = approx_params_from_sigma(d, s, Fraction(4), Fraction(1, 1 << 20))
        tape = BitTape(seed=910)
        runs = 200
        total_boundary = 0
        for _ in range(runs):
            res = mech_approx_efficient(counts, params, tape)
            total_boundary += len(res.report.boundary_coordinates)
        mean = total_boundary / runs
        limit = 2 * d / s
        sigma = math.sqrt(limit * (1 - 2 / s) / runs)
        assert mean <= limit + 3 * sigma + 0.5

    def test_exhaustive_crossing_count(self):
        for s in (3, 8, 17):
            for y in (0, 1, 5, 13, 97, 1234):
                assert len(crossing_shifts(y, 2, s)) <= 2

    def test_equivalence_at_pinned_small_params(self):
        # Fixed desk-scale configuration: d=2, r=2, s=3, sigma^2=2.
        from collections import Counter

        from frugaldp.audit_harness import chi_square, oracle_joint_dist, tv_distance
        from frugaldp.bit_tape import BitTape

        params = ApproxParams(2, 3, Fraction(2), 2)
        counts = CountVector(d=2, n=20, sums=(5, 11))
        oracle = oracle_joint_dist(counts, params)
        tape = BitTape(seed=912)
        hist = Counter()
        for _ in range(100_000):
            hist[mech_approx_efficient(counts, params, tape).values] += 1
        assert chi_square(hist, oracle) >= 0.001
        assert float(tv_distance(hist, oracle)) <= 0.02

    def test_equivalence_at_s_one(self):
        # s = 1: the grid equals r, so a noise window can straddle two edges
        # and a boundary coordinate has three possible cells.
        from frugaldp.audit_harness import chi_square, oracle_joint_dist, tv_distance

        params = approx_params_from_sigma(2, 1, Fraction(2), Fraction(1, 1024))
        counts = CountVector(d=2, n=20, sums=(3, 11))
        oracle = oracle_joint_dist(counts, params)
        assert len({v[0] for v in oracle.mass}) == 3  # two cells for the second count
        tape = BitTape(seed=914)
        hist = Counter()
        for _ in range(100_000):
            hist[mech_approx_efficient(counts, params, tape).values] += 1
        assert chi_square(hist, oracle) >= 0.001
        assert float(tv_distance(hist, oracle)) <= 0.02

    def test_cell_bits_per_boundary_at_criterion_06_parameters(self):
        d = 256
        n_rows = 1_000_003
        counts = CountVector(d=d, n=n_rows, sums=tuple((40_009 * i) % n_rows for i in range(d)))
        for idx, s in enumerate((4, 16, 64, 256)):
            params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, s)
            tape = BitTape(seed=915 + idx)
            noise = boundary = 0
            for _ in range(100):
                res = mech_approx_efficient(counts, params, tape)
                noise += res.report.bits_by_category.get("gaussian", 0)
                boundary += len(res.report.boundary_coordinates)
            assert boundary > 0
            assert noise / boundary <= 3

    def test_cell_bits_stay_within_the_run_bound(self):
        # Drawn in runs, the cells of a release cost at most their entropy
        # sum h(p_i) plus two bits per locate: one per departure, plus one.
        laws, bits = _forced_shift_cell_bits()
        limit = sum(entropy + 2 * (departures + 1) for entropy, departures in laws)
        assert bits <= limit * 1.03

    def test_cell_bits_stay_near_the_entropy(self):
        # The runs share one uniform, so a departure costs no fresh start:
        # the cells cost their entropy plus a bit or so per 32 bits of it.
        laws, bits = _forced_shift_cell_bits()
        entropy = sum(entropy for entropy, _ in laws)
        assert bits <= 1.1 * entropy + 8 * len(laws)

    def test_release_without_boundary_spends_only_shift_bits(self):
        # Equal counts are all silent or all on a boundary, by the shift drawn.
        params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), 1024, 4)
        counts = CountVector(1024, 10**7, (params.grid * 100 - params.r // 2,) * 1024)
        silent = 0
        for seed in range(20):
            res = mech_approx_efficient(counts, params, BitTape(seed=seed))
            if not res.report.boundary_coordinates:
                silent += 1
                assert res.report.bits_by_category == {"shift": res.report.bits_total}
        assert 0 < silent < 20

    def test_report_accounting(self):
        counts = CountVector(d=4, n=20, sums=(3, 7, 11, 19))
        params = approx_params_from_sigma(4, 3, Fraction(2), Fraction(1, 1024))
        tape = BitTape(seed=911)
        res = mech_approx_efficient(counts, params, tape)
        assert sum(res.report.bits_by_category.values()) == res.report.bits_total
        assert set(res.report.boundary_coordinates) <= set(range(4))
        assert set(res.report.draws_attempted) == set(res.report.boundary_coordinates)

    def test_dimension_mismatch(self):
        params = approx_params_from_sigma(2, 3, Fraction(2), Fraction(1, 1024))
        with pytest.raises(ParameterDomainError):
            mech_approx_efficient(CountVector(d=3, n=5, sums=(1, 2, 3)), params, BitTape(seed=1))

    def test_forced_shift_validation(self):
        params = ApproxParams(1, 3, Fraction(2), 2)
        counts = CountVector(d=1, n=5, sums=(3,))
        with pytest.raises(ParameterDomainError):
            mech_approx_efficient(counts, params, BitTape(seed=1), omega=3)  # not a multiple of r
        with pytest.raises(ParameterDomainError):
            mech_approx_efficient(counts, params, BitTape(seed=1), omega=8)  # above r*s
