"""Tests for the pure-DP release mechanisms."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import level_record
from frugaldp.errors import ParameterDomainError
from frugaldp.precise_math import rational_enclose
from frugaldp.pure_mech import PureParams, derive_pure_params, mech_pure_efficient, sample_tail_set
from frugaldp.release import CountVector
from reference import (
    _truncated_attempts,
    bernoulli_from_prob,
    crossing_shifts,
    discrete_laplace,
    floor_multiple,
    laplace_tail_sample,
    mech_pure_reference,
    membership,
    pure_tail_mass,
    two_sample_chi_square,
)

from conftest import collect_histogram


def _lap_tail_one_sided(t: float, m: int) -> float:
    # P[Y >= m] = exp(-(m-1)/t) / (exp(1/t) + 1) for Y ~ Lap_Z(t).
    return math.exp(-(m - 1) / t) / (math.exp(1 / t) + 1)


class TestDeriveParams:
    def test_threshold_formula(self):
        # eps=1, d=16, s=2: t=16, 16 ln(16) ln(2) = 30.75 -> m = 31 + 1 = 32.
        params = derive_pure_params(Fraction(1), 16, 2)
        assert params.m == 32
        assert params.scale == 16
        assert params.grid == 64

    def test_tail_probability_enclosure(self):
        params = derive_pure_params(Fraction(1), 16, 2)
        ref = 2 * _lap_tail_one_sided(16.0, params.m)
        assert float(params.p.lo) <= ref <= float(params.p.hi) + 1e-15

    def test_tail_probability_is_twice_one_sided_sum(self):
        # Independent oracle: sum the pmf over k >= m directly.
        params = PureParams(4, 2, Fraction(1), 3)
        t = float(params.scale)
        c = (math.exp(1 / t) - 1) / (math.exp(1 / t) + 1)
        one_sided = sum(c * math.exp(-k / t) for k in range(params.m, params.m + 2000))
        assert abs(float(params.p.lo) - 2 * one_sided) < 1e-9

    def test_degenerate_s_one(self):
        params = derive_pure_params(Fraction(1), 16, 1)
        assert params.m == 1
        ref = 2 / (math.exp(1 / 16) + 1)
        assert float(params.p.lo) <= ref <= float(params.p.hi) + 1e-15

    @pytest.mark.parametrize(
        "epsilon, d, s",
        # audit-desk, pure-cli, m = 1 (s = 1), and eps > 1 (t < d)
        [(Fraction(1, 4), 3, 2), (Fraction(1), 4096, 4), (Fraction(1), 16, 1), (Fraction(8), 256, 3)],
    )
    def test_tail_mass_and_powers_agree_with_the_reference(self, epsilon, d, s):
        # The reference encloses p from exp(-(m - 1)/t) and exp(1/t); the
        # cell law from q = exp(-1/t) and its digit tables. Both enclosures
        # are sound only if they overlap, at every level and power read.
        params = derive_pure_params(epsilon, d, s)
        w = 256
        lo, hi = pure_tail_mass(params, w)
        p_lo, p_hi = Fraction(lo, 1 << w), Fraction(hi, 1 << w)
        assert params.p.lo <= p_hi and p_lo <= params.p.hi
        for j in sorted({1, 2, d}):
            exact_lo, exact_hi = 1 - (1 - p_lo) ** j, 1 - (1 - p_hi) ** j
            for level in range(3):
                prec, rec_lo, rec_hi, limit = params.cells.any_tail(j, level)
                assert Fraction(rec_lo, 1 << prec) <= exact_hi and exact_lo <= Fraction(rec_hi, 1 << prec)
                assert limit >= 64 << level

    def test_scale_domain_enforced(self):
        with pytest.raises(ParameterDomainError):
            derive_pure_params(Fraction(1), 8, 2)  # d/eps = 8 <= 10
        with pytest.raises(ParameterDomainError):
            derive_pure_params(Fraction(2), 20, 2)  # d/eps = 10 <= 10
        derive_pure_params(Fraction(1), 11, 2)

    def test_explicit_constructor_validation(self):
        with pytest.raises(ParameterDomainError):
            PureParams(2, 2, Fraction(0), 2)
        with pytest.raises(ParameterDomainError):
            PureParams(2, 2, Fraction(1), 0)


class TestHandEvaluations:
    def test_rounding_identity(self):
        # d=1, sums=10, m=2, s=3, shift 4, noise 0: floor_6(14) = 12.
        assert floor_multiple(10 + 4 + 0, 6) == 12

    def test_silent_branch_zero_noise_bits(self):
        params = PureParams(1, 3, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=20, sums=(10,))
        seen_silent = False
        for seed in range(40):
            tape = BitTape(seed=seed)
            res, trace = mech_pure_efficient(counts, params, tape, omega=4)
            if trace.tail_size == 0:
                assert res.report.boundary_coordinates == ()
                assert res.values == (12,)
                noise_bits = res.report.bits_by_category.get("laplace", 0)
                noise_bits += res.report.bits_by_category.get("tail", 0)
                assert noise_bits == 0
                seen_silent = True
        assert seen_silent

    def test_touching_an_edge_only_at_m_is_silent(self):
        # Shifted count 10: body noise reaches 9..11, all of which rounds to 6;
        # only noise +2 = m, a tail value, would reach the grid multiple 12.
        params = PureParams(1, 3, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=20, sums=(8,))
        seen_silent = False
        for seed in range(40):
            res, trace = mech_pure_efficient(counts, params, BitTape(seed=seed), omega=2)
            if trace.tail_size == 0:
                assert res.report.boundary_coordinates == ()
                assert res.values == (6,)
                assert res.report.bits_by_category.get("laplace", 0) == 0
                seen_silent = True
        assert seen_silent

    def test_noisy_when_shift_crosses(self):
        params = PureParams(1, 3, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=20, sums=(10,))
        for seed in range(40):
            tape = BitTape(seed=seed)
            res, trace = mech_pure_efficient(counts, params, tape, omega=2)
            assert trace.tail_set | set(res.report.boundary_coordinates) == {0}


class TestDistributionalStructure:
    def test_variant2_vs_variant4(self):
        params = PureParams(2, 2, Fraction(1), 2)
        counts = CountVector(d=2, n=10, sums=(3, 7))
        h2, h4 = Counter(), Counter()
        t2, t4 = BitTape(seed=921), BitTape(seed=922)
        for _ in range(20_000):
            h2[mech_pure_reference(counts, params, 2, t2).values] += 1
            h4[mech_pure_reference(counts, params, 4, t4).values] += 1
        assert two_sample_chi_square(h2, h4) >= 0.001

    def test_variant1_tail_frequency(self):
        params = PureParams(1, 2, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=10, sums=(0,))
        tape = BitTape(seed=923)
        n = 50_000
        hits = 0
        for _ in range(n):
            res = mech_pure_reference(counts, params, 1, tape)
            if res.values[0] >= params.m:
                hits += 1
        expected = _lap_tail_one_sided(2.0, params.m)
        assert abs(hits / n - expected) <= 3 * math.sqrt(expected * (1 - expected) / n) + 0.001

    def test_efficient_matches_variant2_smoke(self):
        params = PureParams(2, 2, Fraction(1), 2)
        counts = CountVector(d=2, n=10, sums=(3, 7))
        h2, h5 = Counter(), Counter()
        t2, t5 = BitTape(seed=924), BitTape(seed=925)
        for _ in range(20_000):
            h2[mech_pure_reference(counts, params, 2, t2).values] += 1
            h5[mech_pure_efficient(counts, params, t5)[0].values] += 1
        assert two_sample_chi_square(h2, h5) >= 0.001

    def test_equivalence_at_s_one(self):
        # s = 1 with m = 4: the grid is 4 and the body window 7 wide, so the
        # first count's window straddles two edges (three body cells).
        from frugaldp.audit_harness import chi_square, oracle_joint_dist, tv_distance

        params = PureParams(2, 1, Fraction(1), 4)
        counts = CountVector(d=2, n=10, sums=(5, 7))
        oracle = oracle_joint_dist(counts, params)
        tape = BitTape(seed=933)
        hist = Counter()
        for _ in range(100_000):
            hist[mech_pure_efficient(counts, params, tape)[0].values] += 1
        assert chi_square(hist, oracle) >= 0.001
        assert float(tv_distance(hist, oracle)) <= 0.02

    def test_subset_law(self):
        # P[J = S] = p^|S| (1-p)^(d-|S|) for every S, with rational p = 1/4.
        d, p = 3, Fraction(1, 4)

        def any_tail(j, level):
            w = 64 << level
            return level_record(w, *rational_enclose(1 - (1 - p) ** j, w))

        tape = BitTape(seed=926)
        n = 40_000
        hist = Counter(sample_tail_set(tape, d, any_tail) for _ in range(n))
        all_subsets = [
            frozenset(c) for size in range(d + 1) for c in combinations(range(d), size)
        ]
        expected = {S: float(p) ** len(S) * float(1 - p) ** (d - len(S)) for S in all_subsets}
        from scipy import stats

        observed = [hist.get(S, 0) for S in all_subsets]
        _, pval = stats.chisquare(observed, [expected[S] * n for S in all_subsets])
        assert pval >= 0.001

    def test_subset_law_through_the_power_table(self):
        # The same law at audit-desk parameters (d = 3, p about 1/6), with
        # 1 - (1 - p)^j from the parameters' digit tables of 1 - p.
        params = derive_pure_params(Fraction(1, 4), 3, 2)
        p = float((params.p.lo + params.p.hi) / 2)
        tape = BitTape(seed=941)
        n = 40_000
        hist = Counter(sample_tail_set(tape, 3, params.cells.any_tail) for _ in range(n))
        all_subsets = [frozenset(c) for size in range(4) for c in combinations(range(3), size)]
        from scipy import stats

        observed = [hist.get(S, 0) for S in all_subsets]
        expected = [p ** len(S) * (1 - p) ** (3 - len(S)) * n for S in all_subsets]
        assert stats.chisquare(observed, expected).pvalue >= 0.001

    @pytest.mark.parametrize("epsilon, d, s", [(Fraction(1, 4), 3, 2), (Fraction(1), 64, 4)])
    def test_tail_set_bits(self, epsilon, d, s):
        # One locate per member and one for the end: about the set's entropy
        # d h(p), plus at most two bits per locate on average.
        params = derive_pure_params(epsilon, d, s)
        p = float((params.p.lo + params.p.hi) / 2)
        tape = BitTape(seed=942)
        n = 20_000
        for _ in range(n):
            sample_tail_set(tape, d, params.cells.any_tail)
        h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert tape.bits_consumed / n <= d * h + 2 * (d * p + 1)

    def test_tail_set_size_expectation(self):
        params = derive_pure_params(Fraction(1), 64, 4)
        counts = CountVector(d=64, n=100, sums=tuple((13 * i) % 100 for i in range(64)))
        tape = BitTape(seed=927)
        runs = 400
        sizes = []
        outside_bits = []
        for _ in range(runs):
            res, trace = mech_pure_efficient(counts, params, tape)
            sizes.append(trace.tail_size)
            cats = res.report.bits_by_category
            outside_bits.append(cats.get("binomial", 0) + cats.get("shift", 0))
        p_mid = float((params.p.lo + params.p.hi) / 2)
        dp = 64 * p_mid
        mean_size = sum(sizes) / runs
        sigma = math.sqrt(dp * (1 - p_mid) / runs)
        assert abs(mean_size - dp) <= 3 * sigma + 0.02
        # Outside-loop randomness stays logarithmic: generous desk bound
        # against O(log d + p d log d + log s) with tiny p.
        assert sum(outside_bits) / runs <= 4 * math.log2(64) * (1 + dp) + 2 * math.log2(4) + 10

    def test_body_boundary_enumeration(self):
        params = PureParams(1, 5, Fraction(1, 3), 3)
        for y in (0, 2, 7, 19, 60, 113):
            assert len(crossing_shifts(y, params.m, params.s)) <= 2

    def test_decomposed_noise_marginal(self):
        # Tail coin + conditional draws must reproduce the plain Laplace law
        # exactly; this is the per-coordinate heart of the decomposition.
        params = PureParams(1, 2, Fraction(1, 2), 2)
        scale = params.scale

        def decomposed(tape):
            if bernoulli_from_prob(tape, membership(params)):
                return laplace_tail_sample(tape, scale, params.m)
            return _truncated_attempts(tape, lambda t: discrete_laplace(t, scale), params.m)[0]

        mixed, _ = collect_histogram(decomposed, 50_000, 931)
        plain, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 50_000, 932)
        assert two_sample_chi_square(mixed, plain) >= 0.001


class TestTraceAndReport:
    def test_trace_consistency(self):
        params = PureParams(4, 3, Fraction(1), 2)
        counts = CountVector(d=4, n=20, sums=(3, 7, 11, 19))
        tape = BitTape(seed=928)
        res, trace = mech_pure_efficient(counts, params, tape)
        assert trace.tail_size == len(trace.tail_set)
        body = set(res.report.boundary_coordinates)
        assert trace.tail_set <= set(range(4)) and body <= set(range(4))
        assert not trace.tail_set & body  # a tail coordinate draws no body cell
        assert sum(res.report.bits_by_category.values()) == res.report.bits_total
        assert trace.shift % params.m == 0
        assert params.m <= trace.shift <= params.grid

    def test_outputs_on_grid(self):
        params = PureParams(3, 4, Fraction(1), 2)
        counts = CountVector(d=3, n=20, sums=(0, 9, 20))
        tape = BitTape(seed=929)
        for _ in range(300):
            res, _ = mech_pure_efficient(counts, params, tape)
            assert all(v % params.grid == 0 for v in res.values)

    def test_variant_validation(self):
        params = PureParams(1, 2, Fraction(1), 2)
        counts = CountVector(d=1, n=5, sums=(3,))
        for variant in (3, 5):
            with pytest.raises(ParameterDomainError):
                mech_pure_reference(counts, params, variant, BitTape(seed=1))


class TestEnclosedBinomialCost:
    """A cold pure release, tail-set draw included, at large d."""

    def test_cold_pure_release_at_large_d(self):
        d = 100_000
        counts = CountVector(d, 1000, tuple(i % 1001 for i in range(d)))
        params = derive_pure_params(Fraction(1), d, 4)
        result, trace = mech_pure_efficient(counts, params, BitTape(seed=831))
        assert len(result.values) == d
        assert all(v % params.grid == 0 for v in result.values)
        assert trace.tail_size == len(trace.tail_set)
