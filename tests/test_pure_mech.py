"""Tests for the pure-DP release mechanisms."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from frugaldp.audit_harness import release_entropy
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import _LEVEL_START, Stream, locate
from frugaldp.errors import ParameterDomainError
from frugaldp.pure_mech import PureParams, derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector
from reference import (
    _truncated_attempts,
    bernoulli_from_prob,
    crossing_shifts,
    discrete_laplace,
    draw_shift,
    floor_multiple,
    laplace_tail_sample,
    mech_pure_reference,
    membership,
    pure_edge_mass,
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
        # The reference encloses p and p(K) from exp(-x) and exp(1/t); the
        # cell law from q = exp(-1/t) and its powers. Both enclosures
        # are sound only if they overlap, at every level and power read:
        # here (1 - p(K))^j, the coarse bound on j quiet keys staying.
        params = derive_pure_params(epsilon, d, s)
        w = _LEVEL_START << 2  # past the finest level read
        lo, hi = pure_tail_mass(params, w)
        p_lo, p_hi = Fraction(lo, 1 << w), Fraction(hi, 1 << w)
        assert params.p.lo <= p_hi and p_lo <= params.p.hi
        cells = params.cells
        lo, hi = pure_edge_mass(params, cells.quiet, params.grid + 1 - cells.quiet, w)
        p_lo, p_hi = Fraction(lo, 1 << w), Fraction(hi, 1 << w)
        for j in sorted({1, 2, d}):
            exact_lo, exact_hi = (1 - p_hi) ** j, (1 - p_lo) ** j
            for level in range(3):
                prec, rec_lo, rec_hi, limit = cells.all_stay(cells.quiet, j, level)
                assert Fraction(rec_lo, 1 << prec) <= exact_hi and exact_lo <= Fraction(rec_hi, 1 << prec)
                # At the level's precision: p(K)'s record is within 3 units,
                # and the j-th power widens it by at most a factor j.
                assert prec == _LEVEL_START << level and limit >= prec - 2 - j.bit_length()

    def test_scale_domain_enforced(self):
        with pytest.raises(ParameterDomainError):
            derive_pure_params(Fraction(1), 8, 2)  # d/eps = 8 <= 10
        with pytest.raises(ParameterDomainError):
            derive_pure_params(Fraction(2), 20, 2)  # d/eps = 10 <= 10
        derive_pure_params(Fraction(1), 11, 2)

    @pytest.mark.parametrize(
        "epsilon, d, s, message",
        [(0, 20, 2, "epsilon"), (-1, 20, 2, "epsilon"), (1, 0, 2, "d and s"), (1, 20, 0, "d and s")],
    )
    def test_derivation_refuses_its_own_domain(self, epsilon, d, s, message):
        # Refused before d / epsilon is formed, so epsilon = 0 is no ZeroDivisionError.
        with pytest.raises(ParameterDomainError, match=message):
            derive_pure_params(Fraction(epsilon), d, s)

    def test_explicit_constructor_validation(self):
        with pytest.raises(ParameterDomainError):
            PureParams(2, 2, Fraction(0), 2)
        with pytest.raises(ParameterDomainError):
            PureParams(2, 2, Fraction(1), 0)

    @pytest.mark.parametrize("d, s", [(30.0, 2), (30, 2.5)])
    def test_non_integer_d_or_s_is_refused(self, d, s):
        # Refused up front: a float s would make a float grid, which a release does integer arithmetic on.
        with pytest.raises(ParameterDomainError, match="d and s must be positive integers"):
            derive_pure_params(Fraction(1), d, s)

    @pytest.mark.parametrize("d, s, m", [(20.0, 2, 5), (20, 2.5, 5), (20, 2, 5.0)])
    def test_constructor_refuses_non_integers(self, d, s, m):
        with pytest.raises(ParameterDomainError, match="d, s and m must be positive integers"):
            PureParams(d, s, Fraction(1), m)


class TestQuietTail:
    @pytest.mark.parametrize(
        "epsilon, d, s, m, quiet",
        # audit-desk and pure-cli (no key below m is far: their queues are as
        # before), a small law whose keys 51..54 are far, and s = 1.
        [
            (Fraction(1, 4), 3, 2, 22, 22),
            (Fraction(1), 4096, 4, 47_232, 47_232),
            (Fraction(1, 4), 3, 6, 55, 51),
            (Fraction(1), 16, 1, 1, 1),
        ],
    )
    def test_quiet_key_is_the_least_far_key(self, epsilon, d, s, m, quiet):
        # K is the least key k' whose level-0 upper bound of p(k') is at most
        # 2**-(d.bit_length() + 5), or m if there is none; every key from K to
        # m - 1 is far too.
        params = derive_pure_params(epsilon, d, s)
        cells, bound = params.cells, Fraction(1, 1 << (d.bit_length() + 5))

        def far(k):
            p, _, hi, _ = cells.departure(k, 0)
            return Fraction(hi, 1 << p) <= bound

        assert (params.m, cells.quiet) == (m, quiet)
        assert quiet == 1 or not far(quiet - 1)
        assert all(far(k) for k in range(quiet, m))

    @pytest.mark.parametrize("s", [2, 6])
    def test_quiet_keys_leave_with_at_most_p_of_k(self, s):
        # p(k') does not increase on [1, m], and a silent key k in
        # [m, grid + 1 - m] leaves with at most p(m): every key the quiet
        # tail holds has its level-0 upper bound at most p(K)'s.
        params = derive_pure_params(Fraction(1, 4), 3, s)
        cells = params.cells
        top = cells.departure(cells.quiet, 0)[2]
        assert all(cells.departure(k, 0)[2] <= top for k in range(cells.quiet, params.grid + 2 - params.m))


class TestHandEvaluations:
    def test_rounding_identity(self):
        # d=1, sums=10, m=2, s=3, shift 4, noise 0: floor_6(14) = 12.
        assert floor_multiple(10 + 4 + 0, 6) == 12

    def test_silent_branch_reads_one_comparison(self):
        # Centre 14 on grid 6: no edge within m = 2, keyed 4 from its centre.
        # The half-width's bin is too hot to fill a block here (p(2) > 1/64),
        # so a silent coordinate pays for nothing but the comparison of u with
        # its own 1 - p(4) that certifies it stays, and draws its cell only
        # when that comparison fails.
        params = PureParams(1, 3, Fraction(1, 2), 2)
        assert params.cells.bins[2] == params.m
        counts = CountVector(d=1, n=20, sums=(10,))
        seen_silent = False
        for seed in range(40):
            tape = BitTape(seed=seed)
            res, trace = mech_pure_efficient(counts, params, tape, omega=4)
            assert res.report.boundary_coordinates == ()
            coarse = BitTape(seed=seed)
            if locate(Stream(coarse), lambda j, level: params.cells.all_stay(4, j, level), [1]):
                assert trace.departed == () and res.values == (12,)
                assert res.report.draws_attempted == {}
                assert res.report.bits_by_category == {"laplace": coarse.bits_consumed}
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
            assert res.report.boundary_coordinates == ()
            if not trace.departed:
                assert res.values == (6,)
                seen_silent = True
        assert seen_silent

    def test_noisy_when_shift_crosses(self):
        params = PureParams(1, 3, Fraction(1, 2), 2)
        counts = CountVector(d=1, n=20, sums=(10,))
        for seed in range(40):
            tape = BitTape(seed=seed)
            res, trace = mech_pure_efficient(counts, params, tape, omega=2)
            assert res.report.boundary_coordinates == (0,)

    def test_non_integer_count_is_refused(self):
        # Unchecked, 17.5 reaches the Laplace law's integer powers: a TypeError, not a domain error.
        for sums in ((17.5, 50, 93), (17, 50.0, 93)):
            with pytest.raises(ParameterDomainError, match="count . is not an integer"):
                CountVector(3, 100, sums)

    def test_float_forced_shift_is_refused(self):
        # Unchecked, a float shift passes and raises a TypeError in the release.
        params = derive_pure_params(Fraction(1, 4), 3, 2)
        counts = CountVector(3, 100, (17, 50, 93))
        with pytest.raises(ParameterDomainError, match="forced shift"):
            mech_pure_efficient(counts, params, BitTape(seed=1), float(params.m))


class TestDistributionalStructure:
    @pytest.mark.parametrize("unit", [1, 2])
    def test_release_bits_within_three_of_the_entropy_drawn(self, unit):
        # Audit-desk at each forced shift: the runs and the departures' cells
        # all draw on one uniform, so a release reads fewer than H + 3 bits,
        # H the entropy of the released cells (Han and Hoshi), where a fresh
        # uniform per draw paid up to about a bit more for each, and a tail
        # set drawn ahead of the cells paid for a device the output never shows.
        params = derive_pure_params(Fraction(1, 4), 3, 2)
        counts = CountVector(3, 100, (17, 50, 93))
        omega = unit * params.m
        entropy = release_entropy(counts, params, omega)
        tape = BitTape(seed=951)
        n = 20_000
        for _ in range(n):
            mech_pure_efficient(counts, params, tape, omega)
        assert 2.8 < entropy < 3.05
        assert tape.bits_consumed / n <= entropy + 3

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

    @staticmethod
    def _departed_law(hist, probs):
        """Chi-square of the departed sets against independent departures with chances ``probs``."""
        from scipy import stats

        d = len(probs)
        subsets = [frozenset(c) for size in range(d + 1) for c in combinations(range(d), size)]
        n = sum(hist.values())
        expected = [math.prod(p if i in S else 1 - p for i, p in enumerate(probs)) * n for S in subsets]
        assert stats.chisquare([hist.get(S, 0) for S in subsets], expected).pvalue >= 0.001

    def test_subset_law(self):
        # The set of coordinates that leave their home cell: each does with
        # p_i = (q^a + q^b) / (1 + q), a and b its edges' keys, independently.
        # At t = 3, m = 4 and shift 4 the centres 4, 7 and 9 put a silent
        # coordinate (a, b = 4, 5) and two on a boundary (1, 8 and 7, 2).
        params = PureParams(3, 2, Fraction(1), 4)
        counts = CountVector(3, 10, (0, 3, 5))
        q = math.exp(-1 / 3)
        probs = [(q**a + q**b) / (1 + q) for a, b in ((4, 5), (1, 8), (7, 2))]
        tape = BitTape(seed=926)
        hist = Counter(frozenset(mech_pure_efficient(counts, params, tape, 4)[1].departed) for _ in range(40_000))
        self._departed_law(hist, probs)

    def test_subset_law_through_the_cell_law(self):
        # The same law at audit-desk parameters and shift m, with each p_i the
        # midpoint of the cell law's level-0 departure record at the nearer key.
        params = derive_pure_params(Fraction(1, 4), 3, 2)
        counts = CountVector(3, 100, (17, 50, 93))
        grid, probs = params.grid, []
        for c in counts.sums:
            center = c + params.m
            a = center // grid * grid + grid - center
            p, lo, hi, _ = params.cells.departure(min(a, grid + 1 - a), 0)
            probs.append((lo + hi) / 2 ** (p + 1))
        tape = BitTape(seed=941)
        hist = Counter(
            frozenset(mech_pure_efficient(counts, params, tape, params.m)[1].departed) for _ in range(40_000)
        )
        self._departed_law(hist, probs)

    def test_tail_set_size_expectation(self):
        # The trace's tail size counts the coordinates released where no noise
        # |eta| < m reaches: at each shift, the sum over coordinates of the
        # mass past the first edge beyond c + m - 1 and below the last edge
        # at or below c - m + 1.
        params = derive_pure_params(Fraction(1), 64, 4)
        counts = CountVector(d=64, n=100, sums=tuple((13 * i) % 100 for i in range(64)))
        m, grid, q = params.m, params.grid, math.exp(-1 / float(params.scale))

        def far(center):
            top = (center + m - 1) // grid * grid + grid
            bottom = (center - m + 1) // grid * grid
            return (q ** (top - center) + q ** (center - bottom + 1)) / (1 + q)

        tape = BitTape(seed=927)
        runs = 400
        sizes, shift_bits = [], []
        expected = 0.0
        for _ in range(runs):
            res, trace = mech_pure_efficient(counts, params, tape)
            sizes.append(trace.tail_size)
            shift_bits.append(res.report.bits_by_category.get("shift", 0))
            expected += sum(far(c + trace.shift) for c in counts.sums) / runs
        mean_size = sum(sizes) / runs
        assert abs(mean_size - expected) <= 3 * math.sqrt(expected / runs) + 0.02
        # At s = 4 the shift reads exactly its two bits: it is their box.
        assert set(shift_bits) == {2}

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
        assert trace.tail_size <= len(trace.departed)
        body = set(res.report.boundary_coordinates)
        assert set(trace.departed) <= set(res.report.draws_attempted) <= set(range(4))
        assert body <= set(res.report.draws_attempted)  # every boundary coordinate draws
        homes = [(c + trace.shift) // params.grid * params.grid for c in counts.sums]
        assert [i for i in range(4) if res.values[i] != homes[i]] == list(trace.departed)
        assert sum(res.report.bits_by_category.values()) == res.report.bits_total
        assert trace.shift % params.m == 0
        assert params.m <= trace.shift <= params.grid
        # d = 3, eps = 1/4, s = 6: m = 55 and K = 51 on the grid 330. At the
        # shift m the count 225 keys its edge 50 from its centre (hot), 0 is
        # silent and 221 keys its edge at 54 (quiet): the queue holds the hot
        # key, then the silent and the quiet one in index order, so a silent
        # departure sits before the last boundary coordinate (seed 191 is one).
        params = derive_pure_params(Fraction(1, 4), 3, 6)
        counts = CountVector(3, 400, (0, 225, 221))
        silent_departures = 0
        for seed in range(2000):
            res, trace = mech_pure_efficient(counts, params, BitTape(seed=seed), params.m)
            assert res.report.boundary_coordinates == (1, 2)
            assert set(trace.departed) <= set(res.report.draws_attempted)
            silent_departures += 0 in trace.departed
        assert silent_departures > 0

    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_seeded_shift_is_the_reference_rejection_shift(self, s):
        # At a power-of-two s the shift is 1 + u's first log2 s bits, in units:
        # the shift the reference chains' rejection draws from the same seed.
        params = derive_pure_params(Fraction(1, 4), 3, s)
        counts = CountVector(3, 100, (17, 50, 93))
        for seed in range(1000):
            _, trace = mech_pure_efficient(counts, params, BitTape(seed=seed))
            assert trace.shift == draw_shift(BitTape(seed=seed), params.m, s)

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
    """A cold pure release at large d, silent coordinates certified by one comparison."""

    def test_cold_pure_release_at_large_d(self):
        d = 100_000
        counts = CountVector(d, 1000, tuple(i % 1001 for i in range(d)))
        params = derive_pure_params(Fraction(1), d, 4)
        result, trace = mech_pure_efficient(counts, params, BitTape(seed=831))
        assert len(result.values) == d
        assert all(v % params.grid == 0 for v in result.values)
        assert trace.tail_size <= len(trace.departed)
