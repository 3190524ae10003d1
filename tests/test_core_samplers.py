"""Tests for the exact primitive samplers.

Every asserted probability is computed from an independent oracle first
(closed-form evaluation or truncated normalization with float math) and
compared against seeded empirical frequencies.
"""

import copy
import itertools
import math
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from scipy import stats

import frugaldp.core_samplers as cs
from frugaldp import release
import reference
from frugaldp.approx_mech import mech_approx_efficient
from frugaldp.audit_harness import DiscreteDist, PrivacyAuditResult
from frugaldp.bit_tape import BitTape
from frugaldp.cli import RunConfig
from frugaldp.core_samplers import GaussianCells, LaplaceCells, locate
from frugaldp.errors import EnclosureContractError, InternalError, ParameterDomainError
from frugaldp.precise_math import exp_neg, rational_enclose
from frugaldp.pure_mech import PureParams, PureTrace, derive_pure_params, mech_pure_efficient, sample_tail_set
from frugaldp.release import CountVector, MechanismResult, RandomnessReport, draw_runs, shift_and_round
from reference import (
    GaussParam,
    RefinableProb,
    SampleBudgetError,
    _truncated_attempts,
    approx_params_from_sigma,
    bernoulli_from_prob,
    discrete_gaussian,
    discrete_laplace,
    geometric_fast,
    is_silent,
    laplace_tail_sample,
    two_sample_chi_square,
)

from conftest import collect_histogram


def _bernoulli_exp_oracle(gamma):
    """RefinableProb for 1 - exp(-1/gamma)."""
    def enclose(w):
        lo, hi = exp_neg(1 / Fraction(gamma), w)
        return (1 << w) - hi, (1 << w) - lo

    return RefinableProb(enclose)


def _constant_oracle(value):
    return RefinableProb(lambda w: rational_enclose(value, w))


def _geometric_pmf(t):
    """Exact pmf of Geo(1 - exp(-1/t)) on {0, 1, ...}, in floats."""
    q = math.exp(-1 / float(t))
    return lambda k: (1 - q) * q**k


def _chi_square_against(hist, pmf):
    """Goodness-of-fit p-value; values past the last bin expecting >= 5 are pooled."""
    n = sum(hist.values())
    observed, expected, k = [], [], 0
    while pmf(k) * n >= 5:
        observed.append(hist.get(k, 0))
        expected.append(pmf(k) * n)
        k += 1
    observed.append(n - sum(observed))
    expected.append(n - sum(expected))
    return stats.chisquare(observed, expected).pvalue


class TestBernoulliExp:
    def test_mean_at_gamma_one(self):
        tape = BitTape(seed=101)
        n = 100_000
        prob = _bernoulli_exp_oracle(1)
        mean = sum(bernoulli_from_prob(tape, prob) for _ in range(n)) / n
        assert abs(mean - (1 - math.exp(-1))) <= 0.01

    def test_tiny_success_probability(self):
        # gamma = 2**20: success probability 1 - exp(-2**-20) ~ 9.54e-7.
        tape = BitTape(seed=102)
        n = 1_000_000
        gamma = Fraction(1 << 20)
        prob = _bernoulli_exp_oracle(gamma)
        successes = sum(bernoulli_from_prob(tape, prob) for _ in range(n))
        q = 1 - math.exp(-float(1 / gamma))
        assert abs(successes / n - q) <= 3 * math.sqrt(q / n)

    def test_seeded_runs_identical(self):
        a = BitTape(seed=103)
        b = BitTape(seed=103)
        prob = _bernoulli_exp_oracle(Fraction(3, 2))
        seq_a = [bernoulli_from_prob(a, prob) for _ in range(200)]
        seq_b = [bernoulli_from_prob(b, prob) for _ in range(200)]
        assert seq_a == seq_b


class TestBernoulliFromProb:
    def test_rational_probability(self):
        prob = _constant_oracle(Fraction(1, 3))
        tape = BitTape(seed=105)
        n = 50_000
        mean = sum(bernoulli_from_prob(tape, prob) for _ in range(n)) / n
        assert abs(mean - 1 / 3) <= 0.01

    def test_certain_outcomes_cost_no_bits(self):
        tape = BitTape(seed=106)
        assert bernoulli_from_prob(tape, _constant_oracle(Fraction(1))) == 1
        assert bernoulli_from_prob(tape, _constant_oracle(Fraction(0))) == 0
        assert tape.bits_consumed == 0


class TestGeometric:
    def test_mass_at_zero(self):
        scale = Fraction(2)
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 100_000, 201)
        n = sum(hist.values())
        assert abs(hist[0] / n - (1 - math.exp(-0.5))) <= 0.01

    def test_successive_ratio(self):
        scale = Fraction(2)
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 100_000, 202)
        for k in range(3):
            ratio = hist[k + 1] / hist[k]
            assert abs(ratio - math.exp(-0.5)) <= 0.03

    def test_tiny_scale_collapses_to_zero(self):
        scale = Fraction(1, 64)
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 10_000, 203)
        assert set(hist) == {0}  # P[nonzero] <= exp(-64)

    def test_matches_exact_pmf(self):
        # The non-integer scale 7/2 exercises the residue and divisor paths.
        for seed, t in ((204, Fraction(2)), (205, Fraction(7, 2))):
            hist, _ = collect_histogram(lambda tp: geometric_fast(tp, t), 30_000, seed)
            assert _chi_square_against(hist, _geometric_pmf(t)) >= 0.001

    def test_fast_uses_fewer_bits_at_large_scale(self):
        # Flipping coins until the first success takes 1/(1 - exp(-1/t)) > t
        # trials on average, at least one bit each.
        scale = Fraction(128)
        _, fast_bits = collect_histogram(lambda t: geometric_fast(t, scale), 2_000, 207)
        assert fast_bits / 2_000 < 128 / 5

    def test_residue_cache_stays_bounded(self):
        # At t = 4 096 000 nearly every attempt draws a new residue: 5 000
        # draws ask for about 8 000 acceptance oracles.
        scale = Fraction(4_096_000)
        cap = reference._RESIDUES.cap
        tape = BitTape(seed=208)
        for _ in range(5_000):
            geometric_fast(tape, scale)
            assert len(reference._RESIDUES) <= cap


class TestDiscreteLaplace:
    def test_mass_at_zero(self):
        scale = Fraction(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 301)
        n = sum(hist.values())
        expected = (math.e - 1) / (math.e + 1)
        assert abs(hist[0] / n - expected) <= 0.01

    def test_symmetry(self):
        scale = Fraction(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 302)
        n = sum(hist.values())
        for k in (1, 2, 3):
            assert abs(hist[k] / n - hist[-k] / n) <= 0.01

    def test_tail_mass(self):
        # P[X >= m] = exp(-eps(m-1)) / (e^eps + 1) at scale 1/eps; eps=1, m=3.
        scale = Fraction(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 303)
        n = sum(hist.values())
        tail = sum(c for k, c in hist.items() if k >= 3) / n
        expected = math.exp(-2) / (math.e + 1)
        assert abs(tail - expected) <= 0.005

    def test_bit_cost_grows_polylog(self):
        means = []
        for seed, t in enumerate((2, 8, 32, 128)):
            scale = Fraction(t)
            _, bits = collect_histogram(lambda tp: discrete_laplace(tp, scale), 3_000, 400 + seed)
            means.append(bits / 3_000)
        assert means[0] <= means[1] * 1.02
        assert means[1] <= means[2] * 1.02
        assert means[2] <= means[3] * 1.02
        # 64x scale increase must cost far less than 64x bits; polylog growth.
        assert means[3] <= 8 * means[0]


class TestDiscreteGaussian:
    def test_mass_at_zero_vs_truncated_normalization(self):
        param = GaussParam(1)
        hist, _ = collect_histogram(lambda t: discrete_gaussian(t, param), 100_000, 501)
        n = sum(hist.values())
        z = sum(math.exp(-x * x / 2) for x in range(-40, 41))
        assert abs(hist[0] / n - 1 / z) <= 0.01

    def test_symmetry(self):
        param = GaussParam(1)
        hist, _ = collect_histogram(lambda t: discrete_gaussian(t, param), 100_000, 502)
        n = sum(hist.values())
        for k in (1, 2):
            assert abs(hist[k] / n - hist[-k] / n) <= 0.01

    def test_tail_bound(self):
        # P[X >= 6] <= exp(-36/8) = 0.01111 at sigma^2 = 4.
        param = GaussParam(4)
        hist, _ = collect_histogram(lambda t: discrete_gaussian(t, param), 100_000, 503)
        n = sum(hist.values())
        tail = sum(c for k, c in hist.items() if k >= 6) / n
        bound = math.exp(-36 / 8)
        assert tail <= bound + 3 * math.sqrt(bound / n)

    def test_fractional_variance(self):
        param = GaussParam(Fraction(1, 100))
        hist, _ = collect_histogram(lambda t: discrete_gaussian(t, param), 2_000, 504)
        assert set(hist) == {0}  # P[X != 0] ~ 2 exp(-50)


def _truncated(base, bound):
    return lambda tape: _truncated_attempts(tape, base, bound)[0]


class TestTruncatedSample:
    def test_huge_bound_is_identity(self):
        scale = Fraction(2)
        base, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 20_000, 601)
        trunc, _ = collect_histogram(
            _truncated(lambda tp: discrete_laplace(tp, scale), 10**9), 20_000, 602
        )
        assert two_sample_chi_square(base, trunc) >= 0.001

    def test_bound_one_pins_to_zero(self):
        scale = Fraction(1)
        hist, _ = collect_histogram(_truncated(lambda tp: discrete_laplace(tp, scale), 1), 2_000, 603)
        assert set(hist) == {0}

    def test_conditional_pmf(self):
        # Renormalized oracle over {-2..2} for Lap_Z(2) conditioned |X| < 3.
        scale = Fraction(2)
        weights = {k: math.exp(-abs(k) / 2) for k in range(-2, 3)}
        z = sum(weights.values())
        oracle = {k: w / z for k, w in weights.items()}
        hist, _ = collect_histogram(
            _truncated(lambda tp: discrete_laplace(tp, scale), 3), 100_000, 604
        )
        n = sum(hist.values())
        empirical = {k: c / n for k, c in hist.items()}
        tv = sum(abs(empirical.get(k, 0) - oracle.get(k, 0)) for k in set(empirical) | set(oracle)) / 2
        assert tv <= 0.02

    def test_attempt_cap_raises(self, monkeypatch):
        monkeypatch.setattr(reference, "ATTEMPT_CAP", 50)
        tape = BitTape(seed=605)
        with pytest.raises(SampleBudgetError):
            _truncated_attempts(tape, lambda t: 7, 1)


class TestLaplaceTailSample:
    def test_sign_balance(self):
        scale = Fraction(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 100_000, 701)
        n = sum(hist.values())
        positive = sum(c for k, c in hist.items() if k > 0) / n
        assert abs(positive - 0.5) <= 0.01

    def test_support_excludes_body(self):
        scale = Fraction(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 200_000, 702)
        assert min(abs(k) for k in hist) == 3

    def test_geometric_ratio_from_threshold(self):
        scale = Fraction(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 100_000, 703)
        ratio = hist[3] / hist[4]
        assert abs(ratio - math.exp(0.5)) <= 0.06

    def test_memorylessness_matches_geometric(self):
        # The excess over the threshold is exactly Geo(1 - exp(-1/t)).
        for seed, t in ((704, Fraction(2)), (705, Fraction(7, 2))):
            excess, _ = collect_histogram(
                lambda tp: abs(laplace_tail_sample(tp, t, 5)) - 5, 50_000, seed
            )
            assert _chi_square_against(excess, _geometric_pmf(t)) >= 0.001

    def test_threshold_validation(self):
        tape = BitTape(seed=706)
        with pytest.raises(ParameterDomainError):
            laplace_tail_sample(tape, Fraction(2), 0)

    def test_bits_stay_small_at_large_scale(self):
        # The magnitude comes from geometric_fast, not the O(t) coin-flip loop.
        _, bits = collect_histogram(lambda t: laplace_tail_sample(t, Fraction(4096), 5), 200, 707)
        assert bits / 200 <= 100


def _gauss_weight(sigma_sq):
    return lambda eta: math.exp(-eta * eta / (2 * float(sigma_sq)))


def _laplace_weight(t):
    return lambda eta: math.exp(-abs(eta) / float(t))


def _cell_probs(weight, halfwidth, center, grid):
    """Float oracle: law of floor_grid(center + eta) by enumerating eta."""
    support = range(-(halfwidth - 1), halfwidth)
    z = sum(weight(eta) for eta in support)
    probs = {}
    for eta in support:
        cell = (center + eta) // grid * grid
        probs[cell] = probs.get(cell, 0.0) + weight(eta) / z
    return probs


def _release_cell(tape, law, s, count):
    """The value shift_and_round releases for one count, with the shift forced to the unit."""
    counts = CountVector(1, 100, (count,))
    result, _ = shift_and_round(tape, tape.snapshot(), counts, s, law, "noise", law.halfwidth)
    return result.values[0]


def _assert_cell_law(hist, probs):
    assert set(hist) <= set(probs)
    n = sum(hist.values())
    observed = [hist.get(c, 0) for c in sorted(probs)]
    expected = [probs[c] * n for c in sorted(probs)]
    assert stats.chisquare(observed, expected).pvalue >= 0.001


_LAWS = [
    ("gaussian", lambda: GaussianCells(Fraction(7, 3), 9), _gauss_weight(Fraction(7, 3)), 9),
    ("laplace", lambda: LaplaceCells(Fraction(5, 2), 11), _laplace_weight(Fraction(5, 2)), 11),
]

# Releases of several coordinates, as (s, keys): with unit h and the shift
# forced to h, count (s - 1) h - k puts the edge s h at key k from the
# centre (home is the lower cell for k > 0, the upper one otherwise), and
# None is count 0, a silent coordinate.
_RUNS = [
    (2, (1, 0, -1, 2, 0)),
    (2, (-1, 1, None, 0, 2, 1)),
    (3, (1, None, -1, 0, None, 2)),
]


def _run_case(law, weight, s, keys):
    """The counts of a _RUNS case and the exact cell law of each coordinate."""
    h = law.halfwidth
    sums = tuple(0 if k is None else (s - 1) * h - k for k in keys)
    laws = [_cell_probs(weight, h, c + h, h * s) for c in sums]
    assert [len(probs) for probs in laws] == [1 if k is None else 2 for k in keys]
    return CountVector(len(sums), 4 * h * s, sums), laws


def _release_row(tape, law, s, counts):
    result, _ = shift_and_round(tape, tape.snapshot(), counts, s, law, "noise", law.halfwidth)
    return result.values


def _assert_joint_law(hist, laws):
    """Chi-square of a joint histogram against the product of the cell laws."""
    joint = {}
    for row in itertools.product(*(sorted(probs.items()) for probs in laws)):
        joint[tuple(c for c, _ in row)] = math.prod(p for _, p in row)
    assert set(hist) <= set(joint)
    n = sum(hist.values())
    # Outcomes expecting fewer than 5 draws are pooled into one bin.
    big = [v for v in joint if joint[v] * n >= 5]
    observed = [hist.get(v, 0) for v in big]
    expected = [joint[v] * n for v in big]
    if len(big) < len(joint):
        observed.append(n - sum(observed))
        expected.append(n - sum(expected))
    assert stats.chisquare(observed, expected).pvalue >= 0.001


def _first_departures(hist, counts, law, s):
    """The first coordinate off its home cell, over the outcomes seen (None: all home)."""
    grid = law.halfwidth * s
    homes = [(c + law.halfwidth) // grid * grid for c in counts.sums]
    return {next((i for i, (v, e) in enumerate(zip(row, homes)) if v != e), None) for row in hist}


class TestCellDraw:
    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    def test_tail_ratio_encloses_the_tail_mass(self, name, make, weight, h):
        law = make()
        support = range(-(h - 1), h)
        z = sum(weight(eta) for eta in support)
        for k in range(-(h - 2), h):
            ratio = sum(weight(eta) for eta in range(k, h)) / z
            for level in (0, 1):
                p, lo, hi, limit = law.tail_ratio(k, level)
                assert lo / 2**p <= ratio * (1 + 1e-12)
                assert hi / 2**p >= ratio * (1 - 1e-12)
                assert limit >= 40 << level

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("center,grid", [(40, 20), (9, 10), (50, 9)])
    def test_cell_law_matches_enumeration(self, name, make, weight, h, center, grid):
        # The comparator alone, for grids the release never uses: grid 20
        # leaves one edge in the window, 10 and 9 leave two (three cells).
        law = make()
        low = (center - (h - 1)) // grid * grid
        keys = range(low + grid - center, h, grid)
        n = 40_000
        hist, bits = collect_histogram(lambda t: low + grid * locate(t, law.tail_ratio, keys), n, 708)
        probs = _cell_probs(weight, h, center, grid)
        _assert_cell_law(hist, probs)
        assert bits / n <= 2 * (len(probs) - 1) + 1

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("s,count,cells", [(1, 0, 2), (1, 3, 3), (2, 3, 2)])
    def test_release_cell_law_matches_enumeration(self, name, make, weight, h, s, count, cells):
        # Unit h and the shift forced to h put the window at (count, count + 2h):
        # one edge in it for count 0 at s = 1 and count 3 at s = 2, two for count 3 at s = 1.
        law = make()
        probs = _cell_probs(weight, h, count + h, h * s)
        assert len(probs) == cells
        n = 40_000
        hist, bits = collect_histogram(lambda t: _release_cell(t, law, s, count), n, 708)
        _assert_cell_law(hist, probs)
        assert bits / n <= 2 * (len(probs) - 1) + 1

    def test_silent_window_draws_nothing(self):
        # center 27 on grid 18: the window (19, 35) holds no edge.
        law = GaussianCells(Fraction(7, 3), 9)
        tape = BitTape(seed=709)
        assert _release_cell(tape, law, 2, 18) == 18
        assert tape.bits_consumed == 0

    def test_refinement_keeps_the_law(self, monkeypatch):
        # Start at 4-bit levels so that most draws must refine their enclosure.
        monkeypatch.setattr(cs, "_LEVEL_START", 4)
        law = LaplaceCells(Fraction(5, 2), 11)
        n = 20_000
        hist, _ = collect_histogram(lambda t: _release_cell(t, law, 1, 3), n, 710)
        assert len(law._levels) >= 2
        _assert_cell_law(hist, _cell_probs(_laplace_weight(Fraction(5, 2)), 11, 14, 11))

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("s,keys", _RUNS)
    def test_run_law_matches_the_product_of_cell_laws(self, name, make, weight, h, s, keys):
        law = make()
        counts, laws = _run_case(law, weight, s, keys)
        hist, _ = collect_histogram(lambda t: _release_row(t, law, s, counts), 40_000, 712)
        _assert_joint_law(hist, laws)
        boundary = [i for i, k in enumerate(keys) if k is not None]
        # Departures at the first, every middle and the last boundary coordinate,
        # and releases that keep every coordinate home.
        assert _first_departures(hist, counts, law, s) == {*boundary, None}

    def test_refinement_mid_run_keeps_the_law(self, monkeypatch):
        # 4-bit levels: the running products widen within a few coordinates,
        # so draws refine partway along a run and rebuild that level's prefix.
        monkeypatch.setattr(cs, "_LEVEL_START", 4)
        law = LaplaceCells(Fraction(5, 2), 11)
        counts, laws = _run_case(law, _laplace_weight(Fraction(5, 2)), 2, _RUNS[0][1])
        hist, _ = collect_histogram(lambda t: _release_row(t, law, 2, counts), 20_000, 713)
        assert len(law._levels) >= 2
        _assert_joint_law(hist, laws)

    @pytest.mark.parametrize("mode", ["approx", "pure"])
    def test_boundary_set_is_the_non_silent_coordinates(self, mode):
        # Counts sweep every residue of the grid, under every forced shift.
        d, s = 8, 3
        if mode == "approx":
            params = approx_params_from_sigma(d, s, Fraction(2), Fraction(1, 1024))
            unit = params.r
        else:
            params = PureParams(d, s, Fraction(1, 2), 5)
            unit = params.m
        grid = unit * s
        tape = BitTape(seed=711)
        for base in range(0, grid, d):
            counts = CountVector(d, grid + d, tuple(base + i for i in range(d)))
            for omega in range(unit, grid + 1, unit):
                if mode == "approx":
                    report, tail = mech_approx_efficient(counts, params, tape, omega).report, ()
                else:
                    result, trace = mech_pure_efficient(counts, params, tape, omega)
                    report, tail = result.report, trace.tail_set
                expected = [
                    i for i, s_i in enumerate(counts.sums)
                    if i not in tail and not is_silent(s_i, omega, unit, grid)
                ]
                assert list(report.boundary_coordinates) == expected

    def test_halfwidth_validation(self):
        with pytest.raises(ParameterDomainError):
            GaussianCells(Fraction(2), 0)

    def test_integer_laplace_scale_is_exact(self):
        # An int t must not reach the law as the float 1/t.
        keys = range(-6, 7)
        exact = LaplaceCells(Fraction(3), 7)
        assert [LaplaceCells(3, 7).tail_ratio(k, 0) for k in keys] == [exact.tail_ratio(k, 0) for k in keys]


def _tail_cell_probs(t, m, grid, center):
    """Float oracle of a tail coordinate's cell, by enumerating eta = +-(m + G) with G geometric.

    Returns the law of each sign, each conditioned on that sign.
    """
    q = math.exp(-1 / float(t))
    sides = ({}, {})
    g = 0
    while q**g > 1e-18:
        mass = (1 - q) * q**g
        for side, eta in zip(sides, (m + g, -(m + g))):
            cell = (center + eta) // grid * grid
            side[cell] = side.get(cell, 0.0) + mass
        g += 1
    return sides


def _entropy_bits(probs):
    return -sum(p * math.log2(p) for p in probs.values() if p > 0)


def _locate_bits(thresholds):
    """Expected bits of one locate over these thresholds, with exact enclosures.

    Bit n + 1 is read exactly when the level-n dyadic box [u, u + 2**-n)
    holds a threshold inside it, so the expectation is the sum over n of
    2**-n times the number of such boxes (floats resolve n up to about 50).
    """
    bits = 0.0
    for n in range(56):
        scaled = [t * 2**n for t in thresholds]
        bits += len({math.floor(x) for x in scaled if x % 1}) / 2**n
    return bits


# (t, m) at audit-desk and at a scale where one cell spans few geometric steps.
_TAIL_LAWS = [(Fraction(12), 22), (Fraction(2), 2)]


class TestTailCellDraw:
    @pytest.mark.parametrize("t,m", _TAIL_LAWS)
    def test_geometric_tail_encloses_q_to_the_g(self, t, m):
        law = LaplaceCells(t, m)
        for g in range(0, 12 * m):
            exact = math.exp(-g / float(t))
            for level in (0, 1):
                p, lo, hi, limit = law.geometric_tail(g, level)
                assert lo / 2**p <= exact * (1 + 1e-12)
                assert hi / 2**p >= exact * (1 - 1e-12)
                assert limit >= 40 << level

    @pytest.mark.parametrize("t,m", _TAIL_LAWS)
    @pytest.mark.parametrize("offset", [0, 1, -1])
    def test_cell_law_matches_the_geometric_tail(self, t, m, offset):
        # s = 2 and the shift forced to m put the centre at count + m. Offset
        # 0 puts c + m and c - m on grid edges; 1 and -1 put them just past
        # and just short of one.
        s, grid = 2, 2 * m
        count = 2 * grid + offset
        center = count + m
        law = LaplaceCells(t, m)
        counts, tail = CountVector(1, 4 * grid, (count,)), frozenset({0})

        def draw(tape):
            result, _ = shift_and_round(tape, tape.snapshot(), counts, s, law, "noise", m, tail)
            assert result.report.draws_attempted == {0: 1}
            assert set(result.report.bits_by_category) == {"tail"}  # the sign bit at least
            return result.values

        n = 20_000
        hist, bits = collect_histogram(draw, n, 714)
        positive, negative = _tail_cell_probs(t, m, grid, center)
        # Both signs with probability 1/2; the grid is 2m, so their cells do not overlap.
        assert max(negative) < min(positive)
        joint = {cell: p / 2 for side in (positive, negative) for cell, p in side.items()}
        _assert_joint_law(hist, [joint])
        assert {v[0] >= min(positive) for v in hist} == {True, False}
        # One sign bit, then one locate over q^g1, q^(g1 + grid), ... on that side.
        # That locate is the interval algorithm, within H(cell | sign) + 3 bits
        # (Han and Hoshi); near an edge it exceeds H + 2 (3.53 > 3.37 at t=12, offset 0).
        q = math.exp(-1 / float(t))
        firsts = (min(positive) + grid - center - m, center - m - max(negative) + 1)
        sides = [[q ** (g + j * grid) for j in range(60)] for g in firsts]
        expected = 1 + sum(_locate_bits(thresholds) for thresholds in sides) / 2
        entropy = (_entropy_bits(positive) + _entropy_bits(negative)) / 2
        assert bits / n <= expected + 0.05
        assert expected <= 1 + entropy + 3

    def test_geometric_tail_encloses_q_to_the_g_at_far_keys(self):
        # t = 2**40 keeps q^g away from 0 for keys up to past 2**33, where
        # the power takes over thirty squarings of the enclosure of q.
        t = 2**40
        law = LaplaceCells(Fraction(t), 5)
        for g in (1, 255, 256, 65_535, 65_536, 2**24 + 3, 2**32 - 1, 2**32, 2**33 + 2**8 + 1):
            exact = math.exp(-g / t)
            for level in (0, 1):
                p, lo, hi, limit = law.geometric_tail(g, level)
                assert lo / 2**p <= exact * (1 + 1e-12)
                assert hi / 2**p >= exact * (1 - 1e-12)
                assert limit >= 40 << level


# Counts over several residues of each grid below, so that releases mix
# silent, boundary and (in pure mode) tail coordinates.
_MEMO_COUNTS = (0, 7, 19, 33, 44, 61, 80, 97, 120, 150)


def _seeded_batch(params, release, seeds):
    """Values and bits of one release per seed, each on a fresh tape."""
    out = []
    for seed in seeds:
        tape = BitTape(seed=seed)
        result = release(CountVector(params.d, 200, _MEMO_COUNTS), params, tape)
        out.append((result.values, tape.bits_consumed))
    return out


class TestRecordMemo:
    @pytest.mark.parametrize("mode", ["approx", "pure"])
    def test_memo_keeps_seeded_releases(self, mode, monkeypatch):
        def make():
            if mode == "approx":
                return approx_params_from_sigma(10, 2, Fraction(9), Fraction(1, 1024)), mech_approx_efficient
            return PureParams(10, 2, Fraction(1, 2), 18), lambda *args: mech_pure_efficient(*args)[0]

        seeds = range(1000, 1300)
        params, release = make()
        fresh = _seeded_batch(params, release, seeds)
        warm = _seeded_batch(params, release, seeds)
        monkeypatch.setattr(cs, "_MEMO_CAP", 1)
        tiny = _seeded_batch(*make(), seeds)
        assert fresh == warm == tiny
        _, ratios, tails, stays = params.cells._levels[0]
        # Boundary cells were drawn, and in pure mode tail cells and the tail set.
        assert ratios and bool(tails) == bool(stays) == (mode == "pure")

    def test_memo_stays_bounded(self):
        # Half-width 20 000 leaves 40 000 distinct tail-ratio keys; the
        # geometric tail and the any-tail powers have keys without end.
        law = LaplaceCells(Fraction(4096), 20_000)
        cap = cs._MEMO_CAP
        for k in range(-19_999, 20_001):
            law.tail_ratio(k, 0)
            law.geometric_tail(k + 20_000, 0)
            law.any_tail(k + 20_000, 0)
            memos = law._levels[0][1:]
            assert all(len(memo) <= cap for memo in memos)
        assert all(memos)


class TestRunStream:
    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("level_start", [64, 8, 4])
    def test_stream_matches_the_closure(self, name, make, weight, h, level_start, monkeypatch):
        # At 8-bit levels one unit of rounding in a level-0 product changes
        # the draw; 4-bit levels make the products too coarse within a few
        # keys, so runs refine partway along, a carried u among them. The
        # law's memo is shared by all queues, so the stream takes both its
        # hit and its miss path. Every tenth queue holds 120 keys, enough
        # departures to narrow u past _CARRY_BITS at 64-bit levels; at 8 and
        # 4 bits a departure at a key whose p rounds to 0 at level 0 starts
        # afresh too.
        monkeypatch.setattr(cs, "_LEVEL_START", level_start)
        rng = random.Random(f"{name}:{level_start}")
        law, closure_law = make(), make()
        seen = Counter()
        for case in range(300):
            keys = [rng.randrange(2 - h, h) for _ in range(rng.randrange(1, 40) if case % 10 else 120)]
            queued = rng.sample(range(2 * len(keys)), len(keys))
            grid = h * rng.randrange(2, 5)
            out = []
            for draw, *source in ((draw_runs, law), (reference.draw_runs, closure_law.tail_ratio, seen)):
                tape = BitTape(seed=case)
                values = [0] * 2 * len(keys)
                with tape.category("noise"):
                    draw(tape, source[0], grid, queued, keys, values, *source[1:])
                out.append((values, tape.bits_consumed, tape.draw_log))
            assert out[0] == out[1]
        assert (len(law._levels) > 1) == (level_start < 64)
        assert seen["fresh"] > 0
        assert (seen["carried refinement"] > 0) == (level_start < 64)
        assert (seen["p below level 0"] > 0) == (level_start < 64)

    def test_departure_below_level_zero_starts_afresh(self):
        # With sigma^2 = 1/2, p lies below 2**-64 from key 7 on. A tape of
        # ones puts u above every threshold below 1, so each of these keys
        # departs, after a refinement; B then rounds to 0 at level 0.
        law = GaussianCells(Fraction(1, 2), 12)
        assert law.tail_ratio(7, 0)[1] == 0 < law.tail_ratio(6, 0)[1]

        class Ones:
            bits_consumed = 0

            def next_bit(self):
                self.bits_consumed += 1
                return 1

        keys = [3, 7, -8, 9, 1, 10, -6]
        seen = Counter()
        out = []
        closure_law = GaussianCells(Fraction(1, 2), 12)
        for draw, *source in ((draw_runs, law), (reference.draw_runs, closure_law.tail_ratio, seen)):
            tape, values = Ones(), [0] * len(keys)
            draw(tape, source[0], 24, list(range(len(keys))), keys, values, *source[1:])
            out.append((values, tape.bits_consumed))
        assert out[0] == out[1]
        assert out[0][0] == [24 if k > 0 else -24 for k in keys]
        assert seen["p below level 0"] == seen["fresh"] == 4


def _threshold_bounds(thresholds):
    """Bounds of exact rational thresholds at the precision of ``cs._LEVEL_START`` when read."""

    def bounds(i, level):
        p = cs._LEVEL_START << level
        return cs.level_record(p, *rational_enclose(thresholds[i], p))

    return bounds


class TestSearch:
    @pytest.mark.parametrize("level_start", [64, 8, 4])
    def test_probe_order_keeps_the_count(self, level_start, monkeypatch):
        # Forced into order by a level-0 stream of the same records, the same
        # keys give the same count; at 64-bit levels the same bits too.
        # Thresholds of 200 bits, with runs of ties, make coarse levels refine.
        monkeypatch.setattr(cs, "_LEVEL_START", level_start)
        rng = random.Random(level_start)
        counts = []
        for case in range(400):
            n = rng.choice((1, 3, 4, 5, 9, 40, 300))
            draws = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(rng.randrange(1, n + 1))]
            thresholds = sorted(rng.choices(draws, k=n), reverse=True)
            # Skew towards 1 so that counts past the linear head are common.
            thresholds = [1 - (1 - x) ** 8 if case % 2 else x for x in thresholds]
            bounds = _threshold_bounds(thresholds)
            out = []
            for level0 in (None, (bounds(i, 0) for i in range(n))):
                tape = BitTape(seed=case)
                out.append((locate(tape, bounds, range(n), level0), tape.bits_consumed))
            if level_start == 64:
                assert out[0] == out[1]
            else:
                assert out[0][0] == out[1][0]
            counts.append(out[0][0])
        # Counts past the linear head, up to every key, were searched for.
        assert max(counts) == 300 and len([c for c in counts if c > 2 * cs._LINEAR_KEYS]) > 40

    def test_s1_tail_cells_search_their_keys(self, monkeypatch):
        # At s = 1 the grid is 1, so a tail cell is about t = d/eps keys out.
        params = derive_pure_params(Fraction(1), 1024, 1)
        counts = CountVector(1024, 10**6, tuple((7919 * i) % 10**6 for i in range(1024)))
        reads = []

        def counted_locate(tape, bounds, keys, level0=None):
            if bounds != params.cells.geometric_tail:
                return cs.locate(tape, bounds, keys, level0)
            reads.append(0)

            def counted(g, level):
                reads[-1] += 1
                return bounds(g, level)

            return cs.locate(tape, counted, keys, level0)

        monkeypatch.setattr(release, "locate", counted_locate)
        start = time.perf_counter()
        result, trace = mech_pure_efficient(counts, params, BitTape(seed=5))
        assert time.perf_counter() - start < 2
        assert len(reads) == trace.tail_size > 1000
        assert max(reads) <= 4 * math.log2(params.scale) + 8

    def test_tail_set_members_search_their_run(self):
        d = 10**5
        params = derive_pure_params(Fraction(1), d, 4)
        found = 0
        for seed in range(400):
            reads = 0

            def any_tail(j, level):
                nonlocal reads
                reads += 1
                return params.cells.any_tail(j, level)

            if sample_tail_set(BitTape(seed=seed), d, any_tail):
                found += 1
                assert reads <= 4 * math.log2(d) + 8
        assert found >= 3

    def test_tail_keys_end_past_every_comparison(self, monkeypatch):
        # u = 0 lies below every threshold it can be compared with: the
        # search runs out of precision, and raises, before it could return
        # the count of the whole key range, so the range truncates no law.
        # A 512-bit ceiling keeps the deepest level quick to build.
        monkeypatch.setattr(cs, "_LEVEL_MAX", 1 << 9)
        law = LaplaceCells(Fraction(12), 22)

        class Zeros:
            def next_bit(self):
                return 0

        keys = range(1, law.horizon + 44, 44)
        assert law.geometric_tail(keys[-1], 0)[1:3] == (0, 1)
        with pytest.raises(EnclosureContractError):
            locate(Zeros(), law.geometric_tail, keys)

    def test_extreme_scale_release_finishes(self):
        # t = 10**15: the tail cell is about 10**15 keys out, and the key
        # range is longer than sys.maxsize, so it is indexed, never measured.
        params = derive_pure_params(Fraction(1, 10**15), 1, 1)
        with pytest.raises(OverflowError):
            len(range(1, params.cells.horizon + 1))
        tape = BitTape(seed=3)
        result, trace = mech_pure_efficient(CountVector(1, 1, (0,)), params, tape)
        assert trace.tail_set == {0}
        assert 10**12 < abs(result.values[0]) < 10**18
        assert tape.bits_consumed < 200


def test_scale_validation():
    with pytest.raises(ParameterDomainError):
        GaussParam(Fraction(-1, 2))


def test_count_vector_is_a_validated_value():
    counts = CountVector(d=2, n=5, sums=(1, 5))
    assert counts == CountVector(2, 5, (1, 5)) != CountVector(2, 6, (1, 5))
    assert repr(counts) == "CountVector(d=2, n=5, sums=(1, 5))"
    assert pickle.loads(pickle.dumps(counts)) == copy.copy(counts) == counts
    for d, n, sums in ((0, 1, ()), (2, 1, (0,)), (1, -1, (0,)), (1, 1, (2,))):
        with pytest.raises(ParameterDomainError):
            CountVector(d, n, sums)
    with pytest.raises(TypeError):
        CountVector(2, 5)


_REPORT_ARGS = (3, {"shift": 1, "laplace": 2}, (0,), {0: 1})


def _config(**changes) -> tuple:
    """RunConfig arguments: a valid pure-mode invocation with ``changes`` applied."""
    fields = dict(mode="pure", epsilon=Fraction(1, 2), delta=None, s=2, seed=7,
                  input_path="in.csv", output_path=None)
    return tuple({**fields, **changes}.values())


# Each record type: its fields, a valid value, and invalid values with the error and message they raise.
_RECORDS = [
    (
        CountVector,
        "d n sums",
        (2, 5, (1, 5)),
        [((0, 1, ()), ParameterDomainError, "sums must have length d >= 1"),
         ((2, 1, (0,)), ParameterDomainError, "sums must have length d >= 1"),
         ((1, -1, (0,)), ParameterDomainError, "dataset size must be non-negative"),
         ((1, 1, (2,)), ParameterDomainError, "count 0 outside [0, n]")],
    ),
    (
        RandomnessReport,
        "bits_total bits_by_category boundary_coordinates draws_attempted",
        _REPORT_ARGS,
        [((4, {"shift": 1}, (), {}), InternalError, "category bit counts do not sum to the total")],
    ),
    (MechanismResult, "values report", ((3, 7), RandomnessReport(*_REPORT_ARGS)), []),
    (PureTrace, "tail_set shift", (frozenset({0, 2}), 4), []),
    (
        RunConfig,
        "mode epsilon delta s seed input_path output_path",
        _config(),
        [(_config(mode="both"), ParameterDomainError, "mode must be approx or pure"),
         (_config(mode="approx"), ParameterDomainError, "approx mode requires --delta"),
         (_config(delta=Fraction(1, 4)), ParameterDomainError, "pure mode forbids --delta"),
         (_config(s=0), ParameterDomainError, "s must be a positive integer")],
    ),
    (DiscreteDist, "mass deficit w", ({0: (1, 2), 4: (1, 2)}, Fraction(0), 2), []),
    (
        PrivacyAuditResult,
        "epsilon_hat delta_slack events_examined passed",
        (0.5, 0.0, 3, True),
        [((-0.5, 0.0, 3, True), ParameterDomainError, "epsilon_hat is non-negative by construction")],
    ),
]


@pytest.mark.parametrize("cls, fields, args, invalid", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_record_is_an_immutable_validated_namedtuple(cls, fields, args, invalid):
    assert issubclass(cls, tuple) and cls._fields == tuple(fields.split())
    record = cls(*args)
    assert record == cls(**dict(zip(cls._fields, args))) == args
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(cls._fields, args))})"
    for name in (cls._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert pickle.loads(pickle.dumps(record)) == copy.copy(record) == copy.deepcopy(record) == record
    if cls is PureTrace:
        assert record.tail_size == len(record.tail_set) == 2
    try:
        hash(args)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*args)) and record in {record}
    for bad, error, message in invalid:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cls(*bad)
        # Unpickling and copying build the record again, so they validate too.
        forged = tuple.__new__(cls, bad)
        for rebuild in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                rebuild(forged)

