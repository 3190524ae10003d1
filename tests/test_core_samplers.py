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
from frugaldp.approx_mech import derive_approx_params, mech_approx_efficient
from frugaldp.approx_mech import ApproxParams
from frugaldp.audit_harness import DiscreteDist, PrivacyAuditResult, _approx_noise, _pure_noise, _shift_laws
from frugaldp.bit_tape import BitTape
from frugaldp.cli import RunConfig
from frugaldp.core_samplers import GaussianCells, LaplaceCells, locate
from frugaldp.errors import EnclosureContractError, InternalError, ParameterDomainError
from frugaldp.precise_math import BoundedCache, exp_neg, rational_enclose
from frugaldp.pure_mech import PureParams, PureTrace, derive_pure_params, mech_pure_efficient
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


def _reach(law) -> int:
    """The noise values an oracle enumerates, |eta| < reach: the half-width of a
    truncated law, far enough out for an untruncated one that the rest is below 1e-100."""
    return 60 * law.halfwidth if isinstance(law, LaplaceCells) else law.halfwidth


def _cell_probs(weight, reach, center, grid):
    """Float oracle: law of floor_grid(center + eta) by enumerating |eta| < reach."""
    support = range(-(reach - 1), reach)
    z = sum(weight(eta) for eta in support)
    probs = {}
    for eta in support:
        cell = (center + eta) // grid * grid
        probs[cell] = probs.get(cell, 0.0) + weight(eta) / z
    return probs


def _release_cell(tape, law, s, count):
    """The value shift_and_round releases for one count, with the shift forced to the unit."""
    counts = CountVector(1, 100, (count,))
    result, _, _ = shift_and_round(tape, cs.Stream(tape), counts, law, law.halfwidth)
    return result.values[0]


def _assert_cell_law(hist, probs):
    assert set(hist) <= set(probs)
    n = sum(hist.values())
    observed = [hist.get(c, 0) for c in sorted(probs)]
    expected = [probs[c] * n for c in sorted(probs)]
    assert stats.chisquare(observed, expected).pvalue >= 0.001


# Each law is made for the s of the release it draws: its departures depend
# on both edges of the home cell whenever the law reaches both. At s = 1,
# count 3 puts the far edge 6 above the centre, which the noise reaches with
# chance about 3 % at sigma^2 = 9 and r = 9, and about 1e-4 at sigma^2 = 7/3.
_LAWS = [
    ("gaussian", lambda s=2: GaussianCells(Fraction(7, 3), 9, s, 1), _gauss_weight(Fraction(7, 3)), 9),
    ("laplace", lambda s=2: LaplaceCells(Fraction(5, 2), 11, s, 1), _laplace_weight(Fraction(5, 2)), 11),
    ("gaussian-far-edge", lambda s=2: GaussianCells(Fraction(9), 9, s, 1), _gauss_weight(Fraction(9)), 9),
]

# Releases of several coordinates, as (s, keys): with unit h and the shift
# forced to h, count (s - 1) h - k puts the edge s h at key k from the
# centre (home is the lower cell for k > 0, the upper one otherwise), and
# None is count 0, a silent coordinate (which the untruncated Laplace law
# also moves, rarely).
_RUNS = [
    (2, (1, 0, -1, 2, 0)),
    (2, (-1, 1, None, 0, 2, 1)),
    (3, (1, None, -1, 0, None, 2)),
]


def _run_case(law, weight, s, keys):
    """The counts of a _RUNS case and the exact cell law of each coordinate."""
    h = law.halfwidth
    sums = tuple(0 if k is None else (s - 1) * h - k for k in keys)
    laws = [_cell_probs(weight, _reach(law), c + h, h * s) for c in sums]
    if isinstance(law, LaplaceCells):  # cells below 1e-9 are left to the pooled bin
        laws = [{c: p for c, p in probs.items() if p >= 1e-9} for probs in laws]
    else:
        assert [len(probs) for probs in laws] == [1 if k is None else 2 for k in keys]
    return CountVector(len(sums), 4 * h * s, sums), laws


def _release_row(tape, law, s, counts):
    result, _, _ = shift_and_round(tape, cs.Stream(tape), counts, law, law.halfwidth)
    return result.values


def _assert_joint_law(hist, laws):
    """Chi-square of a joint histogram against the product of the cell laws."""
    joint = {}
    for row in itertools.product(*(sorted(probs.items()) for probs in laws)):
        joint[tuple(c for c, _ in row)] = math.prod(p for _, p in row)
    assert set(hist) <= set(joint)
    n = sum(hist.values())
    # Outcomes expecting fewer than 5 draws, and any mass the laws leave out, are pooled into one bin.
    big = [v for v in joint if joint[v] * n >= 5]
    observed = [hist.get(v, 0) for v in big]
    expected = [joint[v] * n for v in big]
    if len(big) < len(joint) or sum(observed) < n:
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
        support = range(-(_reach(law) - 1), _reach(law))
        z = sum(weight(eta) for eta in support)
        for k in range(-(h - 2), h):
            ratio = sum(weight(eta) for eta in range(k, _reach(law))) / z
            for level in (0, 1):
                p, lo, hi, limit = law.tail_ratio(k, level)
                assert lo / 2**p <= ratio * (1 + 1e-12)
                assert hi / 2**p >= ratio * (1 - 1e-12)
                assert limit >= 40 << level

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("center,grid", [(40, 20), (9, 10), (50, 9)])
    def test_cell_law_matches_enumeration(self, name, make, weight, h, center, grid):
        # The comparator alone, for grids the release never uses: grid 20
        # leaves one edge in the window, 10 and 9 leave two (three cells);
        # the untruncated law reaches every edge out to its oracle's reach.
        law = make()
        reach = _reach(law)
        low = (center - (reach - 1)) // grid * grid
        keys = range(low + grid - center, reach, grid)
        n = 40_000
        hist, bits = collect_histogram(lambda t: low + grid * locate(cs.Stream(t), law.tail_ratio, keys), n, 708)
        probs = _cell_probs(weight, reach, center, grid)
        _assert_cell_law(hist, probs)
        assert bits / n <= 2 * (len(probs) - 1) + 1

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("s,count,cells", [(1, 0, 2), (1, 3, 3), (2, 3, 2)])
    def test_release_cell_law_matches_enumeration(self, name, make, weight, h, s, count, cells):
        # Unit h and the shift forced to h put the window at (count, count + 2h):
        # one edge in it for count 0 at s = 1 and count 3 at s = 2, two for count 3 at s = 1.
        # The untruncated law also reaches cells past the window, rarely.
        law = make(s)
        probs = _cell_probs(weight, _reach(law), count + h, h * s)
        assert isinstance(law, LaplaceCells) or len(probs) == cells
        n = 40_000
        hist, bits = collect_histogram(lambda t: _release_cell(t, law, s, count), n, 708)
        _assert_cell_law(hist, probs)
        assert bits / n <= 2 * (cells - 1) + 1

    @pytest.mark.parametrize("s", [1, 2])
    def test_gaussian_departure_encloses_both_edges(self, s):
        # Exact rational bounds of every weight, at 200 bits: p(k') = (S(k') +
        # S(grid + 1 - k')) / Z, and the chance that a departure crosses the
        # far edge, beyond(k', 1) = S(grid + 1 - k') / (Z p(k')), 0 at s >= 2.
        sigma_sq, r, w = Fraction(9), 9, 200
        law = GaussianCells(sigma_sq, r, s, 1)
        assert law.tails == (s == 1)
        weight = [exp_neg(Fraction(eta * eta) / (2 * sigma_sq), w) for eta in range(r)]

        def tail(k):  # 2**w times the bounds of S(k), the weight of k <= eta < r
            return tuple(sum(weight[abs(eta)][i] for eta in range(k, r)) for i in (0, 1))

        def crossing(k, level):  # beyond(k', 1): the first of a departure's beyond keys
            return law.beyond(law.beyond_keys(k)[0], level)

        z = tail(1 - r)
        crossings = []
        for k in range(1, r):
            near, far = tail(k), tail(law.grid + 1 - k)
            total = near[0] + far[0], near[1] + far[1]
            exact = [
                (law.departure, Fraction(total[0], z[1]), Fraction(total[1], z[0])),
                (crossing, Fraction(far[0], total[1]), Fraction(far[1], total[0])),
            ]
            for level in (0, 1):
                for record, lo, hi in exact:
                    p, r_lo, r_hi, limit = record(k, level)
                    assert Fraction(r_lo, 1 << p) <= hi and lo <= Fraction(r_hi, 1 << p)
                    assert limit >= 40 << level
            crossings.append(exact[1][1])
        assert (max(crossings) > Fraction(1, 10)) == (s == 1)

    def test_silent_window_draws_nothing(self):
        # center 27 on grid 18: the window (19, 35) holds no edge.
        law = GaussianCells(Fraction(7, 3), 9, 2, 1)
        tape = BitTape(seed=709)
        assert _release_cell(tape, law, 2, 18) == 18
        assert tape.bits_consumed == 0

    def test_refinement_keeps_the_law(self, monkeypatch):
        # Start at 4-bit levels so that most draws must refine their enclosure.
        monkeypatch.setattr(cs, "_LEVEL_START", 4)
        law = LaplaceCells(Fraction(5, 2), 11, 1, 1)
        n = 20_000
        hist, _ = collect_histogram(lambda t: _release_cell(t, law, 1, 3), n, 710)
        assert len(law._levels) >= 2
        _assert_cell_law(hist, _cell_probs(_laplace_weight(Fraction(5, 2)), _reach(law), 14, 11))

    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("s,keys", _RUNS)
    def test_run_law_matches_the_product_of_cell_laws(self, name, make, weight, h, s, keys):
        law = make(s)
        counts, laws = _run_case(law, weight, s, keys)
        hist, _ = collect_histogram(lambda t: _release_row(t, law, s, counts), 40_000, 712)
        _assert_joint_law(hist, laws)
        boundary = [i for i, k in enumerate(keys) if k is not None]
        # Departures at the first, every middle and the last boundary coordinate,
        # and releases that keep every coordinate home; under the untruncated
        # law a silent coordinate may depart first too.
        first = _first_departures(hist, counts, law, s)
        assert first >= {*boundary, None} and (isinstance(law, LaplaceCells) or first == {*boundary, None})

    def test_refinement_mid_run_keeps_the_law(self, monkeypatch):
        # 4-bit levels: the running products widen within a few coordinates,
        # so draws refine partway along a run and rebuild that level's prefix.
        monkeypatch.setattr(cs, "_LEVEL_START", 4)
        law = LaplaceCells(Fraction(5, 2), 11, 2, 1)
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
                    report = mech_approx_efficient(counts, params, tape, omega).report
                else:
                    report = mech_pure_efficient(counts, params, tape, omega)[0].report
                expected = [i for i, s_i in enumerate(counts.sums) if not is_silent(s_i, omega, unit, grid)]
                assert list(report.boundary_coordinates) == expected

    def test_halfwidth_validation(self):
        with pytest.raises(ParameterDomainError):
            GaussianCells(Fraction(2), 0, 1, 1)

    def test_integer_laplace_scale_is_exact(self):
        # An int t must not reach the law as the float 1/t.
        keys = range(-6, 7)
        exact = LaplaceCells(Fraction(3), 7, 2, 1)
        assert [LaplaceCells(3, 7, 2, 1).tail_ratio(k, 0) for k in keys] == [exact.tail_ratio(k, 0) for k in keys]


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
        # Past the centre the untruncated tail is geometric: P[eta >= g] = q^g / (1 + q).
        law = LaplaceCells(t, m, 2, 1)
        q = math.exp(-1 / float(t))
        for g in range(1, 12 * m):
            exact = q**g / (1 + q)
            for level in (0, 1):
                p, lo, hi, limit = law.tail_ratio(g, level)
                assert lo / 2**p <= exact * (1 + 1e-12)
                assert hi / 2**p >= exact * (1 - 1e-12)
                assert limit >= 40 << level

    @pytest.mark.parametrize("t,m", _TAIL_LAWS)
    @pytest.mark.parametrize("offset", [0, 1, -1])
    def test_cell_law_matches_the_geometric_tail(self, t, m, offset):
        # s = 2 and the shift forced to m put the centre at count + m. Offset
        # 0 puts c + m and c - m on grid edges; 1 and -1 put them just past
        # and just short of one, so the coordinate is on a boundary or silent.
        # Either way it departs now and then, to cells on both sides and past
        # the adjacent ones, and one locate over cells.beyond draws which.
        s, grid = 2, 2 * m
        count = 2 * grid + offset
        center = count + m
        law = LaplaceCells(t, m, s, 1)
        counts = CountVector(1, 4 * grid, (count,))

        def draw(tape):
            result, _, _ = shift_and_round(tape, cs.Stream(tape), counts, law, m)
            assert set(result.report.bits_by_category) == {"laplace"}
            return result.values

        n = 20_000
        hist, bits = collect_histogram(draw, n, 714)
        probs = _cell_probs(_laplace_weight(t), _reach(law), center, grid)
        _assert_joint_law(hist, [{c: p for c, p in probs.items() if p >= 1e-9}])
        home = center // grid * grid
        assert {home - 2 * grid, home - grid, home + grid, home + 2 * grid} <= {v[0] for v in hist}
        # One carried uniform for the run and the departure's cell: within
        # H(cell) + 3 bits (Han and Hoshi), and past H + 1 only by the price of
        # a key compared afresh.
        assert bits / n <= _entropy_bits(probs) + 3

    def test_geometric_tail_encloses_q_to_the_g_at_far_keys(self):
        # t = 2**40 keeps q^g away from 0 for keys up to past 2**33, where
        # the power takes over thirty squarings of the enclosure of q.
        t = 2**40
        law = LaplaceCells(Fraction(t), 5, 2, 1)
        for g in (1, 255, 256, 65_535, 65_536, 2**24 + 3, 2**32 - 1, 2**32, 2**33 + 2**8 + 1):
            exact = math.exp(-g / t) / (1 + math.exp(-1 / t))
            for level in (0, 1):
                p, lo, hi, limit = law.tail_ratio(g, level)
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
        # Memos of one record, whatever cap the law asks for: each new key empties them.
        monkeypatch.setattr(cs, "BoundedCache", lambda cap: BoundedCache(1))
        tiny = _seeded_batch(*make(), seeds)
        assert fresh == warm == tiny
        data, departures = params.cells._levels[0]
        # Boundary cells were drawn from the departure memo; in pure mode their
        # cells also read the tail ratios, which the Laplace law memoizes apart.
        assert departures and (mode == "approx" or data[-1])

    def test_memo_stays_bounded(self, monkeypatch):
        # Half-width 20 000 on a grid of 40 000 leaves 40 000 distinct
        # departure keys, past a cap of 2**14; tail ratios have keys without end.
        monkeypatch.setattr(cs, "_MEMO_CAP", 1 << 14)
        law = LaplaceCells(Fraction(4096), 20_000, 2, 1)
        cap = cs._MEMO_CAP
        for k in range(-19_999, 20_001):
            law.tail_ratio(k, 0)
            law.departure(k + 20_000, 0)
            memos = law._levels[0][1], law._levels[0][0][-1]
            assert all(len(memo) <= cap for memo in memos)
        assert all(memos)

    def test_gaussian_memo_stays_bounded_and_rereads_equal(self):
        # At s = 1 a level reads r - 1 departure keys and as many beyond keys,
        # past _MEMO_CAP here: the memo empties on the way, as every law's
        # does, and a record read again after that equals its first read.
        r = cs._MEMO_CAP // 2 + 2
        law = GaussianCells(Fraction(r * r, 16), r, 1, 1)
        memo, first = law._levels[0][1], {}
        for k in range(1, r):
            first[k] = law.departure(k, 0)
            key = law.beyond_keys(k)[0]
            first[key] = law.beyond(key, 0)
            assert len(memo) <= cs._MEMO_CAP
        assert len(first) == 2 * (r - 1) > cs._MEMO_CAP and 1 not in memo
        for key, rec in first.items():
            assert (law.departure(key, 0) if key > 0 else law.beyond(key, 0)) == rec


def _on_stream(tape, *args) -> tuple[int, int, int, int]:
    """The package's draw_runs on a fresh stream from ``tape``; the level-0 bounds of A and B it leaves."""
    stream = cs.Stream(tape)
    draw_runs(stream, *args)
    return stream.a_lo, stream.a_hi, stream.b_lo, stream.b_hi


class _NearerCells(LaplaceCells):
    """The Laplace law's departures, each across its nearer edge: the runs alone, as the closure draws them."""

    tails = False


class TestRunStream:
    @pytest.mark.parametrize("name,make,weight,h", _LAWS)
    @pytest.mark.parametrize("level_start", [cs._LEVEL_START, 8, 4])
    def test_stream_matches_the_closure(self, name, make, weight, h, level_start, monkeypatch):
        # At 8-bit levels one unit of rounding in a level-0 product changes
        # the draw; 4-bit levels make the products too coarse within a few
        # keys, so runs refine partway along, a carried u among them. The
        # law's memo is shared by all queues, so the stream takes both its
        # hit and its miss path. Every tenth queue holds 4 * _CARRY_BITS
        # keys, enough departures to narrow u past _CARRY_BITS at the
        # package's levels; at 8 and 4 bits a departure at a key whose p
        # rounds to 0 at level 0 starts afresh too. Each queue draws on a
        # fresh stream, as a release's cells do at a forced shift or after a
        # drawn one at a power-of-two s.
        coarse = level_start < cs._LEVEL_START
        monkeypatch.setattr(cs, "_LEVEL_START", level_start)
        rng = random.Random(f"{name}:{level_start}")
        law, closure_law = make(), make()
        if law.tails:  # the closure draws no departure's cell; t = 3/2 puts p(10) below 2**-8
            law, closure_law = _NearerCells(Fraction(3, 2), h, 2, 1), _NearerCells(Fraction(3, 2), h, 2, 1)
        seen = Counter()
        for case in range(300):
            keys = [rng.randrange(2 - h, h) for _ in range(rng.randrange(1, 40) if case % 10 else 4 * cs._CARRY_BITS)]
            queued = rng.sample(range(2 * len(keys)), len(keys))
            grid = h * rng.randrange(2, 5)
            out = []
            for draw, *source in ((_on_stream, law), (reference.draw_runs, closure_law.departure, seen)):
                tape = BitTape(seed=case)
                values = [0] * 2 * len(keys)
                tape.charge("noise")
                carried = draw(tape, source[0], grid, queued, keys, values, *source[1:])
                out.append((values, tape.bits_consumed, tape.draw_log, carried))
            assert out[0] == out[1]
        assert (len(law._levels) > 1) == coarse
        assert seen["fresh"] > 0
        assert (seen["carried refinement"] > 0) == coarse
        assert (seen["p below level 0"] > 0) == coarse

    def test_departure_below_level_zero_starts_afresh(self):
        # With sigma^2 = 1/2, p lies below 2**-_LEVEL_START from key z on
        # (z = 10 at 128-bit levels). A tape of ones puts u above every
        # threshold below 1, so each of these keys departs, after a
        # refinement; B then rounds to 0 at level 0.
        law = GaussianCells(Fraction(1, 2), 24, 2, 1)
        z = next(k for k in range(1, law.halfwidth) if law.tail_ratio(k, 0)[1] == 0)
        assert z + 3 < law.halfwidth

        class Ones:
            bits_consumed = 0

            def next_bit(self):
                self.bits_consumed += 1
                return 1

        keys = [3, z, -z - 1, z + 2, 1, z + 3, 1 - z]  # k' = 3, z, z + 2, z + 2, 1, z + 3, z
        seen = Counter()
        out = []
        closure_law = GaussianCells(Fraction(1, 2), 24, 2, 1)
        for draw, *source in ((_on_stream, law), (reference.draw_runs, closure_law.tail_ratio, seen)):
            tape, values = Ones(), [0] * len(keys)
            carried = draw(tape, source[0], law.grid, list(range(len(keys))), keys, values, *source[1:])
            out.append((values, tape.bits_consumed, carried))
        assert out[0] == out[1]
        assert out[0][0] == [law.grid if k > 0 else -law.grid for k in keys]
        assert seen["p below level 0"] == seen["fresh"] == 4


def _pure_desk(d=4):
    """Pure mode at t = 5/2 and m = 4 (p about 0.2), counts whose coordinates all sit on a boundary at shift m."""
    return PureParams(d, 2, Fraction(2 * d, 5), 4), (1, 2, 3, 9)[:d]


def _approx_windows():
    """Approx mode at s = 1 and r = 6 with sigma^2 = 9: homes with both edges within reach, and two with one."""
    return ApproxParams(4, 1, Fraction(9), 6), (0, 2, 3, 12)


def _exact_laws(params, sums):
    """Each coordinate's cell law at the shift forced to the unit, from ``audit_harness._shift_laws``."""
    if isinstance(params, PureParams):
        noise = _pure_noise(params, Fraction(1, 1 << 40), 64)
    else:
        noise = _approx_noise(params, 64)
    laws, scale = _shift_laws(sums, params, noise, 64)
    return [{g: (lo + hi) / 2 ** (scale + 1) for g, (lo, hi) in law.items()} for law in laws[0]]


class TestCarriedStream:
    @pytest.mark.parametrize("mode", ["pure", "approx"])
    @pytest.mark.parametrize("level_start", [4, 8])
    def test_refined_carried_draws_keep_the_joint_law(self, mode, level_start, monkeypatch):
        # At 4- and 8-bit levels the runs and the departures' cells (in approx
        # mode, a side of the home cell) refine on a stream that already
        # carries u, so A and B are rebuilt at finer levels from the draws
        # since the last fresh start (Stream.level, Stream.scaled). Neither
        # case has a block (K = m = 4, and K = r at s = 1); a block's coarse
        # key refines in test_bit_tree's 8-bit approx quiet desk case.
        # The whole release must still follow the product of the exact laws.
        make = _pure_desk if mode == "pure" else _approx_windows
        laws = _exact_laws(*make())
        monkeypatch.setattr(cs, "_LEVEL_START", level_start)
        params, sums = make()
        counts = CountVector(len(sums), 100, sums)
        unit = params.grid // params.s
        if mode == "pure":
            release = lambda tape: mech_pure_efficient(counts, params, tape, unit)[0].values
        else:
            release = lambda tape: mech_approx_efficient(counts, params, tape, unit).values
        refined = Counter()
        level = cs.Stream.level

        def counted(stream, j):
            refined[bool(stream.history)] += 1
            return level(stream, j)

        monkeypatch.setattr(cs.Stream, "level", counted)
        hist, _ = collect_histogram(release, 20_000, 41 + level_start)
        assert refined[True] > 100  # carried draws refined
        _assert_joint_law(hist, laws)

    @pytest.mark.parametrize("mode", ["pure", "approx"])
    def test_level_zero_carry_replays_its_history(self, mode):
        # Every draw carries u in locate, from the level-0 records that
        # settled its count; Stream.level replays the same draws through
        # _narrow at finer levels. Folding the history since the last fresh
        # start through _narrow at level 0 must then enclose the same A and B
        # as the stream's own: a run's live records are chained from its B,
        # the replay scales the run's unscaled product by B, so the two
        # roundings differ by a few units, but both hold the exact values.
        params, sums = (_pure_desk if mode == "pure" else _approx_windows)()
        counts = CountVector(len(sums), 100, sums)
        one = 1 << cs._LEVEL_START
        kinds, folds = Counter(), Counter()
        for seed in range(400):
            tape = BitTape(seed=seed)
            stream = cs.Stream(tape)
            shift_and_round(tape, stream, counts, params.cells)
            ab = 0, 0, one, one
            for bounds, keys, count in stream.history:
                ab = cs._narrow(0, *ab, bounds, keys, count)
                name = getattr(bounds, "__name__", "")
                kinds[name if name != "bounds" else "departed" if count < len(keys) else "stayed"] += 1
            live = stream.a_lo, stream.a_hi, stream.b_lo, stream.b_hi
            assert ab[0] <= live[1] and live[0] <= ab[1] and ab[2] <= live[3] and live[2] <= ab[3], (seed, ab, live)
            folds[ab == live] += 1
        # Each departure draws its cell (both laws have tails here); most folds are equal.
        assert kinds["departed"] > 100 and kinds["beyond"] == kinds["departed"] and kinds["stayed"] > 100
        assert folds[True] > folds[False]


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
                out.append((locate(cs.Stream(tape), bounds, range(n), level0), tape.bits_consumed))
            if level_start == 64:
                assert out[0] == out[1]
            else:
                assert out[0][0] == out[1][0]
            counts.append(out[0][0])
        # Counts past the linear head, up to every key, were searched for.
        assert max(counts) == 300 and len([c for c in counts if c > 2 * cs._LINEAR_KEYS]) > 40

    @pytest.mark.parametrize("kind", [range, list])
    def test_probes_continue_a_carried_uniform(self, kind):
        # A stream that already holds bits of u, and an offset A at every
        # level, hands its box from the in-order head to the probes. Forced
        # into order by a level-0 stream of the same records, the draw reads
        # the same bits and leaves the stream the same u, A and B: either way
        # it carries u into its count's interval from the level-0 records
        # that settled the count. Up to _LEVEL_START + 36 bits held are more
        # than level 0 can compare at, so some draws refine before their
        # first key.
        rng = random.Random(kind.__name__)
        levels = range((cs._LEVEL_MAX // cs._LEVEL_START).bit_length())
        counts, levels_read = [], set()
        for case in range(200):
            n = rng.choice((5, 9, 40, 300))
            start = rng.randrange(-3, 4)
            keys = range(start, start + 7 * n, 7) if kind is range else [start + 7 * i for i in range(n)]
            offset = Fraction(rng.getrandbits(200), 1 << 202)
            held = rng.randrange(cs._LEVEL_START + 37)
            # u's held bits are those of A plus a uniform on [0, 1 - A), so u - A lies in [0, 1).
            u = offset + (1 - offset) * Fraction(rng.getrandbits(200), 1 << 200)
            draws = [Fraction(rng.getrandbits(200), 1 << 200) for _ in range(rng.randrange(1, n + 1))]
            thresholds = sorted(rng.choices(draws, k=n), reverse=True)
            thresholds = [1 - (1 - x) ** 8 if case % 2 else x for x in thresholds]
            by_key = dict(zip(keys, thresholds))

            def bounds(key, level):
                levels_read.add(level)
                p = cs._LEVEL_START << level
                return cs.level_record(p, *rational_enclose(by_key[key], p))

            out = []
            for level0 in (None, (bounds(k, 0) for k in keys)):
                tape = BitTape(seed=case)
                stream = cs.Stream(tape)
                stream.u, stream.n = math.floor(u * 2**held), held
                # A at every level, and B = 1, so that the draw of its own
                # thresholds compares the same records as the level-0 stream.
                maps = [(*rational_enclose(offset, p), 1 << p, 1 << p) for p in (cs._LEVEL_START << j for j in levels)]
                (stream.a_lo, stream.a_hi, stream.b_lo, stream.b_hi), stream.levels = maps[0], maps[1:]
                count = locate(stream, bounds, keys, level0)
                carried = stream.a_lo, stream.a_hi, stream.b_lo, stream.b_hi
                out.append((count, tape.bits_consumed, stream.u, stream.n, carried))
            assert out[0] == out[1]
            assert out[0][3] == held + out[0][1]
            counts.append(out[0][0])
        assert max(counts) == 300 and len([c for c in counts if c > 2 * cs._LINEAR_KEYS]) > 20
        assert levels_read == {0, 1}

    def test_probes_per_count_are_logarithmic(self):
        # Thresholds of 1 then 0 make the count c without reading a bit, so
        # every count up to every key above u is reached, and the keys read
        # are the probe driver's alone: the head, a gallop past c and a
        # bisection back to it. (c + 1).bit_length() is ceil(log2(c + 2)).
        rng = random.Random(11)
        for n in (1, 4, 5, 8, 100, 1023, 10**6):
            chosen = {*range(min(n, 70)), *(c for b in range(n.bit_length()) for c in (2**b - 1, 2**b, 2**b + 1))}
            chosen |= {n - 1, n, *(rng.randrange(n + 1) for _ in range(20))}
            for c in sorted(x for x in chosen if 0 <= x <= n):
                reads = 0

                def bounds(key, level):
                    nonlocal reads
                    reads += level == 0
                    p = cs._LEVEL_START << level
                    return cs.level_record(p, *((1 << p, 1 << p) if key < c else (0, 0)))

                assert locate(cs.Stream(BitTape(seed=0)), bounds, range(n)) == c
                assert reads <= cs._LINEAR_KEYS + 2 * (c + 1).bit_length() + 2, (n, c, reads)

    def test_s1_tail_cells_search_their_keys(self, monkeypatch):
        # At s = 1 the grid is 1, so nearly every coordinate departs, to a
        # cell about t = d/eps keys out.
        params = derive_pure_params(Fraction(1), 1024, 1)
        counts = CountVector(1024, 10**6, tuple((7919 * i) % 10**6 for i in range(1024)))
        reads = []

        def counted_locate(tape, bounds, keys, level0=None):
            if bounds != params.cells.beyond:
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

    def test_tail_keys_end_past_every_comparison(self):
        # u = 0 lies below every threshold it can be compared with: the
        # search runs out of precision, and raises, before it could return
        # the count of the whole key range, so the range truncates no law.
        law = LaplaceCells(Fraction(12), 22, 2, 1)

        class Zeros:
            def next_bit(self):
                return 0

        keys, beyond = law.beyond_keys(5), law.beyond
        assert beyond(keys[-1], 0)[1] == 0
        with pytest.raises(EnclosureContractError):
            locate(cs.Stream(Zeros()), beyond, keys)

    def test_extreme_scale_release_finishes(self):
        # t = 10**15: the departure's cell is about 10**15 keys out, and the key
        # range is longer than sys.maxsize, so it is indexed, never measured.
        # At t = 10**30 the chance to stay, 1/(2t), rounds to 0 at level 0.
        for t in (10**15, 10**30):
            params = derive_pure_params(Fraction(1, t), 1, 1)
            with pytest.raises(OverflowError):
                len(params.cells.beyond_keys(1))
            tape = BitTape(seed=3)
            result, trace = mech_pure_efficient(CountVector(1, 1, (0,)), params, tape)
            assert trace.departed == (0,)
            assert t // 1000 < abs(result.values[0]) < t * 1000
            assert tape.bits_consumed < 200


def _booked(tape, release):
    """Run ``release(tape)``; assert that its report books the tape's bits over the call, by category."""
    bits, log = tape.bits_consumed, tape.draw_log
    report = release(tape).report
    after = tape.draw_log
    assert report.bits_by_category == {c: n - log[c] for c, n in after.items() if n != log[c]}
    assert 0 not in report.bits_by_category.values()
    assert sum(report.bits_by_category.values()) == report.bits_total == tape.bits_consumed - bits
    return report


_DESK = CountVector(3, 100, (17, 50, 93))


def _desk_release(mode, forced=False):
    """A desk release of the counts 17, 50 and 93 at s = 2, the shift drawn or forced to the unit."""
    if mode == "approx":
        params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2)
        return lambda tape: mech_approx_efficient(_DESK, params, tape, params.r if forced else None)
    params = derive_pure_params(Fraction(1, 4), 3, 2)
    return lambda tape: mech_pure_efficient(_DESK, params, tape, params.m if forced else None)[0]


class TestLedger:
    """A release's ``bits_by_category`` is the change in its tape's ``draw_log`` over the call."""

    @pytest.mark.parametrize("mode,category", [("approx", "gaussian"), ("pure", "laplace")])
    def test_drawn_and_forced_shifts(self, mode, category):
        drawn, forced = _desk_release(mode), _desk_release(mode, forced=True)
        seen = set()
        for seed in range(200):
            report = _booked(BitTape(seed=seed), drawn)
            assert "shift" in report.bits_by_category  # a 2-way shift reads a bit at least
            seen.update(_booked(BitTape(seed=seed), forced).bits_by_category)
        assert seen == {category}

    def test_approx_with_tails(self):
        params, sums = _approx_windows()
        assert params.cells.tails
        counts = CountVector(len(sums), 100, sums)
        for seed in range(200):
            report = _booked(BitTape(seed=seed), lambda tape: mech_approx_efficient(counts, params, tape))
            assert set(report.bits_by_category) == {"gaussian"}  # s = 1: the shift reads nothing

    def test_pure_silent_departure(self):
        # At the shift m = 4 on grid 8, count 0 is silent (no edge in (1, 7]) and count 3 is on a
        # boundary; with t = 5/2 the silent coordinate departs about one time in five.
        params = PureParams(2, 2, Fraction(4, 5), 4)
        counts = CountVector(2, 100, (0, 3))
        traces = []

        def release(tape):
            result, trace = mech_pure_efficient(counts, params, tape, 4)
            traces.append(trace)
            return result

        for seed in range(200):
            assert _booked(BitTape(seed=seed), release).boundary_coordinates == (1,)
        assert sum(0 in trace.departed for trace in traces) > 10

    def test_reused_tape_keeps_the_callers_category(self):
        tape = BitTape(seed=5)
        tape.next_bits(2)
        tape.charge("caller")
        tape.next_bits(3)
        for mode in ("approx", "pure"):
            _booked(tape, _desk_release(mode))
        tape.next_bit()
        assert tape.charge("other") == "caller"
        log = tape.draw_log
        assert log["uncategorized"] == 2 and log["caller"] == 4 and log["shift"] > 0
        assert sum(log.values()) == tape.bits_consumed


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
    (PureTrace, "departed shift tail_size", ((0, 2), 4, 1), []),
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

