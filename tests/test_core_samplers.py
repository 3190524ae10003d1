"""Tests for the exact primitive samplers.

Every asserted probability is computed from an independent oracle first
(closed-form evaluation or truncated normalization with float math) and
compared against seeded empirical frequencies.
"""

import math
from fractions import Fraction

import pytest

from scipy import stats

import frugaldp.core_samplers as cs
from frugaldp.audit_harness import two_sample_chi_square
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import (
    GaussianCells,
    GaussParam,
    LaplaceCells,
    LaplaceScale,
    RefinableProb,
    _truncated_attempts,
    bernoulli_from_prob,
    discrete_gaussian,
    discrete_laplace,
    draw_cell,
    geometric_fast,
    laplace_tail_sample,
)
from frugaldp.errors import ParameterDomainError, SampleBudgetError
from frugaldp.precise_math import IntervalValue, exp_neg

from conftest import collect_histogram


def _bernoulli_exp_oracle(gamma):
    """RefinableProb for 1 - exp(-1/gamma)."""
    return RefinableProb(lambda p: IntervalValue.exact(1) - exp_neg(1 / Fraction(gamma), p))


def _constant_oracle(value):
    return RefinableProb(lambda p: IntervalValue.from_fraction(value, p))


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
        scale = LaplaceScale(2)
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 100_000, 201)
        n = sum(hist.values())
        assert abs(hist[0] / n - (1 - math.exp(-0.5))) <= 0.01

    def test_successive_ratio(self):
        scale = LaplaceScale(2)
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 100_000, 202)
        for k in range(3):
            ratio = hist[k + 1] / hist[k]
            assert abs(ratio - math.exp(-0.5)) <= 0.03

    def test_tiny_scale_collapses_to_zero(self):
        scale = LaplaceScale(Fraction(1, 64))
        hist, _ = collect_histogram(lambda t: geometric_fast(t, scale), 10_000, 203)
        assert set(hist) == {0}  # P[nonzero] <= exp(-64)

    def test_matches_exact_pmf(self):
        # The non-integer scale 7/2 exercises the residue and divisor paths.
        for seed, t in ((204, Fraction(2)), (205, Fraction(7, 2))):
            scale = LaplaceScale(t)
            hist, _ = collect_histogram(lambda tp: geometric_fast(tp, scale), 30_000, seed)
            assert _chi_square_against(hist, _geometric_pmf(t)) >= 0.001

    def test_fast_uses_fewer_bits_at_large_scale(self):
        # Flipping coins until the first success takes 1/(1 - exp(-1/t)) > t
        # trials on average, at least one bit each.
        scale = LaplaceScale(128)
        _, fast_bits = collect_histogram(lambda t: geometric_fast(t, scale), 2_000, 207)
        assert fast_bits / 2_000 < 128 / 5

    def test_residue_cache_stays_bounded(self):
        # At t = 4 096 000 nearly every attempt draws a new residue: 5 000
        # draws ask for about 8 000 acceptance oracles.
        scale = LaplaceScale(4_096_000)
        cap = scale._residues.cap
        tape = BitTape(seed=208)
        for _ in range(5_000):
            geometric_fast(tape, scale)
            assert len(scale._residues) <= cap


class TestDiscreteLaplace:
    def test_mass_at_zero(self):
        scale = LaplaceScale(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 301)
        n = sum(hist.values())
        expected = (math.e - 1) / (math.e + 1)
        assert abs(hist[0] / n - expected) <= 0.01

    def test_symmetry(self):
        scale = LaplaceScale(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 302)
        n = sum(hist.values())
        for k in (1, 2, 3):
            assert abs(hist[k] / n - hist[-k] / n) <= 0.01

    def test_tail_mass(self):
        # P[X >= m] = exp(-eps(m-1)) / (e^eps + 1) at scale 1/eps; eps=1, m=3.
        scale = LaplaceScale(1)
        hist, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 100_000, 303)
        n = sum(hist.values())
        tail = sum(c for k, c in hist.items() if k >= 3) / n
        expected = math.exp(-2) / (math.e + 1)
        assert abs(tail - expected) <= 0.005

    def test_bit_cost_grows_polylog(self):
        means = []
        for seed, t in enumerate((2, 8, 32, 128)):
            scale = LaplaceScale(t)
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
        scale = LaplaceScale(2)
        base, _ = collect_histogram(lambda t: discrete_laplace(t, scale), 20_000, 601)
        trunc, _ = collect_histogram(
            _truncated(lambda tp: discrete_laplace(tp, scale), 10**9), 20_000, 602
        )
        assert two_sample_chi_square(base, trunc) >= 0.001

    def test_bound_one_pins_to_zero(self):
        scale = LaplaceScale(1)
        hist, _ = collect_histogram(_truncated(lambda tp: discrete_laplace(tp, scale), 1), 2_000, 603)
        assert set(hist) == {0}

    def test_conditional_pmf(self):
        # Renormalized oracle over {-2..2} for Lap_Z(2) conditioned |X| < 3.
        scale = LaplaceScale(2)
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
        monkeypatch.setattr(cs, "ATTEMPT_CAP", 50)
        tape = BitTape(seed=605)
        with pytest.raises(SampleBudgetError):
            _truncated_attempts(tape, lambda t: 7, 1)


class TestLaplaceTailSample:
    def test_sign_balance(self):
        scale = LaplaceScale(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 100_000, 701)
        n = sum(hist.values())
        positive = sum(c for k, c in hist.items() if k > 0) / n
        assert abs(positive - 0.5) <= 0.01

    def test_support_excludes_body(self):
        scale = LaplaceScale(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 200_000, 702)
        assert min(abs(k) for k in hist) == 3

    def test_geometric_ratio_from_threshold(self):
        scale = LaplaceScale(2)
        hist, _ = collect_histogram(lambda t: laplace_tail_sample(t, scale, 3), 100_000, 703)
        ratio = hist[3] / hist[4]
        assert abs(ratio - math.exp(0.5)) <= 0.06

    def test_memorylessness_matches_geometric(self):
        # The excess over the threshold is exactly Geo(1 - exp(-1/t)).
        for seed, t in ((704, Fraction(2)), (705, Fraction(7, 2))):
            scale = LaplaceScale(t)
            excess, _ = collect_histogram(
                lambda tp: abs(laplace_tail_sample(tp, scale, 5)) - 5, 50_000, seed
            )
            assert _chi_square_against(excess, _geometric_pmf(t)) >= 0.001

    def test_threshold_validation(self):
        tape = BitTape(seed=706)
        with pytest.raises(ParameterDomainError):
            laplace_tail_sample(tape, LaplaceScale(2), 0)

    def test_bits_stay_small_at_large_scale(self):
        # The magnitude comes from geometric_fast, not the O(t) coin-flip loop.
        _, bits = collect_histogram(lambda t: laplace_tail_sample(t, LaplaceScale(4096), 5), 200, 707)
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


_LAWS = [
    ("gaussian", lambda: GaussianCells(Fraction(7, 3), 9), _gauss_weight(Fraction(7, 3)), 9),
    ("laplace", lambda: LaplaceCells(LaplaceScale(Fraction(5, 2)), 11), _laplace_weight(Fraction(5, 2)), 11),
]


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
        # grid 20 leaves one edge in the window, 10 and 9 leave two (three cells).
        law = make()
        n = 40_000
        hist, bits = collect_histogram(lambda t: draw_cell(t, law, center, grid), n, 708)
        probs = _cell_probs(weight, h, center, grid)
        assert set(hist) <= set(probs)
        observed = [hist.get(c, 0) for c in sorted(probs)]
        expected = [probs[c] * n for c in sorted(probs)]
        assert stats.chisquare(observed, expected).pvalue >= 0.001
        assert bits / n <= 2 * (len(probs) - 1) + 1

    def test_silent_window_draws_nothing(self):
        law = GaussianCells(Fraction(7, 3), 9)
        tape = BitTape(seed=709)
        assert draw_cell(tape, law, 50, 100) == 0
        assert tape.bits_consumed == 0

    def test_refinement_keeps_the_law(self, monkeypatch):
        # Start at 4-bit levels so that most draws must refine their enclosure.
        monkeypatch.setattr(cs, "_LEVEL_START", 4)
        law = LaplaceCells(LaplaceScale(Fraction(5, 2)), 11)
        n = 20_000
        hist, _ = collect_histogram(lambda t: draw_cell(t, law, 9, 10), n, 710)
        assert len(law._levels) >= 2
        probs = _cell_probs(_laplace_weight(Fraction(5, 2)), 11, 9, 10)
        observed = [hist.get(c, 0) for c in sorted(probs)]
        expected = [probs[c] * n for c in sorted(probs)]
        assert stats.chisquare(observed, expected).pvalue >= 0.001

    def test_halfwidth_validation(self):
        with pytest.raises(ParameterDomainError):
            GaussianCells(Fraction(2), 0)


def test_scale_validation():
    with pytest.raises(ParameterDomainError):
        LaplaceScale(0)
    with pytest.raises(ParameterDomainError):
        GaussParam(Fraction(-1, 2))
