"""Tests for the entropy-optimal point-mass sampler."""

import math
from fractions import Fraction

import pytest
from scipy import stats

import frugaldp.entropy_sampler as es
from frugaldp.bit_tape import BitTape
from frugaldp.entropy_sampler import (
    PointMassSpec,
    binomial_spec,
    sample_point_mass,
    spec_from_fractions,
)
from frugaldp.errors import EnclosureContractError, ParameterDomainError
from frugaldp.precise_math import IntervalValue, exp_neg, interval_div

from conftest import collect_histogram


def _entropy(probs) -> float:
    return -sum(float(p) * math.log2(float(p)) for p in probs)


class TestSamplePointMass:
    def test_fair_coin_is_one_bit(self):
        spec = spec_from_fractions([Fraction(1, 2), Fraction(1, 2)])
        hist, bits = collect_histogram(lambda t: sample_point_mass(t, spec), 100_000, 801)
        n = sum(hist.values())
        assert abs(hist[1] / n - 0.5) <= 0.01
        assert bits == n  # dyadic boundaries: exactly one bit per draw

    def test_dyadic_spec_hits_entropy(self):
        probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
        spec = spec_from_fractions(probs)
        hist, bits = collect_histogram(lambda t: sample_point_mass(t, spec), 100_000, 802)
        n = sum(hist.values())
        assert bits / n <= _entropy(probs) + 6
        for i, p in enumerate(probs, start=1):
            assert abs(hist[i] / n - float(p)) <= 0.01

    def test_rational_spec_chi_square(self):
        probs = [Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)]
        spec = spec_from_fractions(probs)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, spec), 100_000, 803)
        counts = [hist[i] for i in range(1, 4)]
        _, p = stats.chisquare(counts, [float(q) * sum(counts) for q in probs])
        assert p >= 0.001

    def test_invalid_specs(self):
        with pytest.raises(ParameterDomainError):
            spec_from_fractions([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ParameterDomainError):
            spec_from_fractions([Fraction(3, 2), Fraction(-1, 2)])

    def test_disjoint_refinement_detected(self):
        def broken_oracle(i, precision):
            # Cumulative P_1 refines into an interval disjoint from the
            # coarse one; the wide coarse interval forces deep draws.
            if i == 0:
                return IntervalValue.from_fraction(0, precision)
            if i == 2:
                return IntervalValue.from_fraction(1, precision)
            if precision <= 32:
                return IntervalValue(
                    IntervalValue.from_fraction(Fraction(1, 8), 16).lo,
                    IntervalValue.from_fraction(Fraction(3, 8), 16).hi,
                )
            return IntervalValue.from_fraction(Fraction(3, 4), precision)

        spec = PointMassSpec(2, broken_oracle)
        tape = BitTape(seed=805)
        with pytest.raises(EnclosureContractError):
            for _ in range(200):
                sample_point_mass(tape, spec)


def _binomial(d, p):
    spec = binomial_spec(d, p)
    return lambda tape: sample_point_mass(tape, spec) - 1


class TestBinomialDraw:
    def test_bernoulli_reduction(self):
        p = Fraction(3, 10)
        hist, _ = collect_histogram(_binomial(1, p), 100_000, 806)
        n = sum(hist.values())
        assert abs(hist[1] / n - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n) + 0.001

    def test_symmetric_midpoint(self):
        hist, _ = collect_histogram(_binomial(4, Fraction(1, 2)), 100_000, 807)
        n = sum(hist.values())
        assert abs(hist[2] / n - 3 / 8) <= 0.01

    def test_rare_success(self):
        p = Fraction(1, 1024)
        hist, _ = collect_histogram(_binomial(8, p), 100_000, 808)
        n = sum(hist.values())
        expected = float((1 - p) ** 8)
        assert abs(hist[0] / n - expected) <= 3 * math.sqrt(expected * (1 - expected) / n) + 0.001

    def test_enclosed_probability_matches_formula(self):
        # p = 2 exp(-1/2) / (exp(1/2) + 1), the pure mechanism's tail mass shape.
        def p_fn(prec):
            num = exp_neg(Fraction(1, 2), prec + 4).scale(2, prec + 4)
            den = interval_div(
                IntervalValue.exact(1), exp_neg(Fraction(1, 2), prec + 8), prec + 4
            ) + IntervalValue.exact(1)
            return interval_div(num, den, prec)

        p_ref = 2 * math.exp(-0.5) / (math.exp(0.5) + 1)
        spec = binomial_spec(2, p_fn)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, spec) - 1, 50_000, 809)
        n = sum(hist.values())
        expected = [(1 - p_ref) ** 2, 2 * p_ref * (1 - p_ref), p_ref**2]
        _, pval = stats.chisquare([hist[k] for k in range(3)], [e * n for e in expected])
        assert pval >= 0.001

    def test_fixed_interval_accepted(self):
        p = IntervalValue.from_fraction(Fraction(1, 3), 96)
        hist, _ = collect_histogram(_binomial(3, p), 20_000, 810)
        n = sum(hist.values())
        assert abs(hist[0] / n - (2 / 3) ** 3) <= 0.02

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ParameterDomainError):
            binomial_spec(2, Fraction(0))
        with pytest.raises(ParameterDomainError):
            binomial_spec(0, Fraction(1, 2))


def test_entropy_bound_across_reference_specs():
    cases = [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 8)] * 8,
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
    ]
    for idx, probs in enumerate(cases):
        spec = spec_from_fractions(probs)
        _, bits = collect_histogram(lambda t: sample_point_mass(t, spec), 30_000, 820 + idx)
        assert bits / 30_000 <= _entropy(probs) + 8


def test_rational_spec_cache_stays_bounded():
    cap = es._RATIONAL_SPEC_CACHE.cap
    for i in range(cap + 10):
        binomial_spec(2, Fraction(1, i + 2))
        assert len(es._RATIONAL_SPEC_CACHE) <= cap
