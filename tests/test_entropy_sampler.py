"""Tests for the entropy-optimal point-mass sampler."""

import math
from fractions import Fraction

import pytest
from scipy import stats

from frugaldp.bit_tape import BitTape
from frugaldp.entropy_sampler import PointMassSpec, sample_point_mass, spec_from_fractions
from frugaldp.errors import EnclosureContractError, ParameterDomainError
from frugaldp.precise_math import exp_neg, exp_pos
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector

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

    def test_enclosed_probability_matches_formula(self):
        # The law ((1-p)^2, 2p(1-p), p^2) with p = 2 exp(-1/2) / (exp(1/2) + 1),
        # the pure mechanism's tail mass shape: irrational cumulatives that
        # the draw refines through a callable enclosure.
        def p_fn(w):
            a_lo, a_hi = exp_neg(Fraction(1, 2), w + 4)
            e_lo, e_hi = exp_pos(Fraction(1, 2), w + 4)
            one = 1 << (w + 4)
            return (a_lo << (w + 1)) // (e_hi + one), -(-(a_hi << (w + 1)) // (e_lo + one))

        def cumulative(i, w):
            # P_1 = (1-p)^2 and P_2 = 1 - p^2, from p enclosed at w + 4 and
            # rounded outward to w.
            g = w + 4
            p_lo, p_hi = p_fn(g)
            one = 1 << g
            if i == 1:
                lo, hi = (one - p_hi) ** 2, (one - p_lo) ** 2
            else:
                lo, hi = (one << g) - p_hi**2, (one << g) - p_lo**2
            return lo >> (2 * g - w), -(-hi >> (2 * g - w))

        p_ref = 2 * math.exp(-0.5) / (math.exp(0.5) + 1)
        spec = PointMassSpec(3, cumulative)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, spec) - 1, 50_000, 809)
        n = sum(hist.values())
        expected = [(1 - p_ref) ** 2, 2 * p_ref * (1 - p_ref), p_ref**2]
        _, pval = stats.chisquare([hist[k] for k in range(3)], [e * n for e in expected])
        assert pval >= 0.001

    def test_invalid_specs(self):
        with pytest.raises(ParameterDomainError):
            spec_from_fractions([Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ParameterDomainError):
            spec_from_fractions([Fraction(3, 2), Fraction(-1, 2)])

    def test_disjoint_refinement_detected(self):
        def broken_oracle(i, w):
            # Cumulative P_1 refines into an interval disjoint from the
            # coarse one; the wide coarse interval forces deep draws.
            if i == 0:
                return 0, 0
            if i == 2:
                return 1 << w, 1 << w
            if w <= 64:
                return 1 << (w - 3), 3 << (w - 3)
            return 3 << (w - 2), 3 << (w - 2)

        spec = PointMassSpec(2, broken_oracle)
        tape = BitTape(seed=805)
        with pytest.raises(EnclosureContractError):
            for _ in range(200):
                sample_point_mass(tape, spec)


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
