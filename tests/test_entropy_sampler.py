"""Sampling finite laws at the entropy limit: one :func:`locate` over their upper tails.

The laws come to ``locate`` through the reference adapter ``FiniteLaw``;
no release draws from a finite law, so the package has none.
"""

import math
from fractions import Fraction

import pytest
from scipy import stats

from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import locate
from frugaldp.errors import EnclosureContractError
from frugaldp.precise_math import exp_neg, exp_pos

from conftest import collect_histogram
from reference import FiniteLaw


def _entropy(probs) -> float:
    return -sum(float(p) * math.log2(float(p)) for p in probs)


def sample_point_mass(tape: BitTape, law: FiniteLaw) -> int:
    """Index i in {1..k} with probability exactly P_i - P_{i-1}."""
    return 1 + locate(tape, law.bounds, range(1, law.k))


class TestSamplePointMass:
    def test_fair_coin_is_one_bit(self):
        law = FiniteLaw.from_fractions([Fraction(1, 2), Fraction(1, 2)])
        hist, bits = collect_histogram(lambda t: sample_point_mass(t, law), 100_000, 801)
        n = sum(hist.values())
        assert abs(hist[1] / n - 0.5) <= 0.01
        assert bits == n  # dyadic boundaries: exactly one bit per draw

    def test_dyadic_spec_hits_entropy(self):
        probs = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
        law = FiniteLaw.from_fractions(probs)
        hist, bits = collect_histogram(lambda t: sample_point_mass(t, law), 100_000, 802)
        n = sum(hist.values())
        assert bits / n <= _entropy(probs) + 6
        for i, p in enumerate(probs, start=1):
            assert abs(hist[i] / n - float(p)) <= 0.01

    def test_rational_spec_chi_square(self):
        probs = [Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)]
        law = FiniteLaw.from_fractions(probs)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, law), 100_000, 803)
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
        law = FiniteLaw(3, cumulative)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, law) - 1, 50_000, 809)
        n = sum(hist.values())
        expected = [(1 - p_ref) ** 2, 2 * p_ref * (1 - p_ref), p_ref**2]
        _, pval = stats.chisquare([hist[k] for k in range(3)], [e * n for e in expected])
        assert pval >= 0.001

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

        law = FiniteLaw(2, broken_oracle)
        tape = BitTape(seed=805)
        with pytest.raises(EnclosureContractError):
            for _ in range(200):
                sample_point_mass(tape, law)


def test_entropy_bound_across_reference_specs():
    cases = [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(1, 8)] * 8,
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
    ]
    for idx, probs in enumerate(cases):
        law = FiniteLaw.from_fractions(probs)
        _, bits = collect_histogram(lambda t: sample_point_mass(t, law), 30_000, 820 + idx)
        assert bits / 30_000 <= _entropy(probs) + 8
