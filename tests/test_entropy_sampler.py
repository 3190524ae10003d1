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
from frugaldp.precise_math import binom_prob_enclose, exp_neg, exp_pos
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient, sample_tail_set
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
        def p_fn(w):
            a_lo, a_hi = exp_neg(Fraction(1, 2), w + 4)
            e_lo, e_hi = exp_pos(Fraction(1, 2), w + 4)
            one = 1 << (w + 4)
            return (a_lo << (w + 1)) // (e_hi + one), -(-(a_hi << (w + 1)) // (e_lo + one))

        p_ref = 2 * math.exp(-0.5) / (math.exp(0.5) + 1)
        spec = binomial_spec(2, p_fn)
        hist, _ = collect_histogram(lambda t: sample_point_mass(t, spec) - 1, 50_000, 809)
        n = sum(hist.values())
        expected = [(1 - p_ref) ** 2, 2 * p_ref * (1 - p_ref), p_ref**2]
        _, pval = stats.chisquare([hist[k] for k in range(3)], [e * n for e in expected])
        assert pval >= 0.001

    @pytest.mark.parametrize("d", [256, 1024])
    def test_enclosed_half_is_frugal(self, d):
        # p = 1/2 through a callable: the middle terms are enclosed, not exact,
        # so the draw's cost rests on how tight binom_prob_enclose is.
        spec = binomial_spec(d, lambda w: (1 << (w - 1), 1 << (w - 1)))
        n = 3000
        hist, bits = collect_histogram(lambda t: sample_point_mass(t, spec) - 1, n, 811)
        pmf = [Fraction(math.comb(d, k), 2**d) for k in range(d + 1)]
        assert bits / n <= _entropy(pmf) + 8
        # The law is symmetric; pool each tail until its bin expects 5 draws.
        cut = next(k for k in range(d // 2) if sum(pmf[: k + 1]) * n >= 5)
        bins = [range(cut + 1), *(range(k, k + 1) for k in range(cut + 1, d - cut)), range(d - cut, d + 1)]
        observed = [sum(hist[k] for k in b) for b in bins]
        expected = [float(sum(pmf[k] for k in b)) * n for b in bins]
        assert stats.chisquare(observed, expected).pvalue >= 0.001

    def test_degenerate_probability_rejected(self):
        with pytest.raises(ParameterDomainError):
            binomial_spec(2, Fraction(0))
        with pytest.raises(ParameterDomainError):
            binomial_spec(0, Fraction(1, 2))


class TestEnclosedBinomialCost:
    """A cold draw sums only the cumulatives it reads, and still checks them."""

    def test_cold_tail_draw_reads_a_prefix(self, monkeypatch):
        calls = []

        def counted(d, i, p, precision_bits):
            calls.append(i)
            return binom_prob_enclose(d, i, p, precision_bits)

        monkeypatch.setattr(es, "binom_prob_enclose", counted)
        params = derive_pure_params(Fraction(1), 65536, 4)
        tail = sample_tail_set(BitTape(seed=830), params.d, spec=params.binomial)
        precisions = len(params.binomial._rows)
        assert 0 < len(calls) <= (len(tail) + 2) * precisions

    def test_cold_pure_release_at_large_d(self):
        d = 100_000
        counts = CountVector(d, 1000, tuple(i % 1001 for i in range(d)))
        params = derive_pure_params(Fraction(1), d, 4)
        result, trace = mech_pure_efficient(counts, params, BitTape(seed=831))
        assert len(result.values) == d
        assert all(v % params.grid == 0 for v in result.values)
        assert trace.tail_size == len(trace.tail_set)

    def test_undersized_terms_break_the_contract(self, monkeypatch):
        def halved(d, i, p, w):
            lo, hi = binom_prob_enclose(d, i, p, w)
            return lo >> 1, hi >> 1

        monkeypatch.setattr(es, "binom_prob_enclose", halved)
        params = derive_pure_params(Fraction(1), 64, 4)
        with pytest.raises(EnclosureContractError):
            sample_point_mass(BitTape(seed=832), params.binomial)


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
