"""Tests for the enclosure kernel: integer pairs (lo, hi) with lo <= 2**w * value <= hi."""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frugaldp.errors import EnclosureContractError, MathDomainError
import frugaldp.precise_math as pm
from frugaldp.precise_math import (
    BoundedCache,
    RationalBounds,
    binom_prob_enclose,
    certified_le,
    exp_neg,
    exp_pos,
    ln_enclose,
    rational_enclose,
)
from reference import floor_sqrt


def _encloses(pair, value, w) -> bool:
    lo, hi = pair
    return lo <= Fraction(value) * (1 << w) <= hi


class TestRationalEnclose:
    @given(
        st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
        ),
        st.integers(min_value=0, max_value=80),
    )
    def test_directed_rounding_brackets(self, value, w):
        lo, hi = rational_enclose(value, w)
        assert _encloses((lo, hi), value, w)
        assert hi - lo <= 1

    def test_dyadic_value_is_exact(self):
        assert rational_enclose(Fraction(3, 8), 10) == (384, 384)

    def test_rational_bounds_from_a_pair(self):
        assert RationalBounds.scaled(3, 5, 4) == (Fraction(3, 16), Fraction(5, 16))


class TestCertifiedLe:
    def test_decides_both_sides_of_an_irrational(self):
        e_inv = lambda w: exp_neg(1, w)  # noqa: E731
        assert certified_le(Fraction(367, 1000), e_inv)
        assert not certified_le(Fraction(368, 1000), e_inv)

    def test_refines_until_decided(self):
        calls = []

        def enclose(w):
            calls.append(w)
            return exp_neg(1, w)

        # exp(-1) to 40 digits lies about 2**-136 below it: 64 and 128 bits cannot tell.
        assert certified_le(Fraction("0.3678794411714423215955237701614608674458"), enclose)
        assert calls == [64, 128, 256]

    def test_undecidable_comparison_raises(self):
        with pytest.raises(EnclosureContractError):
            certified_le(Fraction(1, 2), lambda w: (0, 1 << w))


class TestExpNeg:
    def test_zero_is_exact(self):
        assert exp_neg(0, 30) == (1 << 30, 1 << 30)

    def test_unit_value(self):
        lo, hi = exp_neg(1, 20)
        assert hi - lo <= 2
        assert _encloses((lo, hi), Fraction(math.exp(-1)).limit_denominator(10**15), 20)

    def test_exp_of_ln2_contains_half(self):
        # Identity check: exp(-ln 2) = 1/2, through the enclosure of ln 2.
        ln2_lo, ln2_hi = ln_enclose(2, 40)
        upper = exp_neg(Fraction(ln2_lo, 1 << 40), 40)[1]
        lower = exp_neg(Fraction(ln2_hi, 1 << 40), 40)[0]
        assert lower <= 1 << 39 <= upper
        assert upper - lower <= 1 << 10

    def test_huge_argument_truncates_cleanly(self):
        assert exp_neg(10**9, 40) == (0, 1)

    def test_negative_rejected(self):
        with pytest.raises(MathDomainError):
            exp_neg(-1, 20)
        with pytest.raises(MathDomainError):
            exp_pos(-1, 20)

    def test_exp_pos_reciprocal(self):
        pair = exp_pos(Fraction(3, 2), 40)
        assert _encloses(pair, Fraction(math.exp(1.5)).limit_denominator(10**12), 40)
        assert exp_pos(0, 40) == (1 << 40, 1 << 40)


class TestLnSqrt:
    def test_ln_one_exact(self):
        assert ln_enclose(1, 40) == (0, 0)

    def test_ln_two(self):
        lo, hi = ln_enclose(2, 20)
        assert _encloses((lo, hi), Fraction(math.log(2)).limit_denominator(10**12), 20)
        assert hi - lo <= 2

    def test_ln_negative_rejected(self):
        with pytest.raises(MathDomainError):
            ln_enclose(0, 20)
        with pytest.raises(MathDomainError):
            ln_enclose(Fraction(-3, 2), 20)

    def test_floor_sqrt(self):
        assert floor_sqrt(Fraction(41, 10)) == 2
        assert floor_sqrt(Fraction(39, 10)) == 1
        assert floor_sqrt(16) == 4
        assert floor_sqrt(0) == 0
        for n in range(200):
            assert floor_sqrt(n) == math.isqrt(n)


class TestBinomProb:
    HALF = (1 << 59, 1 << 59)  # p = 1/2 at w = 60

    def test_degenerate_cases(self):
        assert binom_prob_enclose(1, 0, self.HALF, 60) == self.HALF

    def test_symmetric_half(self):
        assert binom_prob_enclose(2, 1, self.HALF, 60) == self.HALF

    def test_rational_value(self):
        lo, hi = binom_prob_enclose(4, 2, rational_enclose(Fraction(1, 4), 50), 50)
        # Exact rational oracle: C(4,2) (1/4)^2 (3/4)^2 = 27/128.
        expected = Fraction(6) * Fraction(1, 4) ** 2 * Fraction(3, 4) ** 2
        assert expected == Fraction(27, 128)
        assert _encloses((lo, hi), expected, 50)
        assert hi - lo <= 2

    @pytest.mark.parametrize("d", [256, 1024])
    def test_width_holds_for_large_coefficients(self, d):
        # C(d, d/2) is close to 2**d, so it must not scale the rounding error.
        i = d // 2
        lo, hi = binom_prob_enclose(d, i, (1 << 31, 1 << 31), 32)
        assert hi - lo <= 2
        assert _encloses((lo, hi), Fraction(math.comb(d, i), 2**d), 32)

    def test_index_out_of_range(self):
        with pytest.raises(MathDomainError):
            binom_prob_enclose(3, 4, self.HALF, 60)


def test_enclosure_soundness_sweep():
    """500 seeded rationals at w in {24, 64, 128, 200}: every enclosure holds
    the value computed independently by ``decimal`` at 120 digits (or, for the
    binomial, the exact Fraction), and keeps its stated width."""
    slack = decimal.Decimal("1e-100")  # far above decimal's error, far below 2**-200

    def check(pair, value, w, width):
        lo, hi = pair
        scaled = value * (1 << w)
        tol = (abs(scaled) + (1 << w)) * slack
        assert lo <= scaled + tol and scaled - tol <= hi, (pair, value, w)
        assert hi - lo <= width, (pair, w)

    def dec(x):
        return decimal.Decimal(x.numerator) / x.denominator

    rng = random.Random(20240811)
    ctx = decimal.Context(prec=120, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(ctx):
        for _ in range(500):
            x = Fraction(rng.randint(1, 1 << 24), rng.randint(1, 1 << 24))
            small = x % 32  # exp(x) past 2**46 would only test the size of integers
            for w in (24, 64, 128, 200):
                check(exp_neg(x, w), (-dec(x)).exp(), w, 2)
                check(exp_pos(small, w), dec(small).exp(), w, 2)
                check(ln_enclose(x, w), dec(x).ln(), w, 2)
            w = rng.choice((24, 64, 128, 200))
            d = rng.randint(1, 40)
            i = rng.randint(0, d)
            p = Fraction(rng.randint(1, 99), 100)
            p_pair = rational_enclose(p, w)
            lo, hi = binom_prob_enclose(d, i, p_pair, w)
            assert _encloses((lo, hi), math.comb(d, i) * p**i * (1 - p) ** (d - i), w)
            assert hi - lo <= d * (p_pair[1] - p_pair[0]) + 2


class TestBoundedCache:
    def test_clears_before_exceeding_cap(self):
        cache = BoundedCache(3)
        for key in range(10):
            cache[key] = key
            assert len(cache) <= 3
        assert cache[9] == 9

    def test_overwriting_a_key_at_cap_keeps_the_rest(self):
        cache = BoundedCache(2)
        cache["a"], cache["b"] = 1, 2
        cache["a"] = 3
        assert cache == {"a": 3, "b": 2}

    def test_ln2_cache_stays_bounded(self):
        for w in range(8, 8 + pm._LN2_CACHE.cap + 10):
            lo, hi = pm._ln2_bounds(w)
            assert lo <= Fraction(math.log(2)) + Fraction(1, 1 << 40) and hi >= lo
            assert len(pm._LN2_CACHE) <= pm._LN2_CACHE.cap
