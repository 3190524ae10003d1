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


def test_enclosure_soundness_sweep():
    """Seeded rationals, 500 at w in {24, 64, 128, 200} and 6 at w in {1 024, 4 096}:
    every enclosure holds the value computed independently by ``decimal``
    at 120 (1 300) digits, and keeps its stated width."""

    def check(pair, value, w, width):
        lo, hi = pair
        scaled = value * (1 << w)
        tol = (abs(scaled) + (1 << w)) * slack
        assert lo <= scaled + tol and scaled - tol <= hi, (pair, value, w)
        assert hi - lo <= width, (pair, w)

    def dec(x):
        return decimal.Decimal(x.numerator) / x.denominator

    rng = random.Random(20240811)
    for samples, widths, digits in ((500, (24, 64, 128, 200), 120), (6, (1024, 4096), 1300)):
        # 20 digits above decimal's error, and far below 2**-w.
        slack = decimal.Decimal(10) ** (20 - digits)
        ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        with decimal.localcontext(ctx):
            for _ in range(samples):
                x = Fraction(rng.randint(1, 1 << 24), rng.randint(1, 1 << 24))
                small = x % 32  # exp(x) past 2**46 would only test the size of integers
                for w in widths:
                    check(exp_neg(x, w), (-dec(x)).exp(), w, 2)
                    check(exp_pos(small, w), dec(small).exp(), w, 2)
                    check(ln_enclose(x, w), dec(x).ln(), w, 2)


def test_series_sums_stay_within_their_stated_error():
    """Each integer series sum, unrounded, against its exact series as a Fraction at p <= 48:
    |2**p exp(-f) - s| < 2n, and s <= 2**p 2 atanh(z) < s + 5n + 6, at the
    worst-case arguments f = 1 and z = 1/3 and at random ones."""
    terms = 60  # the tails past them are below 2**48 / 60! and 2**49 3**-121

    def exp_exact(f, p):
        head = sum((-f) ** i / math.factorial(i) for i in range(terms)) * (1 << p)
        return head, Fraction(1 << p, math.factorial(terms))

    def atanh_exact(z, p):
        head = 2 * sum(z ** (2 * j + 1) / (2 * j + 1) for j in range(terms)) * (1 << p)
        return head, 2 * z ** (2 * terms + 1) * (1 << p)

    rng = random.Random(1024)
    for p in (1, 2, 5, 8, 16, 24, 31, 40, 48):
        xs = [1 << p] + [rng.randint(0, 1 << p) for _ in range(20)]
        for x in xs:
            s, n = pm._exp_series(x, p)
            exact, tail = exp_exact(Fraction(x, 1 << p), p)
            assert abs(exact - s) + tail < 2 * n, (x, p)
        zs = [Fraction(1, 3)] + [Fraction(rng.randint(0, 10**6), 3 * 10**6 + rng.randint(0, 10**6)) for _ in range(20)]
        for z in zs:
            s, n = pm._atanh_series(z, p)
            exact, tail = atanh_exact(z, p)
            assert s <= exact and exact + tail < s + 5 * n + 6, (z, p)


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
