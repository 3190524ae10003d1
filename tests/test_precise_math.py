"""Tests for the exact dyadic/interval kernel."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frugaldp.errors import MathDomainError
import frugaldp.precise_math as pm
from frugaldp.precise_math import (
    BoundedCache,
    Dyadic,
    IntervalValue,
    binom_prob_enclose,
    exp_neg,
    exp_pos,
    interval_div,
    ln_enclose,
)
from reference import floor_sqrt

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
    st.integers(min_value=-40, max_value=20),
)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(12, 3)  # 12 * 8 = 96 = 3 * 32
        assert d.mantissa == 3 and d.exponent == 5
        z = Dyadic(0, 17)
        assert z.mantissa == 0 and z.exponent == 0

    @given(dyadics, dyadics)
    def test_arithmetic_matches_fractions(self, a, b):
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
        assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())

    @given(
        st.fractions(
            min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
        ),
        st.integers(min_value=1, max_value=80),
    )
    def test_directed_rounding_brackets(self, value, prec):
        lo = Dyadic.from_fraction(value, prec, round_up=False)
        hi = Dyadic.from_fraction(value, prec, round_up=True)
        assert lo.as_fraction() <= value <= hi.as_fraction()
        assert hi.as_fraction() - lo.as_fraction() <= Fraction(1, 1 << prec)

    def test_floor(self):
        assert Dyadic(7, -1).floor() == 3
        assert Dyadic(-7, -1).floor() == -4
        assert Dyadic(5, 2).floor() == 20


class TestIntervalValue:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalValue(Dyadic(2), Dyadic(1))

    def test_arithmetic_encloses(self):
        a = IntervalValue.from_fraction(Fraction(1, 3), 30)
        b = IntervalValue.from_fraction(Fraction(2, 7), 30)
        total = a + b
        assert total.contains(Fraction(1, 3) + Fraction(2, 7))
        prod = a * b
        assert prod.contains(Fraction(2, 21))
        diff = a - b
        assert diff.contains(Fraction(1, 3) - Fraction(2, 7))

    def test_division(self):
        a = IntervalValue.from_fraction(Fraction(1, 2), 40)
        b = IntervalValue.from_fraction(Fraction(1, 3), 40)
        q = interval_div(a, b, 40)
        assert q.contains(Fraction(3, 2))
        with pytest.raises(MathDomainError):
            interval_div(a, IntervalValue.exact(0), 40)


class TestExpNeg:
    def test_zero_is_exact(self):
        iv = exp_neg(0, 30)
        assert iv.lo == iv.hi == Dyadic(1)

    def test_unit_value(self):
        iv = exp_neg(1, 20)
        assert iv.width() <= Fraction(1, 1 << 20)
        assert iv.contains(Fraction(math.exp(-1)).limit_denominator(10**15))
        assert abs(float(iv.lo) - 0.36787944117144233) < 1e-6

    def test_exp_of_ln2_contains_half(self):
        # Identity check: exp(-ln 2) = 1/2, through the enclosure of ln 2.
        ln2 = ln_enclose(2, 40)
        upper = exp_neg(ln2.lo.as_fraction(), 40)
        lower = exp_neg(ln2.hi.as_fraction(), 40)
        assert lower.lo.as_fraction() <= Fraction(1, 2) <= upper.hi.as_fraction()
        assert upper.hi.as_fraction() - lower.lo.as_fraction() <= Fraction(1, 1 << 30)

    def test_huge_argument_truncates_cleanly(self):
        iv = exp_neg(10**9, 40)
        assert iv.lo.as_fraction() == 0
        assert iv.hi.as_fraction() <= Fraction(1, 1 << 40)

    def test_negative_rejected(self):
        with pytest.raises(MathDomainError):
            exp_neg(-1, 20)

    def test_exp_pos_reciprocal(self):
        iv = exp_pos(Fraction(3, 2), 40)
        assert iv.contains(Fraction(math.exp(1.5)).limit_denominator(10**12))


class TestLnSqrt:
    def test_ln_one_exact(self):
        iv = ln_enclose(1, 40)
        assert iv.lo == iv.hi == Dyadic(0)

    def test_ln_two(self):
        iv = ln_enclose(2, 20)
        assert iv.contains(Fraction(math.log(2)).limit_denominator(10**12))
        assert iv.width() <= Fraction(1, 1 << 20)

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
    def test_degenerate_cases(self):
        p = IntervalValue.from_fraction(Fraction(1, 2), 60)
        iv = binom_prob_enclose(1, 0, p, 50)
        assert iv.lo.as_fraction() == iv.hi.as_fraction() == Fraction(1, 2)

    def test_symmetric_half(self):
        p = IntervalValue.from_fraction(Fraction(1, 2), 60)
        iv = binom_prob_enclose(2, 1, p, 50)
        assert iv.lo.as_fraction() == iv.hi.as_fraction() == Fraction(1, 2)

    def test_rational_value(self):
        p = IntervalValue.from_fraction(Fraction(1, 4), 60)
        iv = binom_prob_enclose(4, 2, p, 50)
        # Exact rational oracle: C(4,2) (1/4)^2 (3/4)^2 = 27/128.
        expected = Fraction(6) * Fraction(1, 4) ** 2 * Fraction(3, 4) ** 2
        assert expected == Fraction(27, 128)
        assert iv.contains(expected)
        assert iv.width() <= Fraction(1, 1 << 50)

    @pytest.mark.parametrize("d", [256, 1024])
    def test_width_holds_for_large_coefficients(self, d):
        # C(d, d/2) is close to 2**d, so it must not scale the rounding error.
        i = d // 2
        iv = binom_prob_enclose(d, i, IntervalValue.exact(Dyadic(1, -1)), 32)
        assert iv.width() <= Fraction(1, 1 << 32)
        assert iv.contains(Fraction(math.comb(d, i), 2**d))

    def test_index_out_of_range(self):
        p = IntervalValue.from_fraction(Fraction(1, 2), 60)
        with pytest.raises(MathDomainError):
            binom_prob_enclose(3, 4, p, 30)


def test_enclosure_soundness_sweep():
    """1000 random inputs: the double-precision evaluation sits inside every
    interval, refinement never widens, and floats agree to within their own
    error."""
    rng = random.Random(20240811)
    for _ in range(1000):
        x = Fraction(rng.randint(1, 1 << 24), rng.randint(1, 1 << 24))
        prec = rng.choice([24, 40, 64])
        coarse = exp_neg(x, prec)
        fine = exp_neg(x, 2 * prec)
        mid = fine.midpoint()
        assert coarse.lo.as_fraction() <= mid <= coarse.hi.as_fraction()
        assert fine.width() <= coarse.width()
        if x < 500:
            assert abs(float(coarse.lo) - math.exp(-float(x))) < 1e-6 + 1e-9

        lniv = ln_enclose(x, prec)
        lnfine = ln_enclose(x, 2 * prec)
        assert lniv.lo.as_fraction() <= lnfine.midpoint() <= lniv.hi.as_fraction()
        assert lnfine.width() <= lniv.width()
        assert abs(float(lniv.lo) - math.log(float(x))) < 1e-6

        d = rng.randint(1, 12)
        i = rng.randint(0, d)
        p = Fraction(rng.randint(1, 99), 100)
        biv = binom_prob_enclose(d, i, IntervalValue.from_fraction(p, prec + 16), prec)
        exact = math.comb(d, i) * p**i * (1 - p) ** (d - i)
        assert biv.contains(exact)


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
