"""Exact enclosures of the samplers' irrational constants, as integer pairs.

Everything a mechanism compares a random bit stream against (exp(-x),
exp(x), ln) is produced here as a rigorous two-sided enclosure at a
requested precision w: a pair of integers (lo, hi) with
lo <= 2**w * value <= hi. Each function's docstring bounds its width
hi - lo in units of 2**-w. No floating point enters any sampling path;
floats appear only when callers convert results for reporting. Derived
parameters keep their bounds as exact rationals (:class:`RationalBounds`),
and :func:`certified_le` decides a comparison with an irrational by
refining its enclosure until one side is certain.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple

from .errors import EnclosureContractError, MathDomainError

#: A comparison with an irrational gives up past this precision.
_CERTIFY_MAX_BITS = 1 << 13


class BoundedCache(dict):
    """A dict that empties itself when an insert would take it past ``cap`` entries.

    The package's memo tables all follow this one policy, so a long-running
    process keeps them bounded; a cleared entry is simply recomputed.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        if key not in self and len(self) >= self.cap:
            self.clear()
        super().__setitem__(key, value)


def _floor_scaled(f: Fraction, w: int) -> int:
    return (f.numerator << w) // f.denominator


def _ceil_scaled(f: Fraction, w: int) -> int:
    return -((-(f.numerator << w)) // f.denominator)


def rational_enclose(x: "Fraction | int", w: int) -> tuple[int, int]:
    """The tightest enclosure (lo, hi) of 2**w x for an exact rational x, with hi - lo <= 1."""
    f = Fraction(x)
    return _floor_scaled(f, w), _ceil_scaled(f, w)


class RationalBounds(NamedTuple):
    """Exact rational bounds lo <= value <= hi of a derived parameter."""

    lo: Fraction
    hi: Fraction

    @classmethod
    def scaled(cls, lo: int, hi: int, w: int) -> "RationalBounds":
        """The bounds that the pair (lo, hi) at scale 2**-w stands for."""
        return cls(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def certified_le(value: Fraction, enclose: Callable[[int], tuple[int, int]]) -> bool:
    """Decide value <= y for an irrational y, where ``enclose(w)`` encloses 2**w * y.

    The precision doubles from 64 until the enclosure lies on one side of
    the value; y must not equal the value, which holds whenever y is
    irrational.
    """
    w = 64
    while w <= _CERTIFY_MAX_BITS:
        lo, hi = enclose(w)
        if value.numerator << w <= lo * value.denominator:
            return True
        if value.numerator << w > hi * value.denominator:
            return False
        w *= 2
    raise EnclosureContractError("comparison against enclosure failed to resolve")


# ---------------------------------------------------------------------------
# exp(-x)
# ---------------------------------------------------------------------------


def _exp_neg_unit_scaled(fm: int, fe: int, w: int) -> tuple[int, int]:
    """Scaled-int enclosure of exp(-f) for f = fm/2**fe in [0, 1].

    Returns (lo, hi) with lo/2**w <= exp(-f) <= hi/2**w, via the Taylor
    series with remainder bound f**(n+1)/(n+1)!.
    """
    if fm == 0:
        return 1 << w, 1 << w
    # f <= 2**shift with shift <= 0 (shift = 0 covers f = 1 exactly).
    shift = min(0, fm.bit_length() - fe)
    n = 1
    fact_next = 2  # (n+1)!
    while True:
        exponent = w + 3 + shift * (n + 1)
        if exponent <= 0 or fact_next >= (1 << exponent):
            break
        n += 1
        fact_next *= n + 1
    # Alternating sum over the common denominator n! * 2**(fe*n).
    num = 0
    power = 1  # fm**i
    coeff = factorial(n)  # n! / i!
    for i in range(n + 1):
        term = (coeff * power) << (fe * (n - i))
        num += -term if i & 1 else term
        power *= fm
        coeff //= i + 1
    den = factorial(n) << (fe * n)
    remainder = Fraction(1, fact_next << (-shift * (n + 1)))
    value = Fraction(num, den)
    lo = max(0, _floor_scaled(value - remainder, w))
    hi = min(1 << w, _ceil_scaled(value + remainder, w))
    return lo, hi


def _pow_scaled(lo: int, hi: int, k: int, w: int) -> tuple[int, int]:
    """Directed-rounding k-th power of a non-negative scaled interval."""
    r_lo, r_hi = 1 << w, 1 << w
    b_lo, b_hi = lo, hi
    while k:
        if k & 1:
            r_lo = (r_lo * b_lo) >> w
            r_hi = -((-r_hi * b_hi) >> w)
        k >>= 1
        if k:
            b_lo = (b_lo * b_lo) >> w
            b_hi = -((-b_hi * b_hi) >> w)
    return r_lo, r_hi


def _exp_neg_guarded(x: "Fraction | int", w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**(w + 4) exp(-x) for x >= 0, with hi - lo <= 16.

    The Taylor sums run at a working precision of w + 8 bits or more. The
    four guard bits past w let a caller that doubles or divides the result
    round once, at its own scale; :func:`exp_neg` rounds them away.
    """
    xf = Fraction(x)
    if xf < 0:
        raise MathDomainError("exp_neg requires x >= 0")
    wi = w + 8
    out = w + 4
    k = xf.numerator // xf.denominator
    if k > wi:
        # exp(-x) < 2**-wi already; [0, 2**-w] is tight enough.
        return 0, 1 << (out - w)
    frac = xf - k
    lo_m = _floor_scaled(frac, wi)
    hi_m = _ceil_scaled(frac, wi)
    wp = wi + 2 * max(1, k.bit_length()) + 8
    # exp is decreasing: lower bound from the upper bracket and vice versa.
    unit_lo, _ = _exp_neg_unit_scaled(hi_m << (wp - wi), wp, wp)
    _, unit_hi = _exp_neg_unit_scaled(lo_m << (wp - wi), wp, wp)
    if k:
        e1_lo, e1_hi = _exp_neg_unit_scaled(1, 0, wp)
        p_lo, p_hi = _pow_scaled(e1_lo, e1_hi, k, wp)
        unit_lo = (unit_lo * p_lo) >> wp
        unit_hi = -((-unit_hi * p_hi) >> wp)
    return max(0, unit_lo >> (wp - out)), min(-((-unit_hi) >> (wp - out)), 1 << out)


def exp_neg(x: "Fraction | int", w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w exp(-x) for x >= 0, with hi - lo <= 2.

    Accepts any exact rational; non-dyadic inputs are bracketed by dyadics
    first, which is sound because exp(-x) is monotone.
    """
    lo, hi = _exp_neg_guarded(x, w)
    return lo >> 4, -(-hi >> 4)


def exp_pos(x: "Fraction | int", w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w exp(x) for x >= 0, with hi - lo <= 2.

    It is the reciprocal of exp(-x) enclosed with 3 (1 + floor(x)) + w + 6
    bits, which is enough for the quotient to keep w.
    """
    xf = Fraction(x)
    if xf < 0:
        raise MathDomainError("exp_pos requires x >= 0")
    guard = 3 * (1 + xf.numerator // xf.denominator) + w + 6
    inv_lo, inv_hi = _exp_neg_guarded(xf, guard)
    num = 1 << (w + guard + 4)
    return num // inv_hi, -(-num // inv_lo)


# ---------------------------------------------------------------------------
# ln
# ---------------------------------------------------------------------------


def _atanh_series(z: Fraction, w: int) -> tuple[Fraction, Fraction]:
    """(sum, remainder_bound) for 2*atanh(z), z in [0, 1/2)."""
    if z == 0:
        return Fraction(0), Fraction(0)
    z2 = z * z
    total = Fraction(0)
    power = z
    j = 0
    threshold = Fraction(1, 1 << (w + 4))
    while True:
        total += power / (2 * j + 1)
        power *= z2
        j += 1
        if power / (2 * j + 1) <= threshold:
            break
    remainder = 2 * (power / (2 * j + 1)) / (1 - z2)
    return 2 * total, remainder


_LN2_CACHE: BoundedCache = BoundedCache(64)


def _ln2_bounds(w: int) -> tuple[Fraction, Fraction]:
    if w not in _LN2_CACHE:
        s, r = _atanh_series(Fraction(1, 3), w)
        _LN2_CACHE[w] = (s, s + r)
    return _LN2_CACHE[w]


def ln_enclose(x: "Fraction | int", w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w ln(x) for x > 0, with hi - lo <= 2."""
    xf = Fraction(x)
    if xf <= 0:
        raise MathDomainError("ln_enclose requires x > 0")
    wi = w + 6
    # Normalize x = m * 2**e with m in [1, 2).
    e = xf.numerator.bit_length() - xf.denominator.bit_length()
    m = xf / Fraction(2) ** e
    if m >= 2:
        m /= 2
        e += 1
    elif m < 1:
        m *= 2
        e -= 1
    z = (m - 1) / (m + 1)
    s, r = _atanh_series(z, wi)
    lo_f, hi_f = s, s + r
    if e:
        ln2_lo, ln2_hi = _ln2_bounds(wi + abs(e).bit_length() + 2)
        if e > 0:
            lo_f += e * ln2_lo
            hi_f += e * ln2_hi
        else:
            lo_f += e * ln2_hi
            hi_f += e * ln2_lo
    return _floor_scaled(lo_f, w), _ceil_scaled(hi_f, w)

