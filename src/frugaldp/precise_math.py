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

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .errors import EnclosureContractError, MathDomainError

#: A comparison with an irrational gives up this many bits past its starting precision.
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


class RationalBounds(namedtuple("RationalBounds", "lo hi")):
    """Exact rational bounds lo <= value <= hi of a derived parameter, as Fractions."""

    __slots__ = ()

    @classmethod
    def scaled(cls, lo: int, hi: int, w: int) -> "RationalBounds":
        """The bounds that the pair (lo, hi) at scale 2**-w stands for."""
        return cls(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def certified_le(value: Fraction, enclose: Callable[[int], tuple[int, int]]) -> bool:
    """Decide value <= y for an irrational y, where ``enclose(w)`` encloses 2**w * y.

    The precision doubles until the enclosure lies on one side of the value,
    from max(64, 62 + log2(1 / value)) up to ``_CERTIFY_MAX_BITS`` past that
    start; y must not equal the value, which holds whenever y is irrational.
    """
    start = w = max(64, (value.denominator // max(value.numerator, 1)).bit_length() + 62)
    while w <= start + _CERTIFY_MAX_BITS:
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


def _exp_series(x: int, p: int) -> tuple[int, int]:
    """Sum exp(-f)'s Taylor series for f = x/2**p in [0, 1] in integers at scale 2**-p.

    Returns (s, n) with |2**p exp(-f) - s| < 2n. The terms t_0 = 2**p and
    t_i = floor(t_(i-1) f / i) stop at the first zero, t_n, and s is the
    alternating sum of t_0 .. t_(n-1). Each t_i falls short of
    T_i = 2**p f**i / i! by e_i >= 0, where e_0 = 0 and
    e_i < e_(i-1) f / i + 1, so e_i < 2. The tail past n alternates with
    decreasing terms, so it is below T_n = e_n < 2 in size. As
    t_i <= 2**(p + 1 - i), n <= p + 2.
    """
    s, term, n = 0, 1 << p, 0
    while term:
        s += -term if n & 1 else term
        n += 1
        term = (term * x >> p) // n
    return s, n


def _exp_neg_unit_scaled(x: int, w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w exp(-x/2**w) for x in [0, 2**w], with hi - lo <= 2.

    The series runs at p = w + g bits, g = bitlen(w) + 4; its error
    2n <= 2p + 4 is then at most 2**g / 2, so the enclosure rounds to w
    bits within two units.
    """
    if x == 0:
        return 1 << w, 1 << w
    g = w.bit_length() + 4
    s, n = _exp_series(x << g, w + g)
    return max(0, (s - 2 * n) >> g), min(1 << w, -(-(s + 2 * n) >> g))


def _pow_scaled(lo: int, hi: int, k: int, w: int) -> tuple[int, int]:
    """Directed-rounding k-th power of a non-negative scaled interval."""
    r_lo, r_hi = 1 << w, 1 << w
    while k:
        if k & 1:
            r_lo = (r_lo * lo) >> w
            r_hi = -((-r_hi * hi) >> w)
        k >>= 1
        if k:
            lo = (lo * lo) >> w
            hi = -((-hi * hi) >> w)
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
    lo_m, hi_m = rational_enclose(frac, wi)
    wp = wi + 2 * max(1, k.bit_length()) + 8
    # exp is decreasing: lower bound from the upper bracket and vice versa.
    unit_lo, _ = _exp_neg_unit_scaled(hi_m << (wp - wi), wp)
    _, unit_hi = _exp_neg_unit_scaled(lo_m << (wp - wi), wp)
    if k:
        e1_lo, e1_hi = _exp_neg_unit_scaled(1 << wp, wp)
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


def _atanh_series(z: Fraction, p: int) -> tuple[int, int]:
    """Sum 2 atanh(z) = 2 sum_j z**(2j+1) / (2j+1) for z in [0, 1/3] in integers at scale 2**-p.

    Returns (s, n) with s <= 2**p 2 atanh(z) < s + 5n + 6. Rounding z
    down to Z/2**p lowers 2 atanh by less than 2.25 units, as its
    derivative 2/(1 - z**2) is at most 9/4. The odd powers P_j of Z step
    by floor(P_(j-1) Z2 / 2**p), with Z2 = floor(Z**2 / 2**p): P_j falls
    short by d_j < d_(j-1)/9 + 1/3 + 1, so d_j < 1.5, and the term
    floor(P_j / (2j+1)) by less than 2.5. The terms stop at the first zero,
    the n-th, whose exact value is then below 1.5 (Z = 0 when n = 0), and
    with a ratio below 1/9 the tail is below 1.7. Doubled, the sum's
    shortfall is below 5n + 3.4. As P_j <= 2**p 3**-(2j+1), n <= p/3 + 1.
    """
    zp = (z.numerator << p) // z.denominator
    z2 = zp * zp >> p
    s, power, n = 0, zp, 0
    while term := power // (2 * n + 1):
        s += term
        n += 1
        power = power * z2 >> p
    return 2 * s, n


def ln_enclose(x: "Fraction | int", w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w ln(x) for x > 0, with hi - lo <= 2.

    With x = m 2**e, m in [1, 2), ln(x) = 2 atanh((m - 1)/(m + 1))
    + e 2 atanh(1/3), each summed by :func:`_atanh_series` at p = w + g
    bits. Their error, at most (1 + |e|) (5p/3 + 11) units, is below 2**g
    for g = bitlen(|e|) + bitlen(w) + 6 and any |e| < 2**50, so the
    enclosure rounds to w bits within two units.
    """
    xf = Fraction(x)
    if xf <= 0:
        raise MathDomainError("ln_enclose requires x > 0")
    # Normalize x = m * 2**e with m in [1, 2): e = floor(log2 x).
    num, den = xf.numerator, xf.denominator
    e = (num // den).bit_length() - 1 if num >= den else -((den - 1) // num).bit_length()
    m = xf / Fraction(2) ** e
    g = abs(e).bit_length() + w.bit_length() + 6
    lo = hi = 0
    for z, k in (((m - 1) / (m + 1), 1), (Fraction(1, 3), e)):
        if z and k:
            s, n = _atanh_series(z, w + g)
            a, b = k * s, k * (s + 5 * n + 6)
            lo, hi = lo + min(a, b), hi + max(a, b)
    return lo >> g, -(-hi >> g)
