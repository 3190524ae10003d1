"""Exact dyadic and interval arithmetic for the samplers' irrational constants.

Everything a mechanism compares a random bit stream against (exp(-x), ln,
binomial probabilities) is produced here as a rigorous two-sided
enclosure at a requested precision. No floating point enters any sampling
path; floats appear only when callers convert results for reporting.

Convention: a value is enclosed by [lo, hi] with lo <= true <= hi, both
endpoints exact dyadics, width hi - lo <= 2**-precision_bits. Raising the
precision never widens an enclosure.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import MathDomainError


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


class Dyadic:
    """Exact binary rational mantissa * 2**exponent.

    Canonical form keeps the mantissa odd (or zero with exponent zero), so
    equal values have equal representations. Addition, subtraction and
    multiplication are exact; there is no division.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        if mantissa == 0:
            exponent = 0
        else:
            shift = (mantissa & -mantissa).bit_length() - 1
            if shift:
                mantissa >>= shift
                exponent += shift
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, value: Fraction | int, precision_bits: int, round_up: bool) -> "Dyadic":
        """Directed rounding of a rational to a multiple of 2**-precision_bits."""
        frac = Fraction(value)
        num = frac.numerator << precision_bits if precision_bits >= 0 else frac.numerator
        den = frac.denominator if precision_bits >= 0 else frac.denominator << -precision_bits
        if round_up:
            m = -((-num) // den)
        else:
            m = num // den
        return cls(m, -precision_bits)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def floor(self) -> int:
        if self.exponent >= 0:
            return self.mantissa << self.exponent
        return self.mantissa >> -self.exponent

    def _pair(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.exponent, other.exponent)
        return self.mantissa << (self.exponent - e), other.mantissa << (other.exponent - e), e

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._pair(other)
        return Dyadic(a + b, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b, e = self._pair(other)
        return Dyadic(a - b, e)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.exponent)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.mantissa), self.exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __lt__(self, other: "Dyadic") -> bool:
        a, b, _ = self._pair(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b, _ = self._pair(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def __hash__(self):
        return hash((self.mantissa, self.exponent))

    def __float__(self) -> float:
        try:
            return float(self.as_fraction())
        except OverflowError:  # pragma: no cover - astronomically large values
            return float("inf") if self.mantissa > 0 else float("-inf")

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.exponent})"


DYADIC_ZERO = Dyadic(0)
DYADIC_ONE = Dyadic(1)


class IntervalValue:
    """Closed interval [lo, hi] of dyadics enclosing a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if hi < lo:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalValue is immutable")

    @classmethod
    def exact(cls, value: "Dyadic | int") -> "IntervalValue":
        d = value if isinstance(value, Dyadic) else Dyadic(value)
        return cls(d, d)

    @classmethod
    def from_fraction(cls, value: Fraction | int, precision_bits: int) -> "IntervalValue":
        """Tightest dyadic enclosure of a rational at the given precision."""
        lo = Dyadic.from_fraction(value, precision_bits, round_up=False)
        hi = Dyadic.from_fraction(value, precision_bits, round_up=True)
        return cls(lo, hi)

    def width(self) -> Fraction:
        return (self.hi - self.lo).as_fraction()

    def midpoint(self) -> Fraction:
        return (self.lo.as_fraction() + self.hi.as_fraction()) / 2

    def contains(self, value: "Fraction | int | Dyadic") -> bool:
        f = value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)
        return self.lo.as_fraction() <= f <= self.hi.as_fraction()

    def encloses(self, other: "IntervalValue") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "IntervalValue") -> "IntervalValue":
        return IntervalValue(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "IntervalValue":
        return IntervalValue(-self.hi, -self.lo)

    def __mul__(self, other: "IntervalValue") -> "IntervalValue":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return IntervalValue(min(products), max(products))

    def scale(self, value: Fraction | int, precision_bits: int) -> "IntervalValue":
        """Multiply by an exact rational, rounding outward at the precision."""
        f = Fraction(value)
        a = self.lo.as_fraction() * f
        b = self.hi.as_fraction() * f
        if f < 0:
            a, b = b, a
        return IntervalValue(
            Dyadic.from_fraction(a, precision_bits, round_up=False),
            Dyadic.from_fraction(b, precision_bits, round_up=True),
        )

    def __repr__(self) -> str:
        return f"IntervalValue({float(self.lo)!r}, {float(self.hi)!r})"


def _floor_scaled(f: Fraction, w: int) -> int:
    return (f.numerator << w) // f.denominator


def _ceil_scaled(f: Fraction, w: int) -> int:
    return -((-(f.numerator << w)) // f.denominator)


def interval_div(num: IntervalValue, den: IntervalValue, precision_bits: int) -> IntervalValue:
    """Enclosure of num/den for num.lo >= 0 and den.lo > 0, rounded outward."""
    if den.lo.mantissa <= 0:
        raise MathDomainError("interval division requires a strictly positive denominator")
    if num.lo.mantissa < 0:
        raise MathDomainError("interval division implemented for non-negative numerators only")
    lo = num.lo.as_fraction() / den.hi.as_fraction()
    hi = num.hi.as_fraction() / den.lo.as_fraction()
    return IntervalValue(
        Dyadic.from_fraction(lo, precision_bits, round_up=False),
        Dyadic.from_fraction(hi, precision_bits, round_up=True),
    )


def scaled_bounds(iv: IntervalValue, precision_bits: int) -> tuple[int, int]:
    """Outward integer bounds (lo, hi) with value = n * 2**-precision_bits.

    The samplers compare streamed uniform bits against these integers; this
    is the bridge from enclosures to the hot comparison loops.
    """
    return (
        _floor_scaled(iv.lo.as_fraction(), precision_bits),
        _ceil_scaled(iv.hi.as_fraction(), precision_bits),
    )


def _to_fraction(x) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


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


def exp_neg(x: "Fraction | int | Dyadic", precision_bits: int) -> IntervalValue:
    """Enclosure of exp(-x) for x >= 0, width <= 2**-precision_bits.

    Accepts any exact rational; non-dyadic inputs are bracketed by dyadics
    first, which is sound because exp(-x) is monotone.
    """
    xf = _to_fraction(x)
    if xf < 0:
        raise MathDomainError("exp_neg requires x >= 0")
    w = precision_bits + 8
    k = xf.numerator // xf.denominator
    if k > w:
        # exp(-x) < 2**-w already; [0, 2**-precision] is tight enough.
        return IntervalValue(DYADIC_ZERO, Dyadic(1, -precision_bits))
    frac = xf - k
    lo_m = _floor_scaled(frac, w)
    hi_m = _ceil_scaled(frac, w)
    wp = w + 2 * max(1, k.bit_length()) + 8
    # exp is decreasing: lower bound from the upper bracket and vice versa.
    unit_lo, _ = _exp_neg_unit_scaled(hi_m << (wp - w), wp, wp)
    _, unit_hi = _exp_neg_unit_scaled(lo_m << (wp - w), wp, wp)
    if k:
        e1_lo, e1_hi = _exp_neg_unit_scaled(1, 0, wp)
        p_lo, p_hi = _pow_scaled(e1_lo, e1_hi, k, wp)
        unit_lo = (unit_lo * p_lo) >> wp
        unit_hi = -((-unit_hi * p_hi) >> wp)
    out = precision_bits + 4
    lo = unit_lo >> (wp - out)
    hi = -((-unit_hi) >> (wp - out))
    return IntervalValue(Dyadic(max(0, lo), -out), Dyadic(min(hi, 1 << out), -out))


def exp_pos(x: "Fraction | int | Dyadic", precision_bits: int) -> IntervalValue:
    """Enclosure of exp(x) for x >= 0 via the reciprocal of exp(-x)."""
    xf = _to_fraction(x)
    if xf < 0:
        raise MathDomainError("exp_pos requires x >= 0")
    if xf == 0:
        return IntervalValue.exact(DYADIC_ONE)
    guard = 3 * (1 + xf.numerator // xf.denominator) + precision_bits + 8
    inv = exp_neg(xf, guard)
    return interval_div(IntervalValue.exact(DYADIC_ONE), inv, precision_bits + 2)


# ---------------------------------------------------------------------------
# ln and sqrt
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


def ln_enclose(x: "Fraction | int | Dyadic", precision_bits: int) -> IntervalValue:
    """Enclosure of ln(x) for x > 0, width <= 2**-precision_bits."""
    xf = _to_fraction(x)
    if xf <= 0:
        raise MathDomainError("ln_enclose requires x > 0")
    w = precision_bits + 8
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
    s, r = _atanh_series(z, w)
    lo_f, hi_f = s, s + r
    if e:
        ln2_lo, ln2_hi = _ln2_bounds(w + abs(e).bit_length() + 2)
        if e > 0:
            lo_f += e * ln2_lo
            hi_f += e * ln2_hi
        else:
            lo_f += e * ln2_hi
            hi_f += e * ln2_lo
    return IntervalValue(
        Dyadic.from_fraction(lo_f, precision_bits + 2, round_up=False),
        Dyadic.from_fraction(hi_f, precision_bits + 2, round_up=True),
    )


# ---------------------------------------------------------------------------
# Binomial point probabilities
# ---------------------------------------------------------------------------


def binom_prob_enclose(d: int, i: int, p: IntervalValue, precision_bits: int) -> IntervalValue:
    """Enclosure of C(d, i) * p**i * (1-p)**(d-i).

    The output width is bounded by 2**-precision_bits plus the propagated
    width of ``p`` itself (at most d times it); callers refine the input
    enclosure when they need a tighter result.
    """
    if not 0 <= i <= d:
        raise MathDomainError("binomial index out of range")
    c = comb(d, i)
    # The powers' rounding error is multiplied by C(d, i), up to 2**d.
    w = precision_bits + d.bit_length() + c.bit_length() + 8
    one = 1 << w
    p_lo = max(0, _floor_scaled(p.lo.as_fraction(), w))
    p_hi = min(one, _ceil_scaled(p.hi.as_fraction(), w))
    q_lo, q_hi = one - p_hi, one - p_lo
    a_lo, a_hi = _pow_scaled(p_lo, p_hi, i, w)
    b_lo, b_hi = _pow_scaled(q_lo, q_hi, d - i, w)
    lo = (c * a_lo * b_lo) >> w
    hi = -((-c * a_hi * b_hi) >> w)
    return IntervalValue(Dyadic(lo, -w), Dyadic(min(hi, one), -w))
