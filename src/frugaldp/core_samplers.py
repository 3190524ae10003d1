"""The one exact comparator, and the cell laws the release draws through it.

Every release decision that spends bits is one :func:`locate`: it streams a
uniform dyadic u bit by bit from a :class:`~frugaldp.bit_tape.BitTape`
against refinable integer bounds of a run of thresholds (the upper tails of
a finite law, the tail masses past each grid edge, the geometric tail past
a pure-mode tail threshold) and refines the bounds, one level of doubled
precision at a time, until u is certified above or below each threshold it
reads. This terminates with probability one and makes every draw exact; no
floating point is involved anywhere. There is no rejection loop: a draw
never discards bits it has read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import _pow_scaled, exp_neg, scaled_bounds

_LEVEL_START = 64
#: Refinement gives up past this precision. A comparison streams no deeper
#: than the precision it compares at, so this also caps the bits it reads.
_LEVEL_MAX = 1 << 15


def level_record(p: int, lo: int, hi: int) -> tuple[int, int, int, int]:
    """Bounds [lo, hi] / 2**p of a probability, clipped to [0, 1], with their limit.

    The limit is the deepest comparison the bounds certify: about
    p - log2(hi - lo), so a wide enclosure asks for refinement early.
    """
    one = 1 << p
    # Comparisons, not max/min: this runs for every grid edge a release reads.
    if lo < 0:
        lo = 0
    if hi > one:
        hi = one
    return p, lo, hi, p - (hi - lo).bit_length()


def disjoint(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """True when two level records of the same threshold cannot both be sound."""
    return a[1] << b[0] > b[2] << a[0] or a[2] << b[0] < b[1] << a[0]


def locate(tape: BitTape, bounds: Callable[[object, int], tuple[int, int, int, int]], keys) -> int:
    """How many leading thresholds along ``keys`` lie above one uniform u.

    ``bounds(key, level)`` returns the :func:`level_record` of the key's
    threshold at precision 64 * 2**level; the thresholds must not increase
    along ``keys``. Streams u bit by bit, moves past a threshold once the
    box [u, u + 2**-n) is certified below it, and stops at the first
    threshold the box is certified at or above. Bounds are refined one
    level at a time whenever the next bit would outrun their limit;
    refinement consumes no randomness. With the upper tails P[X >= 1],
    P[X >= 2], ... as thresholds the count is distributed as X, in about
    H(X) + 2 bits.
    """
    next_bit = tape.next_bit
    u = nb = count = 0
    for key in keys:
        level = 0
        p, lo, hi, limit = bounds(key, 0)
        while True:
            if nb + 2 > limit:  # too coarse for u's next bit, or for bits kept from an earlier key
                level += 1
                if _LEVEL_START << level > _LEVEL_MAX:
                    raise EnclosureContractError("enclosure failed to refine")
                p, lo, hi, limit = bounds(key, level)
                continue
            shift = p - nb
            if (u + 1) << shift <= lo:
                break  # u is below this threshold
            if u << shift >= hi:
                return count
            u = (u << 1) | next_bit()
            nb += 1
        count += 1
    return count


class LaplaceScale:
    """Scale t > 0 of the integer Laplace distribution Lap_Z(t)."""

    __slots__ = ("t",)

    def __init__(self, t: "Fraction | int"):
        t = Fraction(t)
        if t <= 0:
            raise ParameterDomainError("Laplace scale must be positive")
        self.t = t


# ---------------------------------------------------------------------------
# Tail masses past the grid edges, for the release's cell draws
# ---------------------------------------------------------------------------


def _mul_down(a: int, b: int, w: int) -> int:
    return (a * b) >> w


def _mul_up(a: int, b: int, w: int) -> int:
    return -((-a * b) >> w)


class CellLaw:
    """Upper-tail masses of a symmetric integer noise law truncated to |eta| < halfwidth.

    With weights w(eta) on the support, S(k) = sum_{k <= eta < halfwidth} w(eta)
    and Z = S(1 - halfwidth). Subclasses precompute scaled-integer data per
    working precision (``_build``) and return outward bounds of S(k) and Z on
    one common scale (``_tail_sums``). Levels are built on first use and
    cached by index; each doubles the precision of the last. Two threads that
    build the same level store equal data, so no lock is needed.
    """

    __slots__ = ("halfwidth", "_guard", "_levels")

    def __init__(self, halfwidth: int, guard: int):
        if halfwidth < 1:
            raise ParameterDomainError("noise half-width must be a positive integer")
        self.halfwidth = halfwidth
        self._guard = guard
        self._levels: dict = {}

    def _build(self, w: int):
        raise NotImplementedError

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        raise NotImplementedError

    def _build_level(self, level: int):
        data = self._levels[level] = self._build((_LEVEL_START << level) + self._guard)
        return data

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of S(k)/Z at ``level``, in the form :func:`locate` reads."""
        p = _LEVEL_START << level
        data = self._levels.get(level) or self._build_level(level)
        s_lo, s_hi, z_lo, z_hi = self._tail_sums(data, k)
        return level_record(p, (s_lo << p) // z_hi, -(-(s_hi << p) // z_lo))


class GaussianCells(CellLaw):
    """Weights exp(-eta^2 / (2 sigma^2)) on |eta| < r, as a table of tail sums.

    The weights follow w(j+1) = w(j) q^(2j+1) with q = exp(-1/(2 sigma^2)), so a
    level costs one ``exp_neg`` and two scaled-integer products per entry.
    The guard bits cover the error the recurrence accumulates over r steps.
    """

    __slots__ = ("_x",)

    def __init__(self, sigma_sq: "Fraction | int", r: int):
        super().__init__(r, 2 * r.bit_length() + 8)
        self._x = 1 / (2 * Fraction(sigma_sq))

    def _build(self, w: int):
        q_lo, q_hi = scaled_bounds(exp_neg(self._x, w), w)
        sq_lo, sq_hi = _mul_down(q_lo, q_lo, w), _mul_up(q_hi, q_hi, w)
        w_lo = w_hi = 1 << w
        lo, hi = [w_lo], [w_hi]
        for _ in range(1, self.halfwidth):
            w_lo, w_hi = _mul_down(w_lo, q_lo, w), _mul_up(w_hi, q_hi, w)
            q_lo, q_hi = _mul_down(q_lo, sq_lo, w), _mul_up(q_hi, sq_hi, w)
            lo.append(w_lo)
            hi.append(w_hi)
        # Tail sums C[j] = sum_{i >= j} w(i) over i < r, with C[r] = 0.
        c_lo = list(accumulate(reversed(lo), initial=0))[::-1]
        c_hi = list(accumulate(reversed(hi), initial=0))[::-1]
        return c_lo, c_hi, c_lo[0] + c_lo[1], c_hi[0] + c_hi[1]

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        c_lo, c_hi, z_lo, z_hi = data
        if k >= 0:
            return c_lo[k], c_hi[k], z_lo, z_hi
        # By symmetry, S(k) = Z - S(1 - k).
        return z_lo - c_lo[1 - k], z_hi - c_hi[1 - k], z_lo, z_hi


class LaplaceCells(CellLaw):
    """Weights q^|eta| on |eta| < m, q = exp(-1/t), through closed-form geometric sums.

    For k >= 0, S(k)/Z = (q^k - q^m) / (1 + q - 2 q^m); negative k mirrors
    through S(k) = Z - S(1 - k). Each draw computes its power of q by
    repeated squaring, so nothing of size m is ever built.
    """

    __slots__ = ("_x",)

    def __init__(self, scale: LaplaceScale, m: int):
        t = scale.t
        super().__init__(m, m.bit_length() + (t.numerator // t.denominator + 1).bit_length() + 8)
        self._x = 1 / t

    def _build(self, w: int):
        q_lo, q_hi = scaled_bounds(exp_neg(self._x, w), w)
        qm_lo, qm_hi = _pow_scaled(q_lo, q_hi, self.halfwidth, w)
        one = 1 << w
        return w, q_lo, q_hi, qm_lo, qm_hi, one + q_lo - 2 * qm_hi, one + q_hi - 2 * qm_lo

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        w, q_lo, q_hi, qm_lo, qm_hi, d_lo, d_hi = data
        if k >= 0:
            a_lo, a_hi = _pow_scaled(q_lo, q_hi, k, w)
            return a_lo - qm_hi, a_hi - qm_lo, d_lo, d_hi
        a_lo, a_hi = _pow_scaled(q_lo, q_hi, 1 - k, w)
        return d_lo - (a_hi - qm_lo), d_hi - (a_lo - qm_hi), d_lo, d_hi

    def geometric_tail(self, g: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of q^g = P[G >= g], G ~ Geo(1 - q), in the form :func:`locate` reads.

        Past the threshold m the Laplace tail is m + G by memorylessness, so
        a tail coordinate's cell edges are thresholds on G. The bounds reuse
        this level's enclosure of q at its working precision; directed
        rounding keeps them sound for any g; for g far past m they are only
        wider, so :func:`locate` refines sooner.
        """
        w, q_lo, q_hi = (self._levels.get(level) or self._build_level(level))[:3]
        return level_record(w, *_pow_scaled(q_lo, q_hi, g, w))
