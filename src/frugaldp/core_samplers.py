"""The one exact comparator, and the cell laws the release draws through it.

Every noise decision of a release that spends bits is one :func:`locate`:
it streams a uniform dyadic u bit by bit from a
:class:`~frugaldp.bit_tape.BitTape` against refinable integer bounds of a
run of thresholds (the tail masses past each grid edge, the geometric tail
past a pure-mode tail threshold, the chance that the next coordinates hold
a tail coordinate) and refines the bounds, one level of doubled precision
at a time, until u is certified above or below each threshold it reads.
This terminates with probability one and makes every draw exact; no
floating point is involved anywhere. A ``locate`` never discards a bit it
has read. The release's other draws are plain: a pure-mode tail
coordinate's fair sign bit, and the shared shift, which
:meth:`~frugaldp.bit_tape.BitTape.uniform_range` draws by rejection, so a
shift whose s is not a power of two may discard bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import BoundedCache, _pow_scaled, exp_neg

_LEVEL_START = 64
#: Refinement gives up past this precision. A comparison streams no deeper
#: than the precision it compares at, so this also caps the bits it reads.
_LEVEL_MAX = 1 << 15
#: Records one level of a cell law memoizes per bounds source.
_MEMO_CAP = 1 << 14


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


def locate(
    tape: BitTape,
    bounds: Callable[[object, int], tuple[int, int, int, int]],
    keys,
    level0: Iterator[tuple[int, int, int, int]] | None = None,
) -> int:
    """How many leading thresholds along ``keys`` lie above one uniform u.

    ``bounds(key, level)`` returns the :func:`level_record` of the key's
    threshold at precision 64 * 2**level; the thresholds must not increase
    along ``keys``. Streams u bit by bit, moves past a threshold once the
    box [u, u + 2**-n) is certified below it, and stops at the first
    threshold the box is certified at or above. Bounds are refined one
    level at a time whenever the next bit would outrun their limit;
    refinement consumes no randomness. With the upper tails P[X >= 1],
    P[X >= 2], ... as thresholds the count is distributed as X. This is the
    interval algorithm, so it reads fewer than H(X) + 3 bits on average
    (Han and Hoshi); near a grid edge it can exceed H(X) + 2.

    ``level0``, when given, yields the level-0 record of each key's
    threshold in the order of ``keys``, one per key read (a run's running
    product, streamed by :func:`~frugaldp.release.draw_runs`); ``bounds`` is
    then asked only for levels >= 1. It yields what ``bounds(key, 0)``
    would return, so the draw is the same either way.
    """
    next_bit = tape.next_bit
    u = nb = count = 0
    for key in keys:
        level = 0
        p, lo, hi, limit = bounds(key, 0) if level0 is None else next(level0)
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
    cached by index; each doubles the precision of the last. A level also
    memoizes the records its bounds sources return, in one
    :class:`~frugaldp.precise_math.BoundedCache` of ``_MEMO_CAP`` records per
    source, so a threshold is computed once, not on every read. Records are
    deterministic: two threads that build the same level or record store
    equal data, so no lock is needed.
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
        """The level's data and its two record memos (tail ratios, geometric tails), built whole."""
        data = self._build((_LEVEL_START << level) + self._guard)
        entry = self._levels[level] = data, BoundedCache(_MEMO_CAP), BoundedCache(_MEMO_CAP)
        return entry

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of S(k)/Z at ``level``, in the form :func:`locate` reads."""
        data, memo, _ = self._levels.get(level) or self._build_level(level)
        rec = memo.get(k)
        if rec is None:
            p = _LEVEL_START << level
            s_lo, s_hi, z_lo, z_hi = self._tail_sums(data, k)
            rec = memo[k] = level_record(p, (s_lo << p) // z_hi, -(-(s_hi << p) // z_lo))
        return rec


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
        q_lo, q_hi = exp_neg(self._x, w)
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


#: Digit tables of a power of q: rows j < _ROWS hold q^(b * _RADIX**j) for b < _RADIX.
_RADIX_BITS = 8
_RADIX = 1 << _RADIX_BITS
_ROWS = 4


def _power_table(q_lo: int, q_hi: int, w: int):
    """Digit rows of outward bounds of q^(b * R**j), and the top base q^(R**_ROWS).

    Each entry is the previous one times the row's base q^(R**j), rounded
    down for the lower and up for the upper bound, as in ``_pow_scaled``.
    """
    rows = []
    base_lo, base_hi = q_lo, q_hi
    for _ in range(_ROWS):
        lo = hi = 1 << w
        row_lo, row_hi = [lo], [hi]
        for _ in range(1, _RADIX):
            lo, hi = _mul_down(lo, base_lo, w), _mul_up(hi, base_hi, w)
            row_lo.append(lo)
            row_hi.append(hi)
        rows.append((row_lo, row_hi))
        base_lo, base_hi = _mul_down(lo, base_lo, w), _mul_up(hi, base_hi, w)
    return rows, (base_lo, base_hi)


def _power(table, k: int, w: int) -> tuple[int, int]:
    """Outward bounds of q^k from a :func:`_power_table`: one product per base-R digit of k."""
    rows, top = table
    lo = hi = 1 << w
    for row_lo, row_hi in rows:
        if not k:
            return lo, hi
        b = k & (_RADIX - 1)
        k >>= _RADIX_BITS
        lo = (lo * row_lo[b]) >> w
        hi = -((-hi * row_hi[b]) >> w)
    if k:  # past the table: the remaining digits by squaring the top base
        t_lo, t_hi = _pow_scaled(*top, k, w)
        lo, hi = _mul_down(lo, t_lo, w), _mul_up(hi, t_hi, w)
    return lo, hi


class LaplaceCells(CellLaw):
    """Weights q^|eta| on |eta| < m, q = exp(-1/t), through closed-form geometric sums.

    For k >= 0, S(k)/Z = (q^k - q^m) / (1 + q - 2 q^m); negative k mirrors
    through S(k) = Z - S(1 - k). Each level keeps digit tables of
    q^(b * 256**j) for b < 256, j < 4 (:func:`_power_table`), so a power of q
    costs one product per base-256 digit of its exponent, and nothing whose
    size grows with m or t is built.
    """

    __slots__ = ("_x",)

    def __init__(self, t: "Fraction | int", m: int):
        super().__init__(m, m.bit_length() + (t.numerator // t.denominator + 1).bit_length() + 8)
        self._x = 1 / Fraction(t)

    def _build(self, w: int):
        q_lo, q_hi = exp_neg(self._x, w)
        table = _power_table(q_lo, q_hi, w)
        qm_lo, qm_hi = _power(table, self.halfwidth, w)
        one = 1 << w
        return w, table, qm_lo, qm_hi, one + q_lo - 2 * qm_hi, one + q_hi - 2 * qm_lo

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        w, table, qm_lo, qm_hi, d_lo, d_hi = data
        if k >= 0:
            a_lo, a_hi = _power(table, k, w)
            return a_lo - qm_hi, a_hi - qm_lo, d_lo, d_hi
        a_lo, a_hi = _power(table, 1 - k, w)
        return d_lo - (a_hi - qm_lo), d_hi - (a_lo - qm_hi), d_lo, d_hi

    def geometric_tail(self, g: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of q^g = P[G >= g], G ~ Geo(1 - q), in the form :func:`locate` reads.

        Past the threshold m the Laplace tail is m + G by memorylessness, so
        a tail coordinate's cell edges are thresholds on G. The bounds reuse
        this level's power table at its working precision; directed
        rounding keeps them sound for any g; for g far past m they are only
        wider, so :func:`locate` refines sooner.
        """
        data, _, memo = self._levels.get(level) or self._build_level(level)
        rec = memo.get(g)
        if rec is None:
            w, table = data[:2]
            rec = memo[g] = level_record(w, *_power(table, g, w))
        return rec
