"""The one exact comparator, and the cell laws the release draws through it.

Every noise decision of a release that spends bits is one :func:`locate`:
it streams a uniform dyadic u bit by bit from a
:class:`~frugaldp.bit_tape.BitTape` against refinable integer bounds of a
run of thresholds (the tail masses past each grid edge, the geometric tail
past a pure-mode tail threshold, the chance that the next coordinates hold
a tail coordinate) and refines the bounds, one level of doubled precision
at a time, until u is certified above or below each threshold it reads.
This terminates with probability one and makes every draw exact; no
floating point is involved anywhere. A ``locate`` from a tape forgets, when
it returns, the part of u it read but did not need; draws that share a
:class:`Stream` (the runs of :func:`~frugaldp.release.draw_runs`) carry it
to the next draw instead. The release's other draws are plain: a pure-mode
tail coordinate's fair sign bit, and the shared shift, which
:meth:`~frugaldp.bit_tape.BitTape.uniform_range` draws by rejection, so a
shift whose s is not a power of two may discard bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import BoundedCache, RationalBounds, _pow_scaled, exp_neg

_LEVEL_START = 64
#: Refinement gives up past this precision. A comparison streams no deeper
#: than the precision it compares at, so this also caps the bits it reads.
_LEVEL_MAX = 1 << 15
#: Records one level of a cell law memoizes per bounds source.
_MEMO_CAP = 1 << 14
#: Keys a draw without a level-0 stream reads in order before it searches.
_LINEAR_KEYS = 4


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


class Stream:
    """One uniform u in [0, 1) that a sequence of :func:`locate` draws share, read from a tape.

    ``u`` holds u's first ``n`` bits. A draw handed a stream in place of a
    tape starts from those bits and leaves the ones it read. Its thresholds
    count in u - A, for an offset A that ``offsets[level]`` encloses as
    integers (lo, hi) at that level's precision: the owner sets level 0
    and appends a level before the draw's ``bounds`` returns a record of it.
    """

    __slots__ = ("next_bit", "u", "n", "offsets")

    def __init__(self, tape: BitTape):
        self.next_bit = tape.next_bit
        self.u = self.n = 0
        self.offsets = [(0, 0)]


def locate(
    tape: "BitTape | Stream",
    bounds: Callable[[object, int], tuple[int, int, int, int]],
    keys,
    level0: Iterator[tuple[int, int, int, int]] | None = None,
) -> int:
    """How many leading thresholds along ``keys`` lie above one uniform u.

    ``bounds(key, level)`` returns the :func:`level_record` of the key's
    threshold at precision 64 * 2**level; the thresholds must not increase
    along ``keys``, a sequence. Streams u bit by bit, reading a bit only
    while the box [u, u + 2**-n) holds the bounds it compares with, which
    are refined one level at a time, for no randomness, whenever the next
    bit would outrun their limit. With the upper tails P[X >= 1],
    P[X >= 2], ... as thresholds the count is distributed as X. This is the
    interval algorithm, so it reads fewer than H(X) + 3 bits on average
    (Han and Hoshi); near a grid edge it can exceed H(X) + 2. From a tape, u
    is fresh and forgotten on return; from a :class:`Stream`, u is the
    stream's, less its offset.

    The first ``_LINEAR_KEYS`` keys are read in order; past them the index
    gallops (count + 1, + 3, + 7, ...) to a threshold not above u, then
    bisects (Bentley and Yao), so a count c costs O(log c) thresholds. The
    count is the same in any probe order, and keys are indexed, never
    measured, so a ``range`` longer than ``sys.maxsize`` serves. ``level0``,
    when given, yields what ``bounds(key, 0)`` returns for each key in order
    (a run's running product, streamed by :func:`~frugaldp.release.draw_runs`);
    every key is then read in order, and ``bounds`` is asked only for
    levels >= 1.
    """
    next_bit = tape.next_bit
    if type(tape) is Stream:
        u, nb, offsets = tape.u, tape.n, tape.offsets
    else:
        nb = a_lo = a_hi = 0
        offsets = None
    # [box_lo, box_hi] is the box [u, u + 2**-nb) less the offset [a_lo, a_hi], as
    # integers at the precision held of the last record compared (0: none yet);
    # its dyadic part is width = 2**(held - nb), and a bit read halves it.
    count = held = 0
    try:
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
                if p != held:
                    if held or offsets is not None:
                        if held:
                            u = (box_lo + a_hi) >> (held - nb)
                        if offsets is not None:
                            a_lo, a_hi = offsets[level]
                        width = 1 << (p - nb)
                        box_lo = (u << (p - nb)) - a_hi
                        box_hi = box_lo + width + a_hi - a_lo
                    else:  # a fresh u, read from the tape
                        box_lo, box_hi = 0, 1 << p
                        width = box_hi
                    held = p
                if box_hi <= lo:
                    break  # u is below this threshold
                if box_lo >= hi:
                    return count
                nb += 1
                width >>= 1
                if next_bit():
                    box_lo += width
                else:
                    box_hi -= width
            count += 1
            if level0 is None and count == _LINEAR_KEYS:
                break  # on to the search
        else:
            return count
        # Keys before index count lie above u, and none from stop on (nor past the end).
        stop, step = None, 1
        while stop is None or count < stop:
            i = count + step - 1 if stop is None else (count + stop) // 2
            try:
                key = keys[i]
            except IndexError:
                stop = i
                continue
            level = 0
            p, lo, hi, limit = bounds(key, 0)
            while True:
                if nb + 2 > limit:
                    level += 1
                    if _LEVEL_START << level > _LEVEL_MAX:
                        raise EnclosureContractError("enclosure failed to refine")
                    p, lo, hi, limit = bounds(key, level)
                    continue
                if p != held:
                    if held or offsets is not None:
                        if held:
                            u = (box_lo + a_hi) >> (held - nb)
                        if offsets is not None:
                            a_lo, a_hi = offsets[level]
                        width = 1 << (p - nb)
                        box_lo = (u << (p - nb)) - a_hi
                        box_hi = box_lo + width + a_hi - a_lo
                    else:  # a fresh u, read from the tape
                        box_lo, box_hi = 0, 1 << p
                        width = box_hi
                    held = p
                if box_hi <= lo:
                    count, step = i + 1, step << 1
                    break
                if box_lo >= hi:
                    stop = i
                    break
                nb += 1
                width >>= 1
                if next_bit():
                    box_lo += width
                else:
                    box_hi -= width
        return count
    finally:
        if offsets is not None and held:
            tape.u, tape.n = (box_lo + a_hi) >> (held - nb), nb


# ---------------------------------------------------------------------------
# Tail masses past the grid edges, for the release's cell draws
# ---------------------------------------------------------------------------


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

    def _level(self, level: int):
        """The level's data and memos of tail ratios, geometric tails and any-tail powers, built once."""
        entry = self._levels.get(level)
        if entry is None:
            data = self._build((_LEVEL_START << level) + self._guard)
            entry = self._levels[level] = data, *(BoundedCache(_MEMO_CAP) for _ in range(3))
        return entry

    def ratio_records(self, level: int) -> tuple[int, BoundedCache]:
        """The precision of the :meth:`tail_ratio` records at ``level``, and their memo keyed by k."""
        return _LEVEL_START << level, self._level(level)[1]

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of S(k)/Z at ``level``, in the form :func:`locate` reads."""
        data, memo, _, _ = self._level(level)
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
        sq_lo, sq_hi = q_lo * q_lo >> w, -(-q_hi * q_hi >> w)
        w_lo = w_hi = 1 << w
        lo, hi = [w_lo], [w_hi]
        for _ in range(1, self.halfwidth):
            w_lo, w_hi = w_lo * q_lo >> w, -(-w_hi * q_hi >> w)
            q_lo, q_hi = q_lo * sq_lo >> w, -(-q_hi * sq_hi >> w)
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

    For k >= 0, S(k)/Z = (q^k - q^m) / Z with Z = 1 + q - 2 q^m; negative k
    mirrors through S(k) = Z - S(1 - k). The same constants give the
    untruncated law's tail mass p = P[|eta| >= m] = 2 q^m / (1 + q) and
    1 - p = Z / (1 + q). Each level keeps enclosures of q and of 1 - p, and
    every power the bounds sources read (q^k of a body cell, q^g of a tail
    cell, (1 - p)^j of the tail set) is one outward-rounded
    :func:`~frugaldp.precise_math._pow_scaled` on a memo miss, so nothing
    whose size grows with m or t is built.

    Past ``horizon`` = (_LEVEL_MAX + guard) * ceil(t), q^g < e^-(_LEVEL_MAX + guard)
    lies below every record's precision, so a tail cell's keys may stop
    there: :func:`locate` never certifies u below them.
    """

    __slots__ = ("_x", "horizon")

    def __init__(self, t: "Fraction | int", m: int):
        super().__init__(m, m.bit_length() + (t.numerator // t.denominator + 1).bit_length() + 8)
        self._x = 1 / Fraction(t)
        self.horizon = (_LEVEL_MAX + self._guard) * -(-t.numerator // t.denominator)

    def _build(self, w: int):
        q = exp_neg(self._x, w)
        qm_lo, qm_hi = _pow_scaled(*q, self.halfwidth, w)
        one = 1 << w
        z_lo, z_hi = one + q[0] - 2 * qm_hi, one + q[1] - 2 * qm_lo
        stay = max(0, (z_lo << w) // (one + q[1])), -(-(z_hi << w) // (one + q[0]))
        return w, q, stay, (qm_lo, qm_hi), (z_lo, z_hi), (one + q[0], one + q[1])

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        w, q, _, (qm_lo, qm_hi), (z_lo, z_hi), _ = data
        if k >= 0:
            a_lo, a_hi = _pow_scaled(*q, k, w)
            return a_lo - qm_hi, a_hi - qm_lo, z_lo, z_hi
        a_lo, a_hi = _pow_scaled(*q, 1 - k, w)
        return z_lo - (a_hi - qm_lo), z_hi - (a_lo - qm_hi), z_lo, z_hi

    def tail_probability(self) -> RationalBounds:
        """Exact rational bounds of p = P[|eta| >= m] = 2 q^m / (1 + q), untruncated, from level 0."""
        _, _, _, (qm_lo, qm_hi), _, (den_lo, den_hi) = self._level(0)[0]
        return RationalBounds(Fraction(2 * qm_lo, den_hi), Fraction(2 * qm_hi, den_lo))

    def geometric_tail(self, g: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of q^g = P[G >= g], G ~ Geo(1 - q), in the form :func:`locate` reads.

        Past the threshold m the Laplace tail is m + G by memorylessness, so
        a tail coordinate's cell edges are thresholds on G. The bounds are
        this level's enclosure of q raised to g at its working precision;
        directed rounding keeps them sound for any g; for g far past m they
        are only wider, so :func:`locate` refines sooner.
        """
        data, _, memo, _ = self._level(level)
        rec = memo.get(g)
        if rec is None:
            w, q = data[:2]
            rec = memo[g] = level_record(w, *_pow_scaled(*q, g, w))
        return rec

    def any_tail(self, j: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of 1 - (1 - p)**j, the chance that j coordinates hold a tail coordinate.

        The tail-set draw reads it for 1 <= j <= d, from this level's
        outward-rounded enclosure of 1 - p raised to j.
        """
        data, _, _, memo = self._level(level)
        rec = memo.get(j)
        if rec is None:
            w, _, stay = data[:3]
            lo, hi = _pow_scaled(*stay, j, w)
            rec = memo[j] = level_record(w, (1 << w) - hi, (1 << w) - lo)
        return rec
