"""The one exact comparator, and the cell laws the release draws through it.

Every bit a release reads is read by one :func:`locate`: it streams a
uniform dyadic u bit by bit from a :class:`Stream` over a
:class:`~frugaldp.bit_tape.BitTape` against refinable integer bounds of a
run of thresholds (the chances that the shift exceeds j units, that
coordinates stay in their home cells, that a departure lands past its
cells) and refines the bounds, one level of doubled precision at a time,
until u is certified above or below each threshold it reads. This
terminates with probability one and makes every draw exact; no floating
point is involved anywhere. Every draw of a release, the shift first,
shares one stream, which carries the part of u a draw read but did not
need to the next: each locate, and nothing else, moves the interval
[A, A + B) that the outcomes drawn so far leave u in, and logs its draw
so that finer levels can replay it (:func:`_narrow`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import accumulate

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import BoundedCache, RationalBounds, _pow_scaled, exp_neg

_LEVEL_START = 128
#: Refinement gives up past this precision. A comparison streams no deeper
#: than the precision it compares at, so this also caps the bits it reads.
_LEVEL_MAX = 1 << 15
#: Records one level of a cell law memoizes per bounds source; an approx release at d = 10**6, s = 4 reads about 25 000.
_MEMO_CAP = 1 << 16
#: Keys a draw without a level-0 stream reads in order before it searches.
_LINEAR_KEYS = 4
#: Draws share u until B < 2**-_CARRY_BITS; level 0's 64 more bits keep A's and B's rounding far below B, so few refine.
_CARRY_BITS = 64
#: A block of a bin holds at least this many keys and expects at most 1/_BLOCK_KEYS departure.
_BLOCK_KEYS = 8


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
    """One uniform u in [0, 1) that every :func:`locate` of a release draws on, read from a tape.

    ``u`` holds u's first ``n`` bits, uniform on [A, A + B) given the draws since
    u started afresh (A = 0, B = 1). Only :func:`locate` moves A and B: each draw
    carries u into the interval of its count. ``a_lo``, ``a_hi``, ``b_lo``, ``b_hi``
    enclose A and B at level 0; ``history`` holds each draw since the fresh start as
    (bounds, keys, count), and :meth:`level` rebuilds A and B finer by replaying it
    through :func:`_narrow` (cached in ``levels`` until the next carry). u starts
    afresh once B's level-0 lower bound falls to 2**-_CARRY_BITS, or once A and B
    are exact and [A, A + B) is u's box [u, u + 2**-n): the bits held then decided
    the draws and nothing is left to carry.
    """

    __slots__ = ("next_bit", "u", "n", "a_lo", "a_hi", "b_lo", "b_hi", "levels", "history")

    def __init__(self, tape: BitTape):
        self.next_bit = tape.next_bit
        self.restart()

    def restart(self) -> None:
        """Start u afresh: no bits held, A = 0 and B = 1."""
        self.u = self.n = self.a_lo = self.a_hi = 0
        self.b_lo = self.b_hi = 1 << _LEVEL_START
        self.levels, self.history = None, []

    def level(self, level: int) -> tuple[int, int, int, int]:
        """A's and B's bounds at ``level`` >= 1, building the levels up to it that are not built yet."""
        levels = self.levels or []
        while level > len(levels):
            one = 1 << (_LEVEL_START << (len(levels) + 1))
            bounds = 0, 0, one, one  # a fresh u
            for entry in self.history:
                bounds = _narrow(len(levels) + 1, *bounds, *entry)
            self.levels = levels = [*levels, bounds]
        return levels[level - 1]

    def carry(self, a_lo: int, a_hi: int, b_lo: int, b_hi: int, entry: tuple) -> None:
        """Set A's and B's level-0 bounds after a draw, or start afresh; logs ``entry``, (bounds, keys, count)."""
        one = 1 << _LEVEL_START
        if b_lo <= one >> _CARRY_BITS or (
            a_lo == a_hi and b_lo == b_hi and b_lo << self.n == one and a_lo << self.n == self.u << _LEVEL_START
        ):
            return self.restart()
        self.a_lo, self.a_hi, self.b_lo, self.b_hi, self.levels = a_lo, a_hi, b_lo, b_hi, None
        self.history.append(entry)

    def scaled(self, bounds, key, level: int) -> tuple[int, int, int, int]:
        """The record of B times the threshold ``bounds`` gives at ``key``, at ``level`` >= 1's precision."""
        p, lo, hi, _ = bounds(key, level)
        q = _LEVEL_START << level
        _, _, b_lo, b_hi = self.level(level)
        lo, hi = b_lo * lo >> p, -(-b_hi * hi >> p)  # B and the threshold are at most 1: no clipping
        return q, lo, hi, q - (hi - lo).bit_length()


def _narrow(level: int, a_lo: int, a_hi: int, b_lo: int, b_hi: int, bounds, keys, count: int) -> tuple:
    """A and B at ``level`` across a draw that counted ``count`` thresholds along ``keys``: :func:`locate`'s carry."""
    try:
        p, lo, hi, _ = bounds(keys[count], level)
    except IndexError:  # past the keys: T_(c+1) = 0
        p = lo = hi = 0
    x_lo, x_hi = b_lo * lo >> p, -(-b_hi * hi >> p)
    if count:
        p, lo, hi, _ = bounds(keys[count - 1], level)
        b_lo, b_hi = b_lo * lo >> p, -(-b_hi * hi >> p)
    return a_lo + x_lo, a_hi + x_hi, max(b_lo - x_hi, 0), b_hi - x_lo


def locate(
    stream: Stream,
    bounds: Callable[[object, int], tuple[int, int, int, int]],
    keys,
    level0: Iterator[tuple[int, int, int, int]] | None = None,
) -> int:
    """How many leading thresholds along ``keys`` lie above the stream's uniform u.

    ``bounds(key, level)`` must return the :func:`level_record` of the key's
    threshold at precision exactly _LEVEL_START * 2**level, and the thresholds must not
    increase along ``keys``, a sequence. Streams u bit by bit, reading a bit only
    while the box [u, u + 2**-n) holds the bounds it compares with, which
    are refined one level at a time, for no randomness, whenever the next
    bit would outrun their limit. With the upper tails P[X >= 1],
    P[X >= 2], ... as thresholds the count is distributed as X. This is the
    interval algorithm, so it reads fewer than H(X) + 3 bits on average
    (Han and Hoshi); near a grid edge it can exceed H(X) + 2. u - A is
    compared with B T, and u is carried into the count's interval
    [A + B T_(c+1), A + B T_c) (:meth:`Stream.carry`), x = B T_(c+1) and
    y = B T_c from the level-0 records of those two keys (:func:`_narrow`
    at finer levels), whatever level the draw refined to. On a fresh stream
    B = 1 exactly.

    One loop reads bits: it scans the first ``_LINEAR_KEYS`` keys in order,
    then scans one key at a time as a probe, whose index gallops
    (count + 1, + 3, + 7, ...) to a threshold not above u, then bisects
    (Bentley and Yao), so a count c costs O(log c) thresholds. The count is
    the same in any probe order, and keys are indexed, never measured, so a
    ``range`` longer than ``sys.maxsize`` serves. ``level0``, when given,
    yields the level-0 records of B T for each key in order, already scaled
    by B (a run's running product, streamed by
    :func:`~frugaldp.release.draw_runs`); every key is then read in order,
    and ``bounds`` is asked only for levels >= 1, which are scaled by B here.
    """
    next_bit = stream.next_bit
    u, nb, a_lo, a_hi = stream.u, stream.n, stream.a_lo, stream.a_hi
    # u - A is compared with B T; a fresh stream (no history) has B = 1 exactly and scales nothing.
    b_lo, b_hi, scale = stream.b_lo, stream.b_hi, stream.history
    a0_lo, a0_hi = a_lo, a_hi
    # Level-0 bounds of x = B T_(c+1), the first threshold not above u (0 past the keys),
    # and of y = B T_c, the last above it (B before the first): the count's interval.
    x_lo = x_hi = 0
    y_lo, y_hi = b_lo, b_hi
    # [box_lo, box_hi] is the box [u, u + 2**-nb) less the offset [a_lo, a_hi], as
    # integers at the precision held of the last record compared (0: none yet);
    # its dyadic part is width = 2**(held - nb), and a bit read halves it.
    # The loop scans ``run`` in order, counting keys above u, and returns at
    # the first that is not while ``run`` is ``keys``. Past the head each run
    # is one probe (keys[i],), scanned from count = i: keys before index base
    # lie above u, and none from stop on (nor past the end).
    count = held = 0
    run, stop, step = keys, None, 1
    try:
        while True:
            for key in run:
                level = 0
                if level0 is not None:
                    p, lo, hi, limit = next(level0)
                else:
                    p, lo, hi, limit = bounds(key, 0)
                    if scale:  # Stream.scaled at level 0, inlined
                        lo, hi, p = b_lo * lo >> p, -(-b_hi * hi >> p), _LEVEL_START
                        limit = p - (hi - lo).bit_length()
                r_lo, r_hi = lo, hi
                while True:
                    if nb + 2 > limit:  # too coarse for u's next bit, or for bits kept from an earlier key
                        level += 1
                        if _LEVEL_START << level > _LEVEL_MAX:
                            raise EnclosureContractError("enclosure failed to refine")
                        p, lo, hi, limit = stream.scaled(bounds, key, level) if scale else bounds(key, level)
                        continue
                    if p != held:
                        if held or nb or a0_hi:
                            if held:
                                u = (box_lo + a_hi) >> (held - nb)
                            if level:
                                a_lo, a_hi = stream.level(level)[:2]
                            else:
                                a_lo, a_hi = a0_lo, a0_hi
                            width = 1 << (p - nb)
                            box_lo = (u << (p - nb)) - a_hi
                            box_hi = box_lo + width + a_hi - a_lo
                        else:  # a fresh u, read from the tape
                            box_lo, box_hi = 0, 1 << p
                            width = box_hi
                        held = p
                    if box_hi <= lo:
                        y_lo, y_hi = r_lo, r_hi
                        break  # u is below this threshold
                    if box_lo >= hi:
                        x_lo, x_hi = r_lo, r_hi
                        if run is keys:
                            return count
                        # The += 1 below takes count back to the bracket's lower end.
                        stop, count = count, base - 1
                        break
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
                if run is keys:
                    return count
            while stop is None or count < stop:
                i = count + step - 1 if stop is None else (count + stop) // 2
                try:
                    run = (keys[i],)
                except IndexError:
                    stop = i
                    continue
                base, count, step = count, i, step << 1
                break
            else:
                return count
    finally:  # a draw that raises leaves its stream unusable
        if held:
            stream.u, stream.n = (box_lo + a_hi) >> (held - nb), nb
            # u - A is in [x, y), from level-0 records at _LEVEL_START bits by the contract.
            stream.carry(a0_lo + x_lo, a0_hi + x_hi, y_lo - x_hi, y_hi - x_lo, (bounds, keys, count))


# ---------------------------------------------------------------------------
# Tail masses past the grid edges, for the release's cell draws
# ---------------------------------------------------------------------------


class _Levels(dict):
    """A cell law's (``law``) levels by index: each built on first read, with its data and departure memo."""

    __slots__ = ("law",)

    def __missing__(self, level: int):
        data = self.law._build((_LEVEL_START << level) + self.law._guard)
        entry = self[level] = data, BoundedCache(_MEMO_CAP)
        return entry


class CellLaw:
    """A symmetric integer noise law's cell thresholds on the grid ``halfwidth`` * s, as records :func:`locate` reads.

    Subclasses precompute scaled-integer data per working precision
    (``_build``) and give ``tail_ratio(k, level)``, the record of
    P[eta >= k]. Levels are built on first read (:class:`_Levels`), each at
    twice the precision of the last, and memoize the :meth:`departure`,
    :meth:`beyond` and :meth:`all_stay` records in one :class:`~frugaldp.precise_math.BoundedCache`
    of ``_MEMO_CAP`` records. Records are deterministic, so threads share
    them with no lock, and one recomputed after the memo empties is the
    same. A home cell with edges k' above and grid + 1 - k' below the
    centre (eta >= k' or eta <= k' - grid - 1 leaves it) is left with
    p(k') = P[eta >= k'] + P[eta >= grid + 1 - k'], whichever edges the
    law reaches. ``tails``: whether a departure may cross either edge of its
    home cell, so that one more locate over ``beyond_keys(k')`` draws its cell
    (a coordinate with no edge within reach leaves only then). ``category``:
    the law's name, the tape category a release charges its cells' bits to.

    ``d``, the most coordinates a release queues, sets :attr:`quiet`, K, and
    with it the :attr:`bins` a release sorts its keys into; ``all_stay(a, j)``
    = (1 - p(a))^j is at most the chance that j keys keyed from a on all
    stay. At s >= 2 p(k') does not increase on
    [1, halfwidth]: the Gaussian law reaches only the near edge, and the
    Laplace p(k') = (q^k' + q^(grid + 1 - k')) / (1 + q) is convex and
    symmetric about (grid + 1) / 2, so a silent key, in
    [halfwidth, grid + 1 - halfwidth], has p <= p(halfwidth). At s = 1 K is
    the half-width, and every key below it is drawn exactly.
    """

    __slots__ = ("halfwidth", "grid", "_guard", "_levels", "_stride", "_d", "_quiet", "_bins")

    def __init__(self, halfwidth: int, s: int, d: int, guard: int):
        if halfwidth < 1:
            raise ParameterDomainError("noise half-width must be a positive integer")
        self.halfwidth = halfwidth
        self.grid = halfwidth * s
        self._d = d
        self._quiet = self._bins = None
        self._guard = guard
        self._levels = _Levels()
        self._levels.law = self

    @property
    def quiet(self) -> int:
        """K: the least key k' whose level-0 p(k') is at most 2**-(d.bit_length() + 5), else the half-width.

        At s >= 2 (grid > halfwidth) p(k') and its level-0 upper bound do not
        increase with k', and a bisection finds K. At most d keys at or past
        K then expect below 1/32 departure, so each bin from K on is one block.
        """
        if self._quiet is None:
            lo, hi = 1, self.halfwidth
            if self.grid > hi:
                while lo < hi:
                    mid = (lo + hi) // 2
                    p, _, p_hi, _ = self.departure(mid, 0)
                    if p_hi <= (1 << p) >> (self._d.bit_length() + 5):
                        hi = mid
                    else:
                        lo = mid + 1
            self._quiet = hi
        return self._quiet

    @property
    def bins(self) -> tuple[int, int, int, list[tuple[int, int]]]:
        """(K, NB, c, bins): per bin its least key a and block size n; c is the least key of a bin that fills blocks.

        A key k' below K = :attr:`quiet` is in bin k' NB // K, NB =
        d.bit_length() + 5, and one in [K 2^j, K 2^(j+1)) in bin NB + j, up to
        the half-width's, the last, which also holds the silent keys. n is the
        most keys whose level-0 p(a) adds up to at most 1/_BLOCK_KEYS
        departure, or 0 if that is fewer than _BLOCK_KEYS: the bin is too hot
        to fill a block. At s >= 2 p(a) does not increase from bin to bin, so
        every bin from the first that fills blocks does, and the keys drawn
        exactly are those below c (the half-width if no bin fills blocks); at
        s = 1 they are every key below K, the half-width.
        """
        if self._bins is None:
            quiet, nb = self.quiet, self._d.bit_length() + 5
            least = [max(1, -(-t * quiet // nb)) for t in range(nb)]
            least += [quiet << j for j in range((self.halfwidth // quiet).bit_length())]
            bins = []
            for t, a in enumerate(least):
                p, _, hi, _ = self.departure(a, 0)
                n = (1 << p) // max(hi * _BLOCK_KEYS, 1)
                if bins and bins[-1][1]:  # past a bin that fills blocks, whatever the records' rounding
                    n = max(n, _BLOCK_KEYS)
                elif n < _BLOCK_KEYS or t < nb and self.grid == self.halfwidth:
                    n = 0
                bins.append((a, n))
            cold = next((a for a, n in bins if n), self.halfwidth)
            self._bins = quiet, nb, cold, bins
        return self._bins

    def all_stay(self, a: int, j: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of (1 - p(a))^j, memoized: at most the chance that j keys keyed from a on all stay.

        A key k' in [a, halfwidth] leaves with p(k') <= p(a) at s >= 2, and a
        silent key with p <= p(halfwidth) (see :class:`CellLaw`).
        """
        memo = self._levels[level][1]
        rec = memo.get((a, j))
        if rec is None:
            p, lo, hi, _ = self.departure(a, level)
            one = 1 << p
            rec = memo[a, j] = level_record(p, *_pow_scaled(one - hi, one - lo, j, p))
        return rec

    def shift(self, j: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of (s - j) / s, the chance that the shift exceeds j units, at most 1 unit wide."""
        p, s = _LEVEL_START << level, self.grid // self.halfwidth
        x = (s - j) << p
        return level_record(p, x // s, -(-x // s))

    def ratio_records(self, level: int) -> tuple[int, BoundedCache]:
        """The precision of the :meth:`departure` records at ``level``, and their memo keyed by k'."""
        return _LEVEL_START << level, self._levels[level][1]

    def _past(self, k: int, i: int, level: int) -> tuple[int, int, int]:
        """P[eta >= e_i] + P[eta >= e_(i+1)]: the mass of a home cell's outside cells from the i-th on.

        They alternate sides: cell i lies past edge e_i, e_1 = k, e_2 = grid + 1 - k
        on the other side and e_(i+2) = e_i + grid.
        """
        n_lo = n_hi = 0
        for e in (i, i + 1):
            p, lo, hi, _ = self.tail_ratio((k if e & 1 else self.grid + 1 - k) + (e - 1) // 2 * self.grid, level)
            n_lo, n_hi = n_lo + lo, n_hi + hi
        return p, n_lo, n_hi

    def departure(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of p(k) = P[eta >= k] + P[eta >= grid + 1 - k], memoized with :meth:`beyond`'s."""
        memo = self._levels[level][1]
        rec = memo.get(k)
        if rec is None:
            rec = memo[k] = level_record(*self._past(k, 1, level))
        return rec

    def beyond_keys(self, k: int) -> range:
        """The :meth:`beyond` keys of a departure from key k, one per cell past the first, outward."""
        base = -k * self._stride
        return range(base - 1, base - self._stride, -1)

    def beyond(self, key: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of the chance that a departure from key k lands past its j-th cell.

        ``key`` = -(k _stride + j), 1 <= j < _stride, from :meth:`beyond_keys`: one int, below every departure key.
        """
        memo = self._levels[level][1]
        rec = memo.get(key)
        if rec is None:
            k, j = divmod(-key, self._stride)
            p, n_lo, n_hi = self._past(k, j + 1, level)
            _, d_lo, d_hi, _ = self.departure(k, level)
            hi = -(-(n_hi << p) // d_lo) if d_lo else 1 << p
            rec = memo[key] = level_record(p, (n_lo << p) // d_hi, hi)
        return rec


class GaussianCells(CellLaw):
    """Weights exp(-eta^2 / (2 sigma^2)) on |eta| < r, on the grid r s, as a table of tail sums.

    The weights follow w(j+1) = w(j) q^(2j+1) with q = exp(-1/(2 sigma^2)), so a
    level costs one ``exp_neg`` and two scaled-integer products per entry.
    The guard bits cover the error the recurrence accumulates over r steps.
    Truncated at r, the law reaches only the edges within r - 1 of the
    centre. Both edges of a home cell, r s apart, are within reach only at
    s = 1 with r >= 2 (``tails``); a departure then lands in one of the two
    adjacent cells, never farther, so ``beyond`` has one key per departure.
    A level reads up to r - 1 departure keys and as many ``beyond`` keys;
    past ``_MEMO_CAP`` of them its memo empties, as every law's does.
    """

    __slots__ = ("_x", "tails")

    category = "gaussian"

    def __init__(self, sigma_sq: "Fraction | int", r: int, s: int, d: int):
        super().__init__(r, s, d, 2 * r.bit_length() + 8)
        self._x = 1 / (2 * Fraction(sigma_sq))
        self.tails = self.grid <= 2 * (r - 1)
        self._stride = 2

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

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of S(k)/Z, S(k) = sum_{k <= eta < r} w(eta) and Z = S(1 - r), for k > -r.

        Not memoized: the release reads it only through the departure memo.
        """
        p = _LEVEL_START << level
        if k >= self.halfwidth:
            return p, 0, 0, p
        c_lo, c_hi, z_lo, z_hi = self._levels[level][0]
        # By symmetry, S(k) = Z - S(1 - k).
        s_lo, s_hi = (c_lo[k], c_hi[k]) if k >= 0 else (z_lo - c_lo[1 - k], z_hi - c_hi[1 - k])
        return level_record(p, (s_lo << p) // z_hi, -(-(s_hi << p) // z_lo))


class LaplaceCells(CellLaw):
    """The untruncated discrete Laplace law, weights q^|eta|, q = exp(-1/t), on the grid m s.

    P[eta >= k] = q^k / (1 + q) for k >= 1, mirrored for k <= 0, so a
    departure from key k' has p = (q^k' + q^(grid + 1 - k')) / (1 + q).
    Every power is one outward-rounded
    :func:`~frugaldp.precise_math._pow_scaled` on a memo miss, so nothing
    whose size grows with m or t is built; each level keeps a memo of the
    tail ratios besides its departure memo. Past ``horizon`` =
    (_LEVEL_MAX + guard) * ceil(t), q^g lies below every record's precision,
    so a departure's keys may stop there: :func:`locate` never certifies u
    below them.
    """

    __slots__ = ("_x", "horizon")

    category = "laplace"
    tails = True

    def __init__(self, t: "Fraction | int", m: int, s: int, d: int):
        super().__init__(m, s, d, m.bit_length() + (t.numerator // t.denominator + 1).bit_length() + 8)
        self._x = 1 / Fraction(t)
        self.horizon = (_LEVEL_MAX + self._guard) * -(-t.numerator // t.denominator)
        # beyond's cells lie within the horizon: the last is past every comparison.
        self._stride = 2 * (self.horizon // self.grid + 2)

    def _build(self, w: int):
        q = exp_neg(self._x, w)
        return w, q, ((1 << w) + q[0], (1 << w) + q[1]), BoundedCache(_MEMO_CAP)

    def tail_probability(self) -> RationalBounds:
        """Exact rational bounds of p = P[|eta| >= m] = 2 q^m / (1 + q), from level 0."""
        w, q, (den_lo, den_hi), _ = self._levels[0][0]
        qm_lo, qm_hi = _pow_scaled(*q, self.halfwidth, w)
        return RationalBounds(Fraction(2 * qm_lo, den_hi), Fraction(2 * qm_hi, den_lo))

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`level_record` of P[eta >= k] at ``level``: q^k / (1 + q) for k >= 1, mirrored below."""
        w, q, (den_lo, den_hi), memo = self._levels[level][0]
        rec = memo.get(k)
        if rec is None:
            p = _LEVEL_START << level
            a_lo, a_hi = _pow_scaled(*q, k if k > 0 else 1 - k, w)
            lo, hi = (a_lo << p) // den_hi, -(-(a_hi << p) // den_lo)
            rec = memo[k] = level_record(p, lo, hi) if k > 0 else level_record(p, (1 << p) - hi, (1 << p) - lo)
        return rec
