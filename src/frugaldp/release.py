"""The shift-and-round release core shared by the approximate and pure modes.

Both efficient releases draw one shift from {unit, 2 unit, ..., s unit},
with one :func:`~frugaldp.core_samplers.locate` over the thresholds
(s - j) / s, and then walk the coordinates, where the unit is the noise
half-width (r in approx mode, m in pure mode) and the grid, unit * s, is
the cell law's.
Each coordinate holds the cell of its centre, its home cell, and draws only
whether it leaves it, never a noise value: in runs (:func:`draw_runs`),
where one :func:`~frugaldp.core_samplers.locate` draws how many coordinates
stay home before one leaves. A coordinate with no grid edge within reach is
silent: under the truncated Gaussian law it cannot leave and draws nothing.
Each queued key falls in a bin of the law's
(:attr:`~frugaldp.core_samplers.CellLaw.bins`), by integer arithmetic on
its distance k' from its edge alone. The keys of the hot bins are drawn
first, each against its exact departure record; every other bin is cut
into blocks that expect at most 1/8 departure (in k' order when a bin
fills several), and one locate over (1 - p(a))^n, the block's coarse key,
certifies that the n keys of a block all stay, unless it fails: a is at
most the least k' the block holds, so p(a) bounds the chance that each
leaves. A departure across a single edge within reach is certain of its
cell; otherwise (both edges within reach, or the untruncated law) one more
locate draws the cell. Every bit a release reads is read by a locate on one
:class:`~frugaldp.core_samplers.Stream`, whose uniform carries from draw to
draw, from the shift on: about their entropy plus two bits per 64 bits or
so of it. Only locate moves the stream's interval; this module hands it
thresholds and reads back counts.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from operator import itemgetter

from .bit_tape import BitTape
from .core_samplers import CellLaw, Stream, level_record, locate
from .errors import InternalError, ParameterDomainError


class CountVector(namedtuple("CountVector", "d n sums")):
    """True column sums of a binary dataset: d counts over n rows."""

    __slots__ = ()

    def __new__(cls, d: int, n: int, sums: tuple[int, ...]):
        if d < 1 or len(sums) != d:
            raise ParameterDomainError("sums must have length d >= 1")
        if n < 0:
            raise ParameterDomainError("dataset size must be non-negative")
        for i, v in enumerate(sums):
            if not isinstance(v, int):
                raise ParameterDomainError(f"count {i} is not an integer")
            if not 0 <= v <= n:
                raise ParameterDomainError(f"count {i} outside [0, n]")
        return tuple.__new__(cls, (d, n, sums))


class RandomnessReport(
    namedtuple("RandomnessReport", "bits_total bits_by_category boundary_coordinates draws_attempted")
):
    """Exact bit accounting for one release. It depends on the data, so it is not private."""

    __slots__ = ()

    def __new__(
        cls,
        bits_total: int,
        bits_by_category: dict[str, int],
        boundary_coordinates: tuple[int, ...],
        draws_attempted: dict[int, int],
    ):
        if sum(bits_by_category.values()) != bits_total:
            raise InternalError("category bit counts do not sum to the total")
        return tuple.__new__(cls, (bits_total, bits_by_category, boundary_coordinates, draws_attempted))


MechanismResult = namedtuple("MechanismResult", "values report")


def check_release(counts: CountVector, params, unit: int, omega: int | None) -> None:
    """Reject counts of the wrong dimension and a forced shift that is not an int in {unit, ..., unit*s}."""
    if counts.d != params.d:
        raise ParameterDomainError("dimension mismatch between counts and parameters")
    if omega is not None and (not isinstance(omega, int) or omega % unit != 0 or not unit <= omega <= unit * params.s):
        raise ParameterDomainError("forced shift must be an integer unit multiple in {unit..unit*s}")


def shift_and_round(
    tape: BitTape,
    stream: Stream,
    counts: CountVector,
    cells: CellLaw,
    omega: int | None = None,
) -> tuple[MechanismResult, int, list[int]]:
    """Release ``counts`` on the grid of ``cells``; returns the result, the shift and the departed.

    Draws the shift unless ``omega`` forces it, and then the cells, on
    ``stream``, the release's uniform: one locate over the thresholds
    (s - j) / s, j = 1..s - 1, counts c, and the shift is (s - c) units, so
    that at a power-of-two s it is 1 + u's first log2 s bits read as an
    integer, in units. The report books the bits the call reads from ``tape``
    under "shift" and ``cells.category``, each if any. The departed are the
    coordinates released outside the cell of their centre, in the order drawn.
    """
    start = tape.bits_consumed
    unit, grid, tails = cells.halfwidth, cells.grid, cells.tails
    quiet, nb, cold, bins = cells.bins
    hot_lo, quiet2 = 1 - cold, 2 * quiet  # the keys k whose k' = k or 1 - k is below cold are drawn exactly
    values = []
    boundary = []
    queued, keys = [], []  # the coordinates draw_runs draws, each holding its home cell
    lanes = {}  # the other boundary keys, by bin: coordinate, key, coordinate, key, ...
    silent, silent_keys = [], []  # in the half-width's bin
    old = tape.charge("shift")
    try:
        if omega is None:
            s = grid // unit
            omega = unit * (s - locate(stream, cells.shift, range(1, s)))
        # Silent coordinates draw nothing, so one category covers the loop.
        shifted = tape.bits_consumed
        tape.charge(cells.category)
        base, top = omega - unit + 1, grid - unit + 1  # center - reach and grid - reach, reach = unit - 1
        for i, s_i in enumerate(counts.sums):
            # The grid edges E in (center - reach, center + reach], as keys
            # E - center: the release reaches E exactly when eta >= E - center.
            # With x = center - reach, the least is low + grid, low = x - x % grid.
            x = s_i + base
            r = x % grid
            low, k = x - r, top - r
            if k < unit:  # keyed by an edge of its home cell, the one at k (see draw_runs)
                boundary.append(i)
                if k <= 0:
                    low += grid
                if hot_lo < k < cold:
                    queued.append(i)
                    keys.append(k)
                else:  # into the bin of k' (CellLaw.bins)
                    kk = k if k > 0 else 1 - k
                    t = kk * nb // quiet if kk < quiet else nb if kk < quiet2 else nb - 1 + (kk // quiet).bit_length()
                    try:
                        lane = lanes[t]
                    except KeyError:
                        lane = lanes[t] = []
                    lane.append(i)
                    lane.append(k)
            elif tails:  # no edge within reach, and home is the lower cell
                silent.append(i)
                silent_keys.append(k)
            values.append(low)
        blocks = []  # (first position, a key at most the least k' it holds) of each block, in queue order
        if lanes or silent:  # the lanes in bin order, then the silent keys, drawn exactly if no bin fills blocks
            groups = [(bins[t], lane[::2], lane[1::2], True) for t, lane in sorted(lanes.items())]
            groups.append(((unit, bins[-1][1]), silent, silent_keys, False))
            for (a, n), q, ks, keyed in groups:
                if n:  # c blocks of at most n keys, as even as can be
                    e, m = len(keys), len(q)
                    c = -(-m // n)
                    if not keyed:  # silent keys, each with p at most p(half-width)
                        blocks += [(e + j * m // c, a) for j in range(c)]
                    elif c == 1:  # a key's |k| is k' or k' - 1, and k' is at least the bin's least key
                        blocks.append((e, max(a, min(map(abs, ks)))))
                    else:  # in k' order, each behind the least k' it holds
                        kks = [k if k > 0 else 1 - k for k in ks]
                        order = itemgetter(*sorted(range(m), key=kks.__getitem__))
                        q, ks, kks = order(q), order(ks), order(kks)
                        blocks += [(e + j * m // c, kks[j * m // c]) for j in range(c)]
                queued += q
                keys += ks
        departed = draw_runs(stream, cells, grid, queued, keys, values, blocks)
    finally:
        tape.charge(old)
    end = tape.bits_consumed
    by_cat = {name: n for name, n in (("shift", shifted - start), (cells.category, end - shifted)) if n}
    # One draw for each paid coordinate, on a boundary or departed, in index order (a departed
    # coordinate off the boundary is a silent one, queued only under a law with tails).
    paid = sorted({*boundary, *departed}) if departed and len(queued) > len(boundary) else boundary
    report = RandomnessReport(end - start, by_cat, tuple(boundary), dict.fromkeys(paid, 1))
    return MechanismResult(tuple(values), report), omega, departed


def _products(cells: CellLaw, keys: list, b: int, end: int, level: int, lo: int, hi: int):
    """The records of B T_1, B T_2, ... along the keys from index b to ``end`` at ``level``, for B in [lo, hi]."""
    p, memo = cells.ratio_records(level)
    one = 1 << p
    for i in range(b, end):
        k = keys[i]
        if k <= 0:
            k = 1 - k
        _, a_lo, a_hi, _ = memo.get(k) or cells.departure(k, level)
        # Outward rounding: the lower product down, the upper product up.
        # Since 0 <= a_lo <= a_hi <= one, 0 <= lo <= hi <= one holds with no clipping.
        lo = lo * (one - a_hi) >> p
        hi = -(-hi * (one - a_lo) >> p)
        yield p, lo, hi, p - (hi - lo).bit_length()


def _run(cells: CellLaw, keys: list, b: int, end: int, stay=None):
    """The thresholds of a run from key b to ``end``, as ``bounds(j, level)`` for :func:`locate`.

    T_j = prod_{b <= i <= j} (1 - p_i), unscaled, or (T_j - L) / (1 - L), L =
    ``stay(level)``'s record, in a block whose coarse key u is past. Each
    level walks its products forward and starts over when a replay
    (:meth:`~frugaldp.core_samplers.Stream.level`) asks for a key behind it.
    """
    walks = {}  # per level: the last key read, its record, the level's products

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        i, rec, run = walks.get(level, (end, None, None))
        if j < i:  # a first read at this level, or a replay behind its walk: start over
            one = 1 << cells.ratio_records(level)[0]
            i, run = b - 1, _products(cells, keys, b, end, level, one, one)
        while i < j:
            i += 1
            rec = next(run)
        walks[level] = i, rec, run
        if stay is None:
            return rec
        p, lo, hi, _ = rec
        _, l_lo, l_hi, _ = stay(level)
        one = 1 << p
        lo, hi = ((lo - l_hi) << p) // max(one - l_lo, 1), -(-((hi - l_lo) << p) // max(one - l_hi, 1))
        return level_record(p, lo, hi)

    return bounds


def draw_runs(stream: Stream, cells: CellLaw, grid: int, queued: list, keys: list, values: list, blocks=()):
    """Draw the cells of the queued coordinates in runs that stay home, on ``stream``; returns the departed.

    Coordinate ``queued[i]`` holds its home cell, the one of its centre, with
    an edge k = ``keys[i]`` above the centre (k > 0) or k <= 0 from it, and
    leaves with p = ``cells.departure(k')``, k' = k or 1 - k. From a run start
    b, the count L that stay home has upper tails T_j = prod_{b <= i < b + j}
    (1 - p_i): one :func:`locate` draws L over the level-0 records of B T_j
    (:func:`_products`, from the stream's B), and carries u into
    [A + B T_(L+1), A + B T_L) of b + L, which crosses the edge at k, or under
    a law with tails lands in the cell one more locate over ``cells.beyond``
    draws; the next run starts from the carried B. The keys before the first
    of ``blocks`` are drawn so. A block, (e, a), spans the n keys from e to
    the next block or the end, all of one bin
    (:attr:`~frugaldp.core_samplers.CellLaw.bins`) and none keyed below a (a
    silent key counts as keyed at the half-width), so each leaves with p at
    most p(a). Its coarse key is a draw of its own: one locate over the one
    threshold L = ``cells.all_stay(a, n)`` = (1 - p(a))^n. Below it every
    key of the block stays home, and u is carried into [A, A + B L);
    otherwise u is carried into [A + B L, A + B), and the block's keys run
    over (T_j - L) / (1 - L). Every draw carries, the queue's last too, and
    only locate moves A and B. The departed are returned as coordinates,
    ``queued[i]``, in the order drawn.
    """
    tails, end, departed = cells.tails, len(keys), []
    b, g, stop = 0, 0, blocks[0][0] if blocks else end  # the run's start, the next block, the run's end
    while True:
        if b < stop:
            run = _products(cells, keys, b, stop, 0, stream.b_lo, stream.b_hi)
            i = b + locate(stream, _run(cells, keys, b, stop), range(b, stop), run)
        else:
            i = b
        while i == stop:  # every key of the run stayed home: on to the next block, if any
            if stop == end:
                return departed
            b, a = blocks[g]
            g += 1
            stop = blocks[g][0] if g < len(blocks) else end
            coarse, b_lo, b_hi = partial(cells.all_stay, a), stream.b_lo, stream.b_hi
            if locate(stream, coarse, (stop - b,)):  # u is below L: every key of the block stays home
                i = stop
                continue
            # u is past L. At level 0 the block's records are B T_j - B L, from the B before the
            # coarse draw, unless its carry started u afresh: then locate reads (T_j - L) / (1 - L).
            stay, run = partial(coarse, stop - b), None
            if stream.history:
                p, l_lo, l_hi, _ = stay(0)
                x_lo, x_hi = b_lo * l_lo >> p, -(-b_hi * l_hi >> p)
                products = _products(cells, keys, b, stop, 0, b_lo, b_hi)
                run = (level_record(q, lo - x_hi, hi - x_lo) for q, lo, hi, _ in products)
            i = b + locate(stream, _run(cells, keys, b, stop, stay), range(b, stop), run)
        departed.append(queued[i])
        k = keys[i]
        if tails:  # c // 2 + 1 cells out, past the edge at k (c even) or the other (c odd)
            c = locate(stream, cells.beyond, cells.beyond_keys(k if k > 0 else 1 - k))
            values[queued[i]] += grid * (c // 2 + 1) if (k > 0) == (c % 2 == 0) else -grid * (c // 2 + 1)
        else:
            values[queued[i]] += grid if k > 0 else -grid
        b = i + 1
