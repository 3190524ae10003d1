"""The shift-and-round release core shared by the approximate and pure modes.

Both efficient releases draw one shift from {unit, 2 unit, ..., s unit} and
then walk the coordinates, where the unit is the noise half-width (r in
approx mode, m in pure mode) and the grid is unit * s. A coordinate whose
rounded value is the same for every noise value in (-unit, unit) is released
silently and costs no bits; any other draws its grid cell from the truncated
noise law. Windows with one grid edge (all, when s >= 2) are drawn in runs
(:func:`draw_runs`): one :func:`~frugaldp.core_samplers.locate` draws how
many coordinates stay in their centre's cell before one leaves, over the
run's running products of stay-home probabilities, streamed at level 0.
The runs of a queue longer than three keys share one uniform, carried
through each departure's interval, so the cells cost about their entropy
plus two bits per 32 bits or so of it, where the uniform starts afresh. A
window with two edges (s = 1) has its own locate. Pure mode adds a tail set
drawn up front; a tail coordinate's noise is +-(m + G) with G geometric, so
it too draws only its cell: one fair sign bit, then one locate that searches the
geometric tail masses at its grid edges, reading O(log c) of them for the
c-th cell out. Every paid coordinate thus draws its cell, never a noise value.
"""

from __future__ import annotations

from collections import namedtuple

from .bit_tape import BitTape
from .core_samplers import CellLaw, Stream, locate
from .errors import InternalError, ParameterDomainError

#: Runs since a fresh start share one uniform until they narrow it to
#: 2**-_CARRY_BITS; the rest of level 0's precision keeps their map exact
#: enough that a comparison rarely refines.
_CARRY_BITS = 32
#: A queue of at most this many keys draws each run on a fresh u from the
#: tape: the bit or so that carrying would save there does not pay for a stream.
_SHORT_QUEUE = 3


class CountVector(namedtuple("CountVector", "d n sums")):
    """True column sums of a binary dataset: d counts over n rows."""

    __slots__ = ()

    def __new__(cls, d: int, n: int, sums: tuple[int, ...]):
        if d < 1 or len(sums) != d:
            raise ParameterDomainError("sums must have length d >= 1")
        if n < 0:
            raise ParameterDomainError("dataset size must be non-negative")
        for i, v in enumerate(sums):
            if not 0 <= v <= n:
                raise ParameterDomainError(f"count {i} outside [0, n]")
        return tuple.__new__(cls, (d, n, sums))


class RandomnessReport(
    namedtuple("RandomnessReport", "bits_total bits_by_category boundary_coordinates draws_attempted")
):
    """Exact bit accounting for one mechanism invocation."""

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
    """Reject counts of the wrong dimension and a forced shift off {unit, ..., unit*s}."""
    if counts.d != params.d:
        raise ParameterDomainError("dimension mismatch between counts and parameters")
    if omega is not None and (omega % unit != 0 or not unit <= omega <= unit * params.s):
        raise ParameterDomainError("forced shift must be a unit multiple in {unit..unit*s}")


def draw_shift(tape: BitTape, unit: int, s: int) -> int:
    """The shared shift, uniform on {unit, 2 unit, ..., s unit}."""
    with tape.category("shift"):
        return unit * tape.uniform_range(s)


def build_report(
    tape: BitTape,
    start: tuple[int, dict[str, int]],
    boundary: tuple[int, ...],
    attempts: dict[int, int],
) -> RandomnessReport:
    """The bits drawn since the ``tape.snapshot()`` taken as ``start``, by category."""
    start_bits, start_log = start
    by_cat = {}
    for name, count in tape.draw_log.items():
        delta = count - start_log.get(name, 0)
        if delta:
            by_cat[name] = delta
    return RandomnessReport(tape.bits_consumed - start_bits, by_cat, boundary, attempts)


def shift_and_round(
    tape: BitTape,
    start: tuple[int, dict[str, int]],
    counts: CountVector,
    s: int,
    cells: CellLaw,
    noise: str,
    omega: int | None = None,
    tail: frozenset[int] = frozenset(),
) -> tuple[MechanismResult, int]:
    """Release ``counts`` on the grid cells.halfwidth * s; returns the result and the shift.

    Draws the shift unless ``omega`` forces it. Coordinates in ``tail`` take
    noise +-(unit + G) with G geometric: one fair sign bit, then their cell
    from ``cells.geometric_tail`` (bits under "tail"). The others are silent
    or draw their cell from ``cells`` (bits under ``noise``). ``start`` is
    the tape snapshot the report counts from, taken before any pre-step.
    """
    unit = cells.halfwidth
    grid = unit * s
    reach = unit - 1
    if omega is None:
        omega = draw_shift(tape, unit, s)
    values = []
    boundary = []
    queued, keys = [], []  # the single-edge coordinates, for draw_runs
    # Silent coordinates draw nothing, so one category block covers the loop.
    with tape.category(noise):
        for i, s_i in enumerate(counts.sums):
            center = s_i + omega
            if i in tail:
                with tape.category("tail"):
                    if tape.next_bit():  # eta = unit + G: past edge E once G >= E - center - unit
                        low = (center + unit) // grid * grid
                        first, step = low + grid - center - unit, grid
                    else:  # eta = -(unit + G): below edge E once G >= center - unit - E + 1
                        low = (center - unit) // grid * grid
                        first, step = center - unit - low + 1, -grid
                    edges = range(first, cells.horizon + grid, grid)  # the last past any comparison's reach
                    values.append(low + step * locate(tape, cells.geometric_tail, edges))
                continue
            # The grid edges E in (center - reach, center + reach], as keys
            # E - center: the release reaches E exactly when eta >= E - center.
            # No edge means the coordinate is silent and draws nothing.
            low = (center - reach) // grid * grid
            k = low + grid - center
            if k < unit:
                boundary.append(i)
                if k + grid < unit:  # two edges, only when s = 1
                    low += grid * locate(tape, cells.tail_ratio, range(k, unit, grid))
                else:  # one edge at key k: queued, holding its home cell (see draw_runs)
                    if k <= 0:
                        low += grid
                    queued.append(len(values))
                    keys.append(k)
            values.append(low)
        if keys:
            draw_runs(tape, cells, grid, queued, keys, values)
    # One draw for each paid coordinate, boundary or tail, in index order.
    paid = sorted([*tail, *boundary]) if tail else boundary
    return MechanismResult(tuple(values), build_report(tape, start, tuple(boundary), dict.fromkeys(paid, 1))), omega


def draw_runs(tape: BitTape, cells: CellLaw, grid: int, queued: list, keys: list, values: list) -> None:
    """Draw the cells of single-edge coordinates, one :func:`locate` per run that stays home.

    Coordinate ``queued[i]``, with its edge at key k = ``keys[i]``, holds its
    home cell, the one of its centre: the lower cell when k > 0, else the
    upper. It departs across the edge with probability p = tail_ratio(k')
    <= 1/2, k' = k if k > 0 else 1 - k by symmetry. From a run start b, the
    count L that stay home has upper tails T_j = prod_{b <= i < b + j} (1 - p_i),
    so one locate draws L; b + L departs and the next run starts after it.

    The runs of a queue longer than ``_SHORT_QUEUE`` keys share one uniform
    u (a :class:`~frugaldp.core_samplers.Stream`); a shorter queue draws
    each run on a fresh u from the tape. A run compares u - A with B T_1,
    B T_2, ..., for u uniform on [A, A + B) given the runs before it: A = 0
    and B = 1 at a fresh start, and a departure after L stays leaves u
    uniform on [A + B T_(L+1), A + B T_L), the next run's [A, A + B). So u's
    bits carry from run to run, and the queue reads about the cells'
    entropy plus a bit or two per fresh start (the interval algorithm of Han
    and Hoshi over the product law). Once B's lower bound at level 0 falls
    to 2**-_CARRY_BITS (to 0, at a level 0 of fewer bits), the next run
    starts afresh: a rule that reads only the cells drawn, never u, and
    keeps A and B within level-0 precision.

    Each level's records of B T_1, B T_2, ... come from one generator over
    the run (``products``): it reads each p_i from the law's memo at that
    level (through ``tail_ratio`` on a miss) and extends the product by one
    outward-rounded multiply pair. locate takes the level-0 stream whole;
    ``bounds`` advances a stream per refinement level only for the keys
    that need it, from A and B rebuilt at that level over the runs since the
    last fresh start; the stream's ``offsets`` hold A at each level.
    """

    def products(b: int, level: int, lo: "int | None", hi: "int | None"):
        """The records of B T_1, B T_2, ... from key b on at ``level``, for B in [lo, hi] (None: 1).

        Sent True after the record of a key that departs, it yields the
        next run's map instead: the precision, the bounds of that record,
        which A grows by, and those of the next B = B T_L p, the record
        times p / (1 - p), rounded outward.
        """
        p, memo = cells.ratio_records(level)
        one = 1 << p
        if lo is None:
            lo = hi = one
        for i in range(b, end):
            k = keys[i]
            if k <= 0:
                k = 1 - k
            _, a_lo, a_hi, _ = memo.get(k) or cells.tail_ratio(k, level)
            # Outward rounding: the lower product down, the upper product up.
            # Since 0 <= a_lo <= a_hi <= one, 0 <= lo <= hi <= one holds with no clipping.
            lo = lo * (one - a_hi) >> p
            hi = -(-hi * (one - a_lo) >> p)
            if (yield p, lo, hi, p - (hi - lo).bit_length()):
                # p / (1 - p) grows with p, and p <= 1/2 keeps 1 - p away from 0.
                yield p, lo, hi, lo * a_lo // (one - a_lo), -(-hi * a_hi // (one - a_hi))

    refined: list[list] = []  # per level >= 1: [last key read, its record, the level's stream]

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        """B T_(j - start + 1) at ``level`` >= 1, from that level's stream advanced to key j."""
        if level > len(refined):  # locate asks for the levels of a key in order
            # A and B at this level, over the runs since the last fresh start.
            a_lo = a_hi = 0
            b_lo = b_hi = None
            b = fresh
            for i in departed:
                run = products(b, level, b_lo, b_hi)
                for _ in range(b, i + 1):
                    next(run)
                _, t_lo, t_hi, b_lo, b_hi = run.send(True)
                a_lo, a_hi, b = a_lo + t_lo, a_hi + t_hi, i + 1
            if offsets is not None:
                offsets.append((a_lo, a_hi))
            refined.append([start - 1, None, products(start, level, b_lo, b_hi)])
        entry = refined[level - 1]
        while entry[0] < j:
            entry[0] += 1
            entry[1] = next(entry[2])
        return entry[1]

    start, end = 0, len(keys)
    fresh, b_lo, b_hi = 0, None, None  # the last fresh start, and B's bounds (None: 1)
    if end > _SHORT_QUEUE:
        stream, departed = Stream(tape), []  # departed: the departures since
        offsets = stream.offsets
    else:
        stream, offsets, departed = tape, None, ()
    while True:
        run = products(start, 0, b_lo, b_hi)
        start += locate(stream, bounds, range(start, end), run) + 1
        if start > end:  # every key stayed home
            return
        values[queued[start - 1]] += grid if keys[start - 1] > 0 else -grid
        if start == end:
            return
        if offsets is None:  # a short queue: the next run reads a fresh u too
            refined.clear()
            continue
        if refined:
            refined.clear()
            del offsets[1:]
        p, t_lo, t_hi, b_lo, b_hi = run.send(True)
        if b_lo <= 1 << p >> _CARRY_BITS:  # start afresh
            stream.u = stream.n = 0
            offsets[0] = 0, 0
            b_lo = b_hi = None
            fresh, departed = start, []
        else:
            a_lo, a_hi = offsets[0]
            offsets[0] = a_lo + t_lo, a_hi + t_hi
            departed.append(start - 1)
