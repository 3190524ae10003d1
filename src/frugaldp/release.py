"""The shift-and-round release core shared by the approximate and pure modes.

Both efficient releases draw one shift from {unit, 2 unit, ..., s unit} and
then walk the coordinates, where the unit is the noise half-width (r in
approx mode, m in pure mode) and the grid is unit * s. A coordinate whose
rounded value is the same for every noise value in (-unit, unit) is released
silently and costs no bits; any other draws its grid cell from the truncated
noise law. Windows with one grid edge (all, when s >= 2) are drawn in runs
(:func:`draw_runs`): one :func:`~frugaldp.core_samplers.locate` draws how
many coordinates stay in their centre's cell before one leaves, over the
run's running products of stay-home probabilities, streamed at level 0. A
window with two edges (s = 1) is one locate over its two edges. Pure mode
adds a tail set drawn up front; a tail coordinate's noise is +-(m + G) with
G geometric, so it too draws only its cell: one fair sign bit, then one
locate that searches the geometric tail masses at its grid edges, reading
O(log c) of them for the c-th cell out. Every paid coordinate thus draws
its cell, never a noise value. Every locate of a release draws on one
:class:`~frugaldp.core_samplers.Stream`, whose uniform carries from draw to
draw: about their entropy plus two bits per 32 bits or so of it.
"""

from __future__ import annotations

from collections import namedtuple

from .bit_tape import BitTape
from .core_samplers import CellLaw, Stream, locate
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
    old = tape.charge("shift")
    try:
        return unit * tape.uniform_range(s)
    finally:
        tape.charge(old)


def build_report(
    tape: BitTape,
    start: tuple[int, dict[str, int]],
    boundary: tuple[int, ...],
    attempts: dict[int, int],
) -> RandomnessReport:
    """The bits drawn since the ``tape.snapshot()`` taken as ``start``, by category."""
    start_bits, start_log = start
    bits, log = tape.snapshot()
    by_cat = {}
    for name, count in log.items():
        delta = count - start_log.get(name, 0)
        if delta:
            by_cat[name] = delta
    return RandomnessReport(bits - start_bits, by_cat, boundary, attempts)


def shift_and_round(
    tape: BitTape,
    stream: Stream,
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
    or draw their cell from ``cells`` (bits under ``noise``); cells draw on
    ``stream``, the release's uniform. ``start`` is the report's tape snapshot.
    """
    unit = cells.halfwidth
    grid = unit * s
    reach = unit - 1
    if omega is None:
        omega = draw_shift(tape, unit, s)
    values = []
    boundary = []
    queued, keys = [], []  # the single-edge coordinates, for draw_runs
    # Silent coordinates draw nothing, so one category covers the loop.
    old = tape.charge(noise)
    try:
        for i, s_i in enumerate(counts.sums):
            center = s_i + omega
            if i in tail:
                tape.charge("tail")
                if tape.next_bit():  # eta = unit + G: past edge E once G >= E - center - unit
                    low = (center + unit) // grid * grid
                    first, step = low + grid - center - unit, grid
                else:  # eta = -(unit + G): below edge E once G >= center - unit - E + 1
                    low = (center - unit) // grid * grid
                    first, step = center - unit - low + 1, -grid
                edges = range(first, cells.horizon + grid, grid)  # the last past any comparison's reach
                values.append(low + step * locate(stream, cells.geometric_tail, edges))
                tape.charge(noise)
                continue
            # The grid edges E in (center - reach, center + reach], as keys
            # E - center: the release reaches E exactly when eta >= E - center.
            # No edge means the coordinate is silent and draws nothing.
            low = (center - reach) // grid * grid
            k = low + grid - center
            if k < unit:
                boundary.append(i)
                if k + grid < unit:  # two edges, only when s = 1
                    low += grid * locate(stream, cells.tail_ratio, range(k, unit, grid))
                else:  # one edge at key k: queued, holding its home cell (see draw_runs)
                    if k <= 0:
                        low += grid
                    queued.append(len(values))
                    keys.append(k)
            values.append(low)
        if keys:
            draw_runs(stream, cells, grid, queued, keys, values)
    finally:
        tape.charge(old)
    # One draw for each paid coordinate, boundary or tail, in index order.
    paid = sorted([*tail, *boundary]) if tail else boundary
    return MechanismResult(tuple(values), build_report(tape, start, tuple(boundary), dict.fromkeys(paid, 1))), omega


def _products(cells: CellLaw, keys: list, b: int, end: int, level: int, lo: int, hi: int):
    """The records of B T_1, B T_2, ... along the keys from index b on at ``level``, for B in [lo, hi].

    Sent True at a key that departs, it yields the precision, that record (A's
    growth) and B T_L p, the record times p / (1 - p), rounded outward; then the next B.
    """
    p, memo = cells.ratio_records(level)
    one = 1 << p
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
            lo, hi = yield p, lo, hi, lo * a_lo // (one - a_lo), -(-hi * a_hi // (one - a_hi))
            yield


def _departed(level: int, a_lo: int, a_hi: int, b_lo: int, b_hi: int, cells: CellLaw, keys: list, b: int, i: int):
    """A and B at ``level`` across a run from key b whose key i departed: a :meth:`Stream.carry` entry."""
    run = _products(cells, keys, b, i + 1, level, b_lo, b_hi)
    for _ in range(b, i + 1):
        next(run)
    _, t_lo, t_hi, b_lo, b_hi = run.send(True)
    return a_lo + t_lo, a_hi + t_hi, b_lo, b_hi


def draw_runs(stream: Stream, cells: CellLaw, grid: int, queued: list, keys: list, values: list) -> None:
    """Draw the cells of single-edge coordinates, one :func:`locate` on ``stream`` per run that stays home.

    Coordinate ``queued[i]``, with its edge at key k = ``keys[i]``, holds its
    home cell, the one of its centre: the lower cell when k > 0, else the
    upper. It departs across the edge with probability p = tail_ratio(k')
    <= 1/2, k' = k if k > 0 else 1 - k by symmetry. From a run start b, the
    count L that stay home has upper tails T_j = prod_{b <= i < b + j} (1 - p_i),
    so one locate draws L; b + L departs and the next run starts after it.
    Products start at the stream's B, and a departure carries u into
    [A + B T_(L+1), A + B T_L); the queue's end, a release's last draw, carries nothing.
    """

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        """B T_(j - b + 1) at ``level`` >= 1, from that level's generator advanced to key j."""
        if level > len(refined):  # locate asks for the levels of a key in order
            refined.append([b - 1, None, _products(cells, keys, b, end, level, *stream.level(level)[2:])])
        entry = refined[level - 1]
        while entry[0] < j:
            entry[0] += 1
            entry[1] = next(entry[2])
        return entry[1]

    refined: list[list] = []  # per level >= 1: [last key read, its record, the level's generator]
    b, end = 0, len(keys)
    run = _products(cells, keys, 0, end, 0, stream.b_lo, stream.b_hi)
    while True:
        i = b + locate(stream, bounds, range(b, end), run)
        if i == end:  # every key stayed home
            return
        values[queued[i]] += grid if keys[i] > 0 else -grid
        if i + 1 == end:
            return
        refined.clear()
        _, t_lo, t_hi, b_lo, b_hi = run.send(True)
        stream.carry(stream.a_lo + t_lo, stream.a_hi + t_hi, b_lo, b_hi, (_departed, cells, keys, b, i))
        run.send((stream.b_lo, stream.b_hi))
        b = i + 1
