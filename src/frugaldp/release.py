"""The shift-and-round release core shared by the approximate and pure modes.

Both efficient releases draw one shift from {unit, 2 unit, ..., s unit} and
then walk the coordinates, where the unit is the noise half-width (r in
approx mode, m in pure mode) and the grid is unit * s. A coordinate whose
rounded value is the same for every noise value in (-unit, unit) is released
silently and costs no bits; any other draws its grid cell from the truncated
noise law. Windows with one grid edge (all, when s >= 2) are drawn in runs
(:func:`draw_runs`): one :func:`~frugaldp.core_samplers.locate` draws how
many coordinates stay in their centre's cell before one leaves, over the
run's running products of stay-home probabilities, streamed at level 0, for
about the cells' entropy plus two bits per leaving coordinate. A window with
two edges (s = 1) has its own locate. Pure mode adds a tail set drawn up
front; a tail coordinate's noise is +-(m + G) with G geometric, so it too
draws only its cell: one fair sign bit, then one locate that searches the
geometric tail masses at its grid edges, reading O(log c) of them for the
c-th cell out. Every paid coordinate thus draws its cell, never a noise value.
"""

from __future__ import annotations

from collections import namedtuple

from .bit_tape import BitTape
from .core_samplers import CellLaw, locate
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
    Each level's records of T_1, T_2, ... come from one generator over the
    run (``products``): it reads each p_i from the law's memo at that level
    (through ``tail_ratio`` on a miss) and extends the product by one
    outward-rounded multiply pair. locate takes the level-0 stream whole;
    ``bounds`` advances a stream per refinement level only for the keys
    that need it.
    """

    def products(b: int, level: int):
        """The records of T_1, T_2, ... from key b on at ``level``, one per key, in order."""
        p, memo = cells.ratio_records(level)
        one = lo = hi = 1 << p
        for i in range(b, end):
            k = keys[i]
            if k <= 0:
                k = 1 - k
            _, a_lo, a_hi, _ = memo.get(k) or cells.tail_ratio(k, level)
            # Outward rounding: the lower product down, the upper product up.
            # Since 0 <= a_lo <= a_hi <= one, 0 <= lo <= hi <= one holds with no clipping.
            lo = lo * (one - a_hi) >> p
            hi = -(-hi * (one - a_lo) >> p)
            yield p, lo, hi, p - (hi - lo).bit_length()

    refined: list[list] = []  # per level >= 1: [last key read, its record, the level's stream]

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        """T_(j - start + 1) at ``level`` >= 1, from that level's stream advanced to key j."""
        if level > len(refined):  # locate asks for the levels of a key in order
            refined.append([start - 1, None, products(start, level)])
        entry = refined[level - 1]
        while entry[0] < j:
            entry[0] += 1
            entry[1] = next(entry[2])
        return entry[1]

    start, end = 0, len(keys)
    while start < end:
        refined.clear()
        start += locate(tape, bounds, range(start, end), products(start, 0))
        if start < end:
            values[queued[start]] += grid if keys[start] > 0 else -grid
        start += 1
