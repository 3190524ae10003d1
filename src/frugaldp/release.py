"""The shift-and-round release core shared by the approximate and pure modes.

Both efficient releases follow one recipe: draw one shift from
{unit, 2 unit, ..., s unit}, then walk the coordinates. A coordinate whose
rounded value is the same for every noise value in (-unit, unit) is released
silently and costs no bits; any other coordinate draws its grid cell from
the truncated noise law. Windows with one grid edge (all, when s >= 2)
are drawn in runs (:func:`draw_runs`): one
:func:`~frugaldp.core_samplers.locate` draws how many coordinates stay in
their centre's cell before one leaves, for about the cells' entropy plus
two bits per leaving coordinate, not two bits per coordinate. A window with
two edges (s = 1) has its own locate. The grid is unit * s, where the unit
is the noise half-width (r in approx mode, m in pure mode). Pure mode adds
one pre-step, a tail set drawn up front. A tail coordinate's noise is
+-(m + G) with G geometric, so it too draws only its cell: one fair sign
bit, then one locate over the geometric tail masses at its grid edges.
Every paid coordinate thus draws its cell, never a noise value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count

from .bit_tape import BitTape
from .core_samplers import CellLaw, level_record, locate
from .errors import FrugalDPError, ParameterDomainError


@dataclass(frozen=True)
class CountVector:
    """True column sums of a binary dataset: d counts over n rows."""

    d: int
    n: int
    sums: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1 or len(self.sums) != self.d:
            raise ParameterDomainError("sums must have length d >= 1")
        if self.n < 0:
            raise ParameterDomainError("dataset size must be non-negative")
        for i, v in enumerate(self.sums):
            if not 0 <= v <= self.n:
                raise ParameterDomainError(f"count {i} outside [0, n]")


@dataclass(frozen=True)
class RandomnessReport:
    """Exact bit accounting for one mechanism invocation."""

    bits_total: int
    bits_by_category: dict[str, int]
    boundary_coordinates: tuple[int, ...]
    draws_attempted: dict[int, int]

    def __post_init__(self):
        if sum(self.bits_by_category.values()) != self.bits_total:
            raise FrugalDPError("category bit counts do not sum to the total")


@dataclass(frozen=True)
class MechanismResult:
    values: tuple[int, ...]
    report: RandomnessReport


def floor_multiple(v: int, k: int) -> int:
    """Largest multiple of k that is <= v (floor toward minus infinity)."""
    if k < 1:
        raise ParameterDomainError("grid unit must be a positive integer")
    return (v // k) * k


def is_silent(sum_i: int, omega: int, halfwidth: int, grid: int) -> bool:
    """True when rounding is unaffected by any noise in (-halfwidth, halfwidth)."""
    if grid < 1:
        raise ParameterDomainError("grid unit must be a positive integer")
    center, reach = sum_i + omega, halfwidth - 1
    return (center - reach) // grid == (center + reach) // grid


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
    start: tuple[int, Counter],
    boundary: tuple[int, ...] = (),
    attempts: dict[int, int] | None = None,
) -> RandomnessReport:
    """The bits drawn since the ``tape.snapshot()`` taken as ``start``, by category."""
    start_bits, start_log = start
    by_cat = {}
    for name, count in tape.draw_log.items():
        delta = count - start_log.get(name, 0)
        if delta:
            by_cat[name] = delta
    return RandomnessReport(
        bits_total=tape.bits_consumed - start_bits,
        bits_by_category=by_cat,
        boundary_coordinates=boundary,
        draws_attempted=attempts or {},
    )


def shift_and_round(
    tape: BitTape,
    start: tuple[int, Counter],
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
    attempts: dict[int, int] = {}
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
                    values.append(low + step * locate(tape, cells.geometric_tail, count(first, grid)))
                attempts[i] = 1
                continue
            # The grid edges E in (center - reach, center + reach], as keys
            # E - center: the release reaches E exactly when eta >= E - center.
            # No edge means the coordinate is silent (is_silent) and draws nothing.
            low = (center - reach) // grid * grid
            k = low + grid - center
            if k < unit:
                attempts[i] = 1
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
            draw_runs(tape, cells.tail_ratio, grid, queued, keys, values)
    return MechanismResult(tuple(values), build_report(tape, start, tuple(boundary), attempts)), omega


def draw_runs(tape: BitTape, tail_ratio, grid: int, queued: list, keys: list, values: list) -> None:
    """Draw the cells of single-edge coordinates, one :func:`locate` per run that stays home.

    Coordinate ``queued[i]``, with its edge at key k = ``keys[i]``, holds its
    home cell, the one of its centre: the lower cell when k > 0, else the
    upper. It departs across the edge with probability p = tail_ratio(k')
    <= 1/2, k' = k if k > 0 else 1 - k by symmetry. From a run start b, the
    count L that stay home has upper tails T_j = prod_{b <= i < b + j} (1 - p_i),
    so one locate draws L; b + L departs and the next run starts after it.
    """
    levels: list[tuple[int, tuple[int, int, int, int] | None]] = []

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        """T_(j - start + 1) at ``level``: one running product per level, extended to key j."""
        if level == len(levels):  # locate asks for the levels of a key in order
            levels.append((start - 1, None))
        i, rec = levels[level]
        while i < j:
            i += 1
            k = keys[i]
            p, a_lo, a_hi, _ = tail_ratio(k if k > 0 else 1 - k, level)
            one = 1 << p
            lo, hi = (rec[1], rec[2]) if rec else (one, one)
            # Outward rounding: the lower product down, the upper product up.
            rec = level_record(p, lo * (one - a_hi) >> p, -(-hi * (one - a_lo) >> p))
        levels[level] = i, rec
        return rec

    start, end = 0, len(keys)
    while start < end:
        levels.clear()
        start += locate(tape, bounds, range(start, end))
        if start < end:
            values[queued[start]] += grid if keys[start] > 0 else -grid
        start += 1
