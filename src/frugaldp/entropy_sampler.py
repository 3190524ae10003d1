"""Entropy-optimal sampling from finite distributions with enclosed probabilities.

A draw is one :func:`~frugaldp.core_samplers.locate`: a uniform u, streamed
one bit at a time, against the upper tails 1 - P_1 >= 1 - P_2 >= ... of the
cumulatives, which are only known through refinable enclosures. Each tail
is refined by its enclosure's width, so expected bit cost is H(X) + O(1);
refinement is deterministic and costs no randomness. A draw that returns i
reads no cumulative above P_i.

The releases draw through ``locate`` directly: the pure mechanism's tail
set is a sequence of runs over the powers of 1 - p
(:func:`~frugaldp.pure_mech.sample_tail_set`), with no finite law to
enclose. This module serves finite laws given by their cumulatives, such
as a rational distribution (:func:`spec_from_fractions`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .bit_tape import BitTape
from .core_samplers import _LEVEL_START, disjoint, level_record, locate
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import rational_enclose


class PointMassSpec:
    """Finite distribution described by enclosures of its cumulatives.

    ``prob_oracle(i, w)`` must return integers (lo, hi) with
    lo <= 2**w P_i <= hi for the cumulative P_i (P_0 = 0 <= P_1 <= ... <=
    P_k = 1), ideally with hi - lo of a unit or two; a wider enclosure
    costs refinements, not bits.
    Results are cached per level (precision 64 * 2**level); refinements of
    the same cumulative must overlap earlier enclosures or the spec is
    rejected.
    Threads may share a spec: a row is created once, and the overlap check
    reads a snapshot of the rows while other threads may add one.
    """

    __slots__ = ("k", "prob_oracle", "_rows")

    def __init__(self, k: int, prob_oracle: Callable[[int, int], tuple[int, int]]):
        if k < 1:
            raise ParameterDomainError("support size must be at least 1")
        self.k = k
        self.prob_oracle = prob_oracle
        self._rows: dict[int, list[tuple[int, int, int, int] | None]] = {}

    def bounds(self, i: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`~frugaldp.core_samplers.level_record` of the upper tail 1 - P_i at ``level``."""
        row = self._rows.get(level)
        if row is None:
            row = self._rows.setdefault(level, [None] * (self.k + 1))
        rec = row[i]
        if rec is None:
            p = _LEVEL_START << level
            lo, hi = self.prob_oracle(i, p)
            rec = level_record(p, (1 << p) - hi, (1 << p) - lo)
            for other_level, other_row in tuple(self._rows.items()):
                prev = other_row[i]
                # Enclosures of the same cumulative must intersect.
                if prev is not None and disjoint(rec, prev):
                    raise EnclosureContractError(
                        f"cumulative {i} enclosure at level {level} disjoint from level {other_level}"
                    )
            row[i] = rec
        return rec


def spec_from_fractions(probs: "list[Fraction]") -> PointMassSpec:
    """Spec for an exactly known rational distribution (oracle for tests/demos)."""
    probs = [Fraction(p) for p in probs]
    if any(p <= 0 for p in probs):
        raise ParameterDomainError("point masses must be strictly positive")
    if sum(probs) != 1:
        raise ParameterDomainError("point masses must sum to one")
    cums = [Fraction(0)]
    for p in probs:
        cums.append(cums[-1] + p)
    return PointMassSpec(len(probs), lambda i, w: rational_enclose(cums[i], w))


def sample_point_mass(tape: BitTape, spec: PointMassSpec) -> int:
    """Draw index i in {1..k} with probability exactly P_i - P_{i-1}.

    The index is 1 plus the number of upper tails 1 - P_1, 1 - P_2, ... that
    lie above one uniform u, so no cumulative above P_i is read: the scan
    cost is bounded by the index drawn, not by k, on top of the emitted bits.
    """
    return 1 + locate(tape, spec.bounds, range(1, spec.k))

