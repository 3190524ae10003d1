"""Entropy-optimal sampling from finite distributions with enclosed probabilities.

A draw is one :func:`~frugaldp.core_samplers.locate`: a uniform u, streamed
one bit at a time, against the upper tails 1 - P_1 >= 1 - P_2 >= ... of the
cumulatives, which are only known through refinable enclosures. Each tail
is refined by its enclosure's width, so expected bit cost is H(X) + O(1);
refinement is deterministic and costs no randomness. A draw that returns i
reads no cumulative above P_i.

The pure mechanism uses this to draw its tail-set size from Bin(d, p) with
a transcendental p. The enclosed binomial sums its cumulatives only up to
the index a draw reads, so a cold draw encloses at most (drawn size + 1)
point probabilities per precision, not d + 1; at pure-mode parameters
(d*p well below 1) it takes under a millisecond at d = 65 536.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable

from .bit_tape import BitTape
from .core_samplers import _LEVEL_START, disjoint, level_record, locate
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import binom_prob_enclose, rational_enclose


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


def binomial_spec(d: int, p: "Fraction | Callable[[int], tuple[int, int]]") -> PointMassSpec:
    """PointMassSpec over {0..d} (as indices 1..d+1) for Bin(d, p).

    ``p`` may be an exact Fraction or a refinable enclosure callable
    ``w -> (lo, hi)`` with lo <= 2**w p <= hi; both go through the enclosed
    binomial.
    """
    if d < 1:
        raise ParameterDomainError("binomial requires d >= 1")
    if isinstance(p, Fraction):
        if not 0 < p < 1:
            raise ParameterDomainError("binomial probability must be in (0, 1)")
        p = partial(rational_enclose, p)
    return PointMassSpec(d + 1, _enclosed_binomial_oracle(d, p))


def _enclosed_binomial_oracle(
    d: int, p_fn: Callable[[int], tuple[int, int]]
) -> Callable[[int, int], tuple[int, int]]:
    # Each precision keeps (w, p enclosed at w, cumulatives 0..n at w), with
    # w past the precision asked for by the rounding of up to d + 1 terms. A
    # draw reads no cumulative above the index it returns, so the prefix is
    # summed up to the index asked for, under a lock so that two threads
    # never add the same term; reads take no lock.
    rows: dict[int, tuple[int, tuple[int, int], list[tuple[int, int]]]] = {}
    lock = threading.Lock()

    def oracle(i: int, precision: int) -> tuple[int, int]:
        if i > d:
            return 1 << precision, 1 << precision
        row = rows.get(precision)
        if row is None or i >= len(row[2]):
            with lock:
                row = rows.get(precision)
                if row is None:
                    w = precision + 2 * (d + 1).bit_length() + 8
                    row = rows[precision] = (w, p_fn(w), [(0, 0)])
                w, p, prefix = row
                while len(prefix) <= i:
                    j = len(prefix) - 1
                    t_lo, t_hi = binom_prob_enclose(d, j, p, w)
                    lo, hi = prefix[j][0] + t_lo, prefix[j][1] + t_hi
                    # Union bound: P[X > j] <= C(d, j+1) p^(j+1), so a sound
                    # enclosure of P[X <= j] cannot end below 1 minus it.
                    gap = ((1 << w) - hi) << (w * j)
                    if lo > 1 << w or comb(d, j + 1) * p[1] ** (j + 1) < gap:
                        raise EnclosureContractError(f"binomial terms 0..{j} cannot sum toward 1")
                    prefix.append((lo, hi))
        shift = row[0] - precision
        lo, hi = row[2][i]
        return lo >> shift, -(-hi >> shift)

    return oracle
