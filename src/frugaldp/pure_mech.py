"""Pure-DP counting-query release via integer Laplace noise.

The output law is that of the reference chain: Laplace noise of scale
d/eps on every count, one shared shift, rounding down to the grid m*s
(``audit_harness.oracle_joint_dist_pure`` computes it exactly). Each
coordinate's noise splits into a rare tail event (|noise| >= m, probability
p) and a truncated body; the efficient release samples the tail set up
front, as runs of coordinates before the next tail one, and then, in the
shift-and-round loop it shares with approx mode, pays only for tail
coordinates and for body coordinates whose rounding is ambiguous. Both
kinds draw their grid cell directly, never a noise value; every other
coordinate is released silently.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bit_tape import BitTape
from .core_samplers import _LEVEL_START, _MEMO_CAP, LaplaceCells, _power, _power_table
from .core_samplers import level_record, locate
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import BoundedCache, RationalBounds, _exp_neg_guarded, certified_le, exp_pos, ln_enclose
from .release import CountVector, MechanismResult, Record, check_release, shift_and_round


#: Working precision, in bits, of the enclosures of ln(d/eps) and ln s that m is derived from.
_PRECISION = 96


class PureTrace(Record):
    """The tail set and shift one efficient run drew.

    A coordinate outside ``tail_set`` drew a body cell when it is among the
    report's ``boundary_coordinates`` and was released silently otherwise.
    """

    __slots__ = ("tail_set", "tail_size", "shift")

    def __init__(self, tail_set: frozenset[int], tail_size: int, shift: int):
        self.tail_set = tail_set
        self.tail_size = tail_size
        self.shift = shift
        if tail_size != len(tail_set):
            raise ParameterDomainError("tail size must match the tail set")


class PureParams:
    """Validated parameters of the pure-DP release.

    ``scale`` is the Laplace scale t = d/eps, positive since eps and d are.
    ``p`` is the exact two-sided tail mass P[|Lap_Z(d/eps)| >= m], a
    transcendental number whose bounds are kept from its 64-bit enclosure;
    ``tail_mass`` encloses it at any precision. The tail-set draw reads
    1 - (1 - p)**j through ``any_tail``, whose digit tables of the powers of
    1 - p are built per refinement level on first use, so the release
    distribution is exact. As in the cell laws, a level's table is
    deterministic, so threads that build it at once store equal data and
    no lock is needed.
    """

    __slots__ = (
        "d",
        "s",
        "epsilon",
        "scale",
        "m",
        "grid",
        "p",
        "cells",
        "_stay_tables",
    )

    def __init__(self, d: int, s: int, epsilon: Fraction, m: int):
        if d < 1 or s < 1 or m < 1:
            raise ParameterDomainError("d, s and m must be positive integers")
        epsilon = Fraction(epsilon)
        if epsilon <= 0:
            raise ParameterDomainError("epsilon must be positive")
        self.d = d
        self.s = s
        self.epsilon = epsilon
        self.m = m
        self.grid = m * s
        self.scale = Fraction(d, 1) / epsilon
        self.p = RationalBounds.scaled(*self.tail_mass(64), 64)
        if certified_le(Fraction(1), self.tail_mass):  # p < 1 holds analytically; certify it
            raise EnclosureContractError("tail probability is not below 1")
        self.cells = LaplaceCells(self.scale, m)
        self._stay_tables: dict = {}

    def tail_mass(self, w: int) -> tuple[int, int]:
        """Enclosure (lo, hi) of 2**w p, p = 2 exp(-(m - 1)/t) / (exp(1/t) + 1), with hi - lo <= 2."""
        inv_t = 1 / self.scale
        # The numerator rounded outward at 2**-(w + 6), the denominator at 2**-(w + 8).
        a_lo, a_hi = _exp_neg_guarded((self.m - 1) * inv_t, w + 6)  # at 2**-(w + 10)
        num_lo, num_hi = a_lo >> 3, -(-a_hi >> 3)
        e_lo, e_hi = exp_pos(inv_t, w + 8)
        one = 1 << (w + 8)
        return (num_lo << (w + 2)) // (e_hi + one), -(-(num_hi << (w + 2)) // (e_lo + one))

    def any_tail(self, j: int, level: int) -> tuple[int, int, int, int]:
        """The :func:`~frugaldp.core_samplers.level_record` of 1 - (1 - p)**j, for 1 <= j <= d.

        That is the chance that j coordinates hold a tail coordinate. The
        power comes from the level's digit table of 1 - p, outward-rounded;
        the guard bits past the level's precision cover the error of up to
        d products. Records are memoized per level, as the cell laws do.
        """
        entry = self._stay_tables.get(level)
        if entry is None:
            w = (_LEVEL_START << level) + self.d.bit_length() + 8
            lo, hi = self.tail_mass(w)
            one = 1 << w
            table = _power_table(one - hi, one - lo, w)
            entry = self._stay_tables[level] = w, table, BoundedCache(_MEMO_CAP)
        w, table, memo = entry
        rec = memo.get(j)
        if rec is None:
            lo, hi = _power(table, j, w)
            rec = memo[j] = level_record(w, (1 << w) - hi, (1 << w) - lo)
        return rec


def derive_pure_params(epsilon: Fraction, d: int, s: int) -> PureParams:
    """Derive the pure release's constants from (eps, d, s).

    The randomness bounds need d/eps > 10, enforced here. The body/tail
    threshold is m = ceil((d/eps) ln(d/eps) ln(s)) + 1, taking the ceiling
    of the enclosure's upper endpoint: the grid needs an integer, and
    enlarging m only shrinks the tail term, so every inequality the
    guarantees rest on is preserved.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterDomainError("epsilon must be positive")
    if d < 1 or s < 1:
        raise ParameterDomainError("d and s must be positive integers")
    t = Fraction(d, 1) / epsilon
    if t <= 10:
        raise ParameterDomainError("pure mode requires d/epsilon > 10")
    if s == 1:
        m = 1
    else:
        w = _PRECISION + 2
        m = math.ceil(Fraction(ln_enclose(t, w)[1] * ln_enclose(s, w)[1], 1 << (2 * w)) * t) + 1
    return PureParams(d, s, epsilon, m)


def sample_tail_set(tape: BitTape, d: int, any_tail) -> frozenset[int]:
    """Tail set J of coordinates 0..d-1, each a member with probability p, independently.

    ``any_tail(j, level)`` returns the level record of 1 - (1 - p)**j, as
    :meth:`PureParams.any_tail` does. The set is drawn in runs: with the
    last n coordinates left, the count L before the next member has
    P[L >= j] = (1 - p)**j, so one :func:`~frugaldp.core_samplers.locate`
    over the thresholds 1 - (1 - p)**j along j = n, n - 1, ..., 1 returns
    n - L, and coordinate d - n + L is the next member; 0 means none is
    left. An empty set costs one comparison with 1 - (1 - p)**d, and each
    member O(n - L) keys. Bits go under "binomial".
    """
    chosen = []
    n = d
    with tape.category("binomial"):
        while n:
            past = locate(tape, any_tail, range(n, 0, -1))
            if not past:
                break
            chosen.append(d - past)  # d - n + L, with L = n - past
            n = past - 1
    return frozenset(chosen)


def mech_pure_efficient(
    counts: CountVector,
    params: PureParams,
    tape: BitTape,
    omega: int | None = None,
) -> tuple[MechanismResult, PureTrace]:
    """Efficient release: same output law as the reference chain.

    Draws the tail set in runs, then releases every non-tail coordinate silently whenever the shifted
    count rounds identically for all body noise values. Ambiguous body
    coordinates draw their grid cell from the truncated Laplace law's
    closed-form tail mass, and tail coordinates from the geometric tail
    past m.
    """
    check_release(counts, params, params.m, omega)
    start = tape.snapshot()
    tail = sample_tail_set(tape, params.d, params.any_tail)
    result, omega = shift_and_round(tape, start, counts, params.s, params.cells, "laplace", omega, tail)
    return result, PureTrace(tail_set=tail, tail_size=len(tail), shift=omega)
