"""Pure-DP counting-query release via integer Laplace noise.

The output law is that of the reference chain: Laplace noise of scale
d/eps on every count, one shared shift, rounding down to the grid m*s
(``audit_harness.oracle_joint_dist_pure`` computes it exactly). Each
coordinate's noise splits into a rare tail event (|noise| >= m, probability
p) and a truncated body. The Laplace cell law
(:class:`~frugaldp.core_samplers.LaplaceCells`) encloses p and the powers of
1 - p from the same powers of exp(-eps/d) as the body cells. The efficient
release samples the tail set up front, as runs of coordinates before the
next tail one, and then, in the shift-and-round loop it shares with approx
mode, pays only for tail coordinates and for body coordinates whose
rounding is ambiguous. Both kinds draw their grid cell directly, never a
noise value, on the uniform the tail set's draws left (one Stream per
release); every other coordinate is released silently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bit_tape import BitTape
from .core_samplers import LaplaceCells, Stream, locate
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import ln_enclose
from .release import CountVector, MechanismResult, check_release, shift_and_round


#: Working precision, in bits, of the enclosures of ln(d/eps) and ln s that m is derived from.
_PRECISION = 96


class PureTrace(namedtuple("PureTrace", "tail_set shift")):
    """The tail set and shift one efficient run drew.

    A coordinate outside ``tail_set`` drew a body cell when it is among the
    report's ``boundary_coordinates`` and was released silently otherwise.
    """

    __slots__ = ()

    @property
    def tail_size(self) -> int:
        return len(self.tail_set)


class PureParams:
    """Validated parameters of the pure-DP release.

    ``scale`` is the Laplace scale t = d/eps, positive since eps and d are.
    ``cells`` is the Laplace law's
    :class:`~frugaldp.core_samplers.LaplaceCells`, which encloses every
    constant of the release from q = exp(-1/t) and its powers. ``p``, the
    exact two-sided tail mass P[|Lap_Z(d/eps)| >= m] = 2 q^m / (1 + q), a
    transcendental number, keeps the exact rational bounds of its level-0
    enclosure. The tail-set draw reads 1 - (1 - p)**j through
    ``cells.any_tail``, which refines it level by level, so the release
    distribution is exact.
    """

    __slots__ = ("d", "s", "epsilon", "scale", "m", "grid", "p", "cells")

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
        self.cells = LaplaceCells(self.scale, m)
        self.p = self.cells.tail_probability()
        if self.p.hi >= 1:  # p < 1 holds analytically; the level-0 bounds certify it
            raise EnclosureContractError("tail probability is not below 1")


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


def sample_tail_set(tape: BitTape, d: int, any_tail, stream: Stream) -> frozenset[int]:
    """Tail set J of coordinates 0..d-1, each a member with probability p, independently.

    ``any_tail(j, level)`` returns the level record of 1 - (1 - p)**j, as
    :meth:`~frugaldp.core_samplers.LaplaceCells.any_tail` does. The set is
    drawn in runs: with the last n coordinates left, the count L before the
    next member has P[L >= j] = (1 - p)**j, so one
    :func:`~frugaldp.core_samplers.locate` over the thresholds
    1 - (1 - p)**j along j = n, n - 1, ..., 1 returns n - L, and coordinate
    d - n + L is the next member; 0 means none is left. An empty set costs
    one comparison with 1 - (1 - p)**d, and each member O(log(n - L)) keys,
    which locate searches, on ``stream``. Bits go under "binomial".
    """
    chosen, n = [], d
    old = tape.charge("binomial")
    try:
        while n and (past := locate(stream, any_tail, range(n, 0, -1))):
            chosen.append(d - past)  # d - n + L, with L = n - past
            n = past - 1
    finally:
        tape.charge(old)
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
    past m: every draw on one carried uniform.
    """
    check_release(counts, params, params.m, omega)
    start = tape.snapshot()
    tail = sample_tail_set(tape, params.d, params.cells.any_tail, stream := Stream(tape))
    result, omega = shift_and_round(tape, stream, start, counts, params.s, params.cells, "laplace", omega, tail)
    return result, PureTrace(tail, omega)
