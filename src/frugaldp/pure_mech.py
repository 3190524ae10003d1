"""Pure-DP counting-query release via integer Laplace noise.

The output law is that of the reference chain: Laplace noise of scale
d/eps on every count, one shared shift, rounding down to the grid m*s
(``audit_harness.oracle_joint_dist_pure`` computes it exactly). The
efficient release runs the shift-and-round loop it shares with approx mode
over the untruncated discrete-Laplace cell law
(:class:`~frugaldp.core_samplers.LaplaceCells`): each coordinate draws its
released cell, never a noise value, on one carried uniform per release.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bit_tape import BitTape
from .core_samplers import LaplaceCells, Stream
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import ln_enclose
from .release import CountVector, MechanismResult, check_release, shift_and_round


#: Working precision, in bits, of the enclosures of ln(d/eps) and ln s that m is derived from.
_PRECISION = 96


class PureTrace(namedtuple("PureTrace", "departed shift tail_size")):
    """The coordinates released outside the cell of their centre, the shift, and how many no |eta| < m reaches."""

    __slots__ = ()


class PureParams:
    """Validated parameters of the pure-DP release.

    ``scale`` is the Laplace scale t = d/eps, positive since eps and d are.
    ``cells`` is the Laplace law's
    :class:`~frugaldp.core_samplers.LaplaceCells`, which encloses every
    constant of the release from q = exp(-1/t) and its powers. ``p``, the
    exact two-sided tail mass P[|Lap_Z(d/eps)| >= m] = 2 q^m / (1 + q), a
    transcendental number, keeps the exact rational bounds of its level-0
    enclosure. The release reads p only through ``cells``, which refines
    every record it compares with level by level, so the release
    distribution is exact.
    """

    __slots__ = ("d", "s", "epsilon", "scale", "m", "grid", "p", "cells")

    def __init__(self, d: int, s: int, epsilon: Fraction, m: int):
        if not all(isinstance(v, int) and v >= 1 for v in (d, s, m)):
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
        self.cells = LaplaceCells(self.scale, m, s, d)
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
    if not all(isinstance(v, int) and v >= 1 for v in (d, s)):
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


def mech_pure_efficient(
    counts: CountVector,
    params: PureParams,
    tape: BitTape,
    omega: int | None = None,
) -> tuple[MechanismResult, PureTrace]:
    """Efficient release: same output law as the reference chain.

    Draws the shift, then every coordinate's cell, in runs that stay in
    their home cells; the j coordinates of a block of low-p keys, silent ones
    among them, usually cost one comparison with (1 - p(a))^j together, a at
    most the least key among them.
    """
    check_release(counts, params, params.m, omega)
    result, omega, departed = shift_and_round(tape, Stream(tape), counts, params.cells, omega)
    far = 0
    if departed:
        departed.sort()
        values, sums, grid, reach = result.values, counts.sums, params.grid, params.m - 1
        # A cell no noise |eta| <= m - 1 reaches lies wholly past sums[i] + omega +- reach.
        far = sum(not sums[i] + omega - reach - grid < values[i] <= sums[i] + omega + reach for i in departed)
    return result, PureTrace(tuple(departed), omega, far)
