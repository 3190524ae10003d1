"""Pure-DP counting-query release via integer Laplace noise.

The output law is that of the reference chain: Laplace noise of scale
d/eps on every count, one shared shift, rounding down to the grid m*s
(``audit_harness.oracle_joint_dist_pure`` computes it exactly). Each
coordinate's noise splits into a rare tail event (|noise| >= m, probability
p) and a truncated body; the efficient release samples the tail set up
front with an entropy-optimal binomial draw and then, in the shift-and-round
loop it shares with approx mode, pays only for tail coordinates and for body
coordinates whose rounding is ambiguous. Both kinds draw their grid cell
directly, never a noise value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bit_tape import BitTape
from .core_samplers import LaplaceCells, LaplaceScale
from .entropy_sampler import PointMassSpec, binomial_spec, sample_point_mass
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import IntervalValue, exp_neg, exp_pos, interval_div, ln_enclose
from .release import CountVector, MechanismResult, check_release, shift_and_round


@dataclass(frozen=True)
class PureTrace:
    """Which branch each coordinate of one efficient run took."""

    tail_set: frozenset[int]
    tail_size: int
    shift: int
    branches: tuple[str, ...]

    def __post_init__(self):
        if self.tail_size != len(self.tail_set):
            raise ParameterDomainError("tail size must match the tail set")


class PureParams:
    """Validated parameters of the pure-DP release.

    ``p`` is the exact two-sided tail mass P[|Lap_Z(d/eps)| >= m], a
    transcendental number carried as a 64-bit enclosure; ``tail_mass``
    encloses it at any precision, and the tail-set draw refines through it
    on demand, so the release distribution is exact.
    """

    __slots__ = (
        "d",
        "s",
        "epsilon",
        "scale",
        "m",
        "grid",
        "p",
        "binomial",
        "cells",
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
        self.scale = LaplaceScale(Fraction(d, 1) / epsilon)
        self.p = self.tail_mass(64)
        prec = 128
        while self.p.hi.as_fraction() >= 1:  # p < 1 holds analytically; certify it
            self.p = self.tail_mass(prec)
            prec *= 2
            if prec > (1 << 13):
                raise EnclosureContractError("tail probability failed to certify below 1")
        self.binomial: PointMassSpec = binomial_spec(d, self.tail_mass)
        self.cells = LaplaceCells(self.scale, m)

    def tail_mass(self, precision: int) -> IntervalValue:
        """Enclosure of p = 2 exp(-(m - 1)/t) / (exp(1/t) + 1) of width about 2**-precision."""
        inv_t = 1 / self.scale.t
        num = exp_neg((self.m - 1) * inv_t, precision + 6).scale(2, precision + 6)
        den = exp_pos(inv_t, precision + 6) + IntervalValue.exact(1)
        return interval_div(num, den, precision)


def derive_pure_params(epsilon: Fraction, d: int, s: int, precision: int = 96) -> PureParams:
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
        product = ln_enclose(t, precision) * ln_enclose(s, precision)
        scaled = product.scale(t, precision)
        m = math.ceil(scaled.hi.as_fraction()) + 1
    return PureParams(d, s, epsilon, m)


def sample_tail_set(
    tape: BitTape, d: int, p=None, *, spec: PointMassSpec | None = None
) -> frozenset[int]:
    """Tail set J: size from Bin(d, p), then a uniform size-t subset.

    Membership is i.i.d. Ber(p) per coordinate: conditioned on its size the
    set is uniform, and the size is binomial. The subset is drawn by
    repeatedly picking a uniform coordinate and rejecting repeats. Pass
    either the probability ``p`` or a prebuilt binomial ``spec``.
    """
    if spec is None:
        if p is None:
            raise ParameterDomainError("sample_tail_set needs p or a binomial spec")
        spec = binomial_spec(d, p)
    with tape.category("binomial"):
        count = sample_point_mass(tape, spec) - 1
    chosen: set[int] = set()
    with tape.category("subset"):
        while len(chosen) < count:
            idx = tape.uniform_range(d) - 1
            if idx not in chosen:
                chosen.add(idx)
    return frozenset(chosen)


def mech_pure_efficient(
    counts: CountVector,
    params: PureParams,
    tape: BitTape,
    omega: int | None = None,
) -> tuple[MechanismResult, PureTrace]:
    """Efficient release: same output law as the reference chain.

    Draws the tail-set size entropy-optimally, places the tail uniformly,
    then releases every non-tail coordinate silently whenever the shifted
    count rounds identically for all body noise values. Ambiguous body
    coordinates draw their grid cell from the truncated Laplace law's
    closed-form tail mass, and tail coordinates from the geometric tail
    past m.
    """
    check_release(counts, params, params.m, omega)
    start = tape.snapshot()
    tail = sample_tail_set(tape, params.d, spec=params.binomial)
    result, omega = shift_and_round(tape, start, counts, params.s, params.cells, "laplace", omega, tail)
    branches = ["silent"] * counts.d
    for i in tail:
        branches[i] = "tail"
    for i in result.report.boundary_coordinates:
        branches[i] = "body"
    return result, PureTrace(tail_set=tail, tail_size=len(tail), shift=omega, branches=tuple(branches))
