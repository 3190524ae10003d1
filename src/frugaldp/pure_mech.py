"""Pure-DP counting-query release via integer Laplace noise.

The reference chain adds Laplace noise of scale d/eps, applies one shared
shift, and rounds to the grid m*s. The decomposed variants split each
coordinate's noise into a rare tail event (|noise| >= m, probability p) and
a truncated body draw; the efficient release samples the tail set up front
with an entropy-optimal binomial draw and then, in the shift-and-round loop
it shares with approx mode, touches randomness only for tail coordinates
and for body coordinates whose rounding is ambiguous, which draw their grid
cell directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bit_tape import BitTape
from .core_samplers import (
    LaplaceCells,
    LaplaceScale,
    RefinableProb,
    _truncated_attempts,
    bernoulli_from_prob,
    discrete_laplace,
    laplace_tail_sample,
)
from .entropy_sampler import PointMassSpec, binomial_spec, sample_point_mass
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import IntervalValue, exp_neg, exp_pos, interval_div, ln_enclose
from .release import (
    CountVector,
    MechanismResult,
    build_report,
    check_release,
    draw_shift,
    floor_multiple,
    shift_and_round,
)


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
    transcendental number carried as a 64-bit enclosure plus a refinable
    oracle; the samplers that consume it refine on demand, so the release
    distribution is exact.
    """

    __slots__ = (
        "d",
        "s",
        "epsilon",
        "scale",
        "m",
        "grid",
        "p",
        "membership",
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
        inv_t = 1 / self.scale.t

        def p_fn(precision: int, x=(m - 1) * inv_t, y=inv_t) -> IntervalValue:
            num = exp_neg(x, precision + 6).scale(2, precision + 6)
            den = exp_pos(y, precision + 6) + IntervalValue.exact(1)
            return interval_div(num, den, precision)

        self.p = p_fn(64)
        prec = 128
        while self.p.hi.as_fraction() >= 1:  # p < 1 holds analytically; certify it
            self.p = p_fn(prec)
            prec *= 2
            if prec > (1 << 13):
                raise EnclosureContractError("tail probability failed to certify below 1")
        self.membership = RefinableProb(p_fn)
        self.binomial: PointMassSpec = binomial_spec(d, p_fn)
        self.cells = LaplaceCells(self.scale, m)


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


def mech_pure_reference(
    counts: CountVector,
    params: PureParams,
    variant: int,
    tape: BitTape,
    omega: int | None = None,
) -> MechanismResult:
    """Reference mechanisms, in increasing order of structure.

    variant 1: counts + Laplace noise per coordinate (no shift, no grid).
    variant 2: shared shift from {m, ..., ms}, noise vector, round to m*s.
    variant 3: variant 2 with the loop unrolled coordinate by coordinate.
    variant 4: per-coordinate tail/body split: an independent membership
        coin with the exact tail probability decides whether the coordinate
        draws conditioned-tail noise or truncated body noise.

    Variant 4 consumes the shift like the others but the printed recipe
    leaves its origin open; pass ``omega`` to condition on a fixed shift or
    leave it None to draw one.
    """
    check_release(counts, params, params.m, omega)
    if variant not in (1, 2, 3, 4):
        raise ParameterDomainError("variant must be 1, 2, 3 or 4")
    start = tape.snapshot()
    attempts: dict[int, int] = {}
    if variant != 1 and omega is None:
        omega = draw_shift(tape, params.m, params.s)
    values = []
    if variant in (1, 2):
        etas = []
        with tape.category("laplace"):
            for i in range(counts.d):
                etas.append(discrete_laplace(tape, params.scale))
                attempts[i] = 1
        for s_i, eta in zip(counts.sums, etas):
            if variant == 1:
                values.append(s_i + eta)
            else:
                values.append(floor_multiple(s_i + omega + eta, params.grid))
    elif variant == 3:
        for i, s_i in enumerate(counts.sums):
            with tape.category("laplace"):
                eta = discrete_laplace(tape, params.scale)
            attempts[i] = 1
            values.append(floor_multiple(s_i + omega + eta, params.grid))
    else:
        for i, s_i in enumerate(counts.sums):
            with tape.category("subset"):
                in_tail = bernoulli_from_prob(tape, params.membership)
            if in_tail:
                with tape.category("tail"):
                    eta = laplace_tail_sample(tape, params.scale, params.m)
                attempts[i] = 1
            else:
                with tape.category("laplace"):
                    eta, attempts[i] = _truncated_attempts(
                        tape, lambda t: discrete_laplace(t, params.scale), params.m
                    )
            values.append(floor_multiple(s_i + omega + eta, params.grid))
    return MechanismResult(tuple(values), build_report(tape, start, tuple(range(counts.d)), attempts))


def mech_pure_efficient(
    counts: CountVector,
    params: PureParams,
    tape: BitTape,
    omega: int | None = None,
) -> tuple[MechanismResult, PureTrace]:
    """Efficient release: same output law as reference variant 2.

    Draws the tail-set size entropy-optimally, places the tail uniformly,
    then releases every non-tail coordinate silently whenever the shifted
    count rounds identically for all body noise values; only ambiguous body
    coordinates pay, drawing their grid cell from the truncated Laplace
    law's closed-form tail mass.
    """
    check_release(counts, params, params.m, omega)
    start = tape.snapshot()
    tail = sample_tail_set(tape, params.d, spec=params.binomial)
    # The lambda reads this module's laplace_tail_sample at each call, so a
    # wrapper installed on that global sees every tail draw.
    result, omega = shift_and_round(
        tape, start, counts, params.s, params.cells, "laplace", omega,
        tail, lambda t: laplace_tail_sample(t, params.scale, params.m),
    )
    branches = ["silent"] * counts.d
    for i in tail:
        branches[i] = "tail"
    for i in result.report.boundary_coordinates:
        branches[i] = "body"
    return result, PureTrace(tail_set=tail, tail_size=len(tail), shift=omega, branches=tuple(branches))
