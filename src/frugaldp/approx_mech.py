"""Approximate-DP counting-query release via truncated integer Gaussian noise.

The output law is the final stage of the reference chain: Gaussian noise
conditioned to stay inside (-r, r), one shared shift, and rounding down to
the grid r*s (``audit_harness.oracle_joint_dist`` computes it
exactly). The efficient release spends randomness on a coordinate only when
the shifted count lands within noise range of a grid-cell edge, and then
draws the released cell directly rather than a noise value (the
shift-and-round loop of ``frugaldp.release``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .bit_tape import BitTape
from .core_samplers import GaussianCells, Stream
from .errors import EnclosureContractError, InternalError, ParameterDomainError
from .precise_math import _CERTIFY_MAX_BITS, RationalBounds, _ceil_scaled, _floor_scaled, certified_le, exp_neg
from .precise_math import exp_pos, ln_enclose
from .release import CountVector, MechanismResult, check_release, shift_and_round

#: Working precision, in bits, of the enclosures of gamma and sigma^2.
_PRECISION = 96
#: Largest window radius r certified. A table level of ``GaussianCells`` holds
#: four lists of r integers, over 100 bytes per r: 400 GB at this r already.
_MAX_RADIUS = 1 << 32


class ApproxParams:
    """Validated parameters of the approximate-DP release.

    ``sigma_sq_interval`` holds the derived bounds of 4 d ln(2/delta) / eps^2
    and ``gamma`` those of delta / (2 (e^eps + 1)), both as exact rationals;
    the variance actually sampled, ``sigma_sq``, is pinned to the upper
    bound. Enlarging the variance only increases the noise, so the privacy
    guarantee survives the pinning, and the window radius r is certified
    directly against the pinned value.
    """

    __slots__ = (
        "d",
        "s",
        "epsilon",
        "delta",
        "gamma",
        "sigma_sq_interval",
        "sigma_sq",
        "r",
        "grid",
        "cells",
    )

    def __init__(
        self,
        d: int,
        s: int,
        sigma_sq: Fraction,
        r: int,
        *,
        sigma_sq_interval: RationalBounds | None = None,
        gamma: RationalBounds | None = None,
        epsilon: Fraction | None = None,
        delta: Fraction | None = None,
    ):
        if not all(isinstance(v, int) and v >= 1 for v in (d, s, r)):
            raise ParameterDomainError("d, s and r must be positive integers")
        if sigma_sq <= 0:
            raise ParameterDomainError("sigma_sq must be positive")
        self.d = d
        self.s = s
        self.sigma_sq = Fraction(sigma_sq)
        self.sigma_sq_interval = sigma_sq_interval or RationalBounds(self.sigma_sq, self.sigma_sq)
        self.r = r
        self.grid = r * s
        self.gamma = gamma
        self.epsilon = epsilon
        self.delta = delta
        self.cells = GaussianCells(self.sigma_sq, r, s, d)

    @property
    def accuracy_bound(self) -> int:
        """Deterministic worst-case error r(2s+1) of the grid release."""
        return self.r * (2 * self.s + 1)


def certify_window_radius(sigma_sq: Fraction, tail_budget: Fraction) -> int:
    """Smallest integer r >= 1 with 2 exp(-r^2 / (2 sigma^2)) <= tail_budget.

    The two-sided Gaussian tail bound then gives P[|noise| >= r] <= budget,
    which is the property the privacy argument consumes. That is r^2 >= X =
    2 sigma^2 ln(2 / budget), so r = isqrt(floor(X)) + 1, or 1 at a budget
    of 2 or more: X is irrational, as the logarithm of a rational other than
    1 is, so r^2 = X never holds. One enclosure of the logarithm is refined,
    doubling its precision, until both ends of X's give the same r. An r
    above ``_MAX_RADIUS`` is refused as soon as X's lower end shows it.
    """
    if tail_budget <= 0:
        raise ParameterDomainError("tail budget must be positive")
    ratio = 2 / Fraction(tail_budget)
    if ratio <= 1:
        return 1
    num, den = 2 * sigma_sq.numerator, sigma_sq.denominator
    w = 64
    while w <= 64 + _CERTIFY_MAX_BITS:
        lo, hi = (isqrt(num * x // (den << w)) + 1 for x in ln_enclose(ratio, w))
        if lo > _MAX_RADIUS:
            raise ParameterDomainError(f"the window radius r would exceed {_MAX_RADIUS}: epsilon too small")
        if lo == hi:
            return lo
        w *= 2
    raise EnclosureContractError("window radius failed to resolve")


def derive_approx_params(epsilon: Fraction, delta: Fraction, d: int, s: int) -> ApproxParams:
    """Derive all constants of the approximate-DP release from (eps, delta, d, s).

    Requires delta <= exp(-eps/2), certified by refining its enclosure. All
    derived irrationals are carried as exact rational bounds; see
    ApproxParams for how the sampled variance is pinned.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if epsilon <= 0:
        raise ParameterDomainError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ParameterDomainError("delta must lie in (0, 1)")
    if not all(isinstance(v, int) and v >= 1 for v in (d, s)):
        raise ParameterDomainError("d and s must be positive integers")
    if not certified_le(delta, lambda w: exp_neg(epsilon / 2, w)):
        raise ParameterDomainError("delta must satisfy delta <= exp(-epsilon/2)")
    # gamma = delta / (2 (e^eps + 1)), exact rational bounds from e^eps at _PRECISION
    e_lo, e_hi = exp_pos(epsilon, _PRECISION)
    one = 1 << _PRECISION
    gamma = RationalBounds(delta * one / (2 * (e_hi + one)), delta * one / (2 * (e_lo + one)))
    # sigma^2 = 4 d ln(2/delta) / eps^2, rounded outward at _PRECISION
    ln_lo, ln_hi = ln_enclose(2 / delta, _PRECISION + 2)
    factor = Fraction(4 * d, 1 << (_PRECISION + 2)) / epsilon**2
    sigma_sq_interval = RationalBounds.scaled(
        _floor_scaled(ln_lo * factor, _PRECISION), _ceil_scaled(ln_hi * factor, _PRECISION), _PRECISION
    )
    sigma_sq = sigma_sq_interval.hi
    r = certify_window_radius(sigma_sq, gamma.lo / d)
    return ApproxParams(
        d,
        s,
        sigma_sq,
        r,
        sigma_sq_interval=sigma_sq_interval,
        gamma=gamma,
        epsilon=epsilon,
        delta=delta,
    )


def _assert_envelope(values, counts, params) -> None:
    bound = params.accuracy_bound
    for y, s_i in zip(values, counts.sums):
        if abs(y - s_i) > bound:
            raise InternalError("deterministic accuracy envelope violated")


def mech_approx_efficient(
    counts: CountVector,
    params: ApproxParams,
    tape: BitTape,
    omega: int | None = None,
) -> MechanismResult:
    """Efficient release: same output law as the reference chain's final stage.

    After the shared shift, a coordinate whose rounded value is already
    determined for every noise magnitude below r is released silently with
    zero noise bits; boundary coordinates draw their grid cells from the
    truncated Gaussian's tail mass beyond the cell edge, in runs of cells
    that stay home, on one uniform carried from draw to draw: about their
    entropy plus two bits per 64 bits or so of it.
    """
    check_release(counts, params, params.r, omega)
    result, _, _ = shift_and_round(tape, Stream(tape), counts, params.cells, omega)
    _assert_envelope(result.values, counts, params)
    return result
