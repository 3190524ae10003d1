"""Brute-force oracles and statistical audits for the release mechanisms.

The oracles compute the exact per-coordinate (and small-d joint) output
laws of the reference mechanisms as interval-valued pmfs, so distributional
equivalence, accuracy envelopes and privacy ratios can be checked against
ground truth rather than against another sampler. Privacy is audited
through certified oracle ratios only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping, Sequence

import numpy as np
from scipy import stats

from .approx_mech import ApproxParams
from .errors import ParameterDomainError
from .precise_math import IntervalValue, exp_neg, exp_pos, interval_div
from .pure_mech import PureParams
from .release import CountVector, MechanismResult, floor_multiple

_ZERO = IntervalValue.exact(0)


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution with interval-valued masses.

    ``deficit`` bounds the true mass of outcomes not listed in ``mass``
    (zero for exactly finite laws, the truncated tail otherwise), so the
    listed masses sum to at least 1 - deficit.
    """

    mass: dict
    deficit: Fraction

    def midpoints(self) -> dict:
        return {k: iv.midpoint() for k, iv in self.mass.items()}

    def support(self) -> tuple:
        return tuple(sorted(self.mass))

    def total_mass(self) -> tuple[Fraction, Fraction]:
        lo = sum((iv.lo.as_fraction() for iv in self.mass.values()), Fraction(0))
        hi = sum((iv.hi.as_fraction() for iv in self.mass.values()), Fraction(0))
        return lo, hi + self.deficit


@dataclass(frozen=True)
class PrivacyAuditResult:
    """Outcome of a likelihood-ratio audit between neighboring inputs."""

    epsilon_hat: float
    delta_slack: float
    events_examined: int
    passed: bool

    def __post_init__(self):
        if self.epsilon_hat < 0:
            raise ParameterDomainError("epsilon_hat is non-negative by construction")


def _tolerance_bits(tail_tol: Fraction, terms: int) -> int:
    target = Fraction(tail_tol) / max(terms, 1)
    return max(32, 4 + (target.denominator // max(target.numerator, 1)).bit_length())


# ---------------------------------------------------------------------------
# Exact per-coordinate output laws of the reference mechanisms
# ---------------------------------------------------------------------------


def _approx_noise_weights(params: ApproxParams, w: int) -> dict[int, IntervalValue]:
    """Unnormalized truncated-Gaussian weights exp(-eta^2/(2 sigma^2)), |eta| < r."""
    weights: dict[int, IntervalValue] = {}
    for mag in range(params.r):
        iv = exp_neg(Fraction(mag * mag, 1) / (2 * params.sigma_sq), w)
        weights[mag] = iv
        weights[-mag] = iv
    return weights


def _conditional_law_approx(
    sum_i: int, v: int, params: ApproxParams, weights: Mapping[int, IntervalValue]
) -> dict[int, IntervalValue]:
    """Law of one coordinate given shift index v, unnormalized by Z."""
    acc: dict[int, IntervalValue] = {}
    shifted = sum_i + params.r * v
    for eta in range(-(params.r - 1), params.r):
        g = floor_multiple(shifted + eta, params.grid)
        acc[g] = acc.get(g, _ZERO) + weights[eta]
    return acc


def oracle_coord_dist_approx(
    sum_i: int, params: ApproxParams, tail_tol: Fraction = Fraction(1, 1 << 30)
) -> DiscreteDist:
    """Exact per-coordinate law of approx reference variant 3.

    Averages the truncated-Gaussian pushforward under v -> floor to the grid
    over the s equally likely shifts. The support is finite, so the only
    inexactness is enclosure width, kept below tail_tol in total.
    """
    w = _tolerance_bits(tail_tol, 4 * params.r * params.s)
    weights = _approx_noise_weights(params, w)
    z = _ZERO
    for eta in range(-(params.r - 1), params.r):
        z = z + weights[eta]
    acc: dict[int, IntervalValue] = {}
    for v in range(1, params.s + 1):
        for g, iv in _conditional_law_approx(sum_i, v, params, weights).items():
            acc[g] = acc.get(g, _ZERO) + iv
    denom = z.scale(params.s, w)
    mass = {g: interval_div(iv, denom, w) for g, iv in acc.items()}
    return DiscreteDist(mass=mass, deficit=Fraction(0))


def _pure_noise_weights(
    params: PureParams, tail_tol: Fraction, w: int
) -> tuple[dict[int, IntervalValue], int, Fraction]:
    """Laplace pmf enclosures on [-H, H] plus the certified tail deficit."""
    t = params.scale.t
    horizon = max(1, int(float(t) * math.log(2.0 / float(tail_tol))) + 1)
    while not 2 * exp_neg(Fraction(horizon) / t, w).hi.as_fraction() <= tail_tol:
        horizon += max(1, horizon // 8)
    e_t = exp_pos(1 / t, w)
    one = IntervalValue.exact(1)
    base = interval_div(e_t - one, e_t + one, w)
    weights: dict[int, IntervalValue] = {}
    for mag in range(horizon + 1):
        iv = base * exp_neg(Fraction(mag) / t, w)
        weights[mag] = iv
        weights[-mag] = iv
    deficit = min(tail_tol, 2 * exp_neg(Fraction(horizon) / t, w).hi.as_fraction())
    return weights, horizon, deficit


def _conditional_law_pure(
    sum_i: int, v: int, params: PureParams, weights: Mapping[int, IntervalValue], horizon: int
) -> dict[int, IntervalValue]:
    acc: dict[int, IntervalValue] = {}
    shifted = sum_i + params.m * v
    for eta in range(-horizon, horizon + 1):
        g = floor_multiple(shifted + eta, params.grid)
        acc[g] = acc.get(g, _ZERO) + weights[eta]
    return acc


def oracle_coord_dist_pure(
    sum_i: int, params: PureParams, tail_tol: Fraction = Fraction(1, 1 << 30)
) -> DiscreteDist:
    """Exact per-coordinate law of pure reference variant 2.

    The Laplace weights have full support; they are truncated at a horizon
    whose certified tail mass (the deficit) is at most tail_tol.
    """
    w = _tolerance_bits(tail_tol, 8 * params.s)
    weights, horizon, deficit = _pure_noise_weights(params, tail_tol, w)
    acc: dict[int, IntervalValue] = {}
    for v in range(1, params.s + 1):
        for g, iv in _conditional_law_pure(sum_i, v, params, weights, horizon).items():
            acc[g] = acc.get(g, _ZERO) + iv
    mass = {g: iv.scale(Fraction(1, params.s), w) for g, iv in acc.items()}
    return DiscreteDist(mass=mass, deficit=deficit)


def _joint_from_conditionals(
    conditionals: Sequence[Sequence[Mapping]], s: int, w: int, deficit: Fraction
) -> DiscreteDist:
    """Average over shifts of the product law across coordinates."""
    acc: dict[tuple, IntervalValue] = {}
    for per_coord in conditionals:
        for combo in iter_product(*(law.items() for law in per_coord)):
            outcome = tuple(g for g, _ in combo)
            iv = combo[0][1]
            for _, factor in combo[1:]:
                iv = iv * factor
            acc[outcome] = acc.get(outcome, _ZERO) + iv
    mass = {k: iv.scale(Fraction(1, s), w) for k, iv in acc.items()}
    return DiscreteDist(mass=mass, deficit=deficit)


def oracle_joint_dist_approx(
    counts: CountVector, params: ApproxParams, tail_tol: Fraction = Fraction(1, 1 << 30)
) -> DiscreteDist:
    """Exact joint law of approx variant 3 (coordinates couple only via the shift)."""
    w = _tolerance_bits(tail_tol, 4 * params.r * params.s * max(params.d, 1))
    weights = _approx_noise_weights(params, w)
    z = _ZERO
    for eta in range(-(params.r - 1), params.r):
        z = z + weights[eta]
    conditionals = []
    for v in range(1, params.s + 1):
        per_coord = []
        for sum_i in counts.sums:
            law = _conditional_law_approx(sum_i, v, params, weights)
            per_coord.append({g: interval_div(iv, z, w) for g, iv in law.items()})
        conditionals.append(per_coord)
    return _joint_from_conditionals(conditionals, params.s, w, Fraction(0))


def oracle_joint_dist_pure(
    counts: CountVector, params: PureParams, tail_tol: Fraction = Fraction(1, 1 << 30)
) -> DiscreteDist:
    """Exact joint law of pure variant 2, truncated with deficit <= d * tail_tol."""
    per_coord_tol = Fraction(tail_tol) / max(counts.d, 1)
    w = _tolerance_bits(per_coord_tol, 8 * params.s * max(counts.d, 1))
    weights, horizon, deficit = _pure_noise_weights(params, per_coord_tol, w)
    conditionals = []
    for v in range(1, params.s + 1):
        per_coord = [
            _conditional_law_pure(sum_i, v, params, weights, horizon) for sum_i in counts.sums
        ]
        conditionals.append(per_coord)
    return _joint_from_conditionals(conditionals, params.s, w, deficit * counts.d)


# ---------------------------------------------------------------------------
# Test statistics
# ---------------------------------------------------------------------------


def _as_pmf(dist) -> dict:
    if isinstance(dist, DiscreteDist):
        return dist.midpoints()
    total = sum(dist.values())
    if total == 0:
        raise ParameterDomainError("empty histogram")
    return {k: Fraction(v, total) for k, v in dist.items()}


def tv_distance(a, b) -> Fraction:
    """Total variation distance between pmfs, histograms, or a mix."""
    pa, pb = _as_pmf(a), _as_pmf(b)
    keys = set(pa) | set(pb)
    return sum((abs(pa.get(k, 0) - pb.get(k, 0)) for k in keys), Fraction(0)) / 2


def chi_square(histogram: Mapping, reference: DiscreteDist, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value of a histogram against an oracle law.

    Bins with expected count below ``min_expected`` are pooled into one,
    together with the reference's deficit mass and any observed outcomes
    outside the listed support.
    """
    n = sum(histogram.values())
    if n == 0:
        raise ParameterDomainError("empty histogram")
    mids = reference.midpoints()
    observed = []
    expected = []
    pool_obs = sum(c for k, c in histogram.items() if k not in mids)
    pool_exp = float(reference.deficit) * n
    for k, p in mids.items():
        e = float(p) * n
        o = histogram.get(k, 0)
        if e < min_expected:
            pool_obs += o
            pool_exp += e
        else:
            observed.append(o)
            expected.append(e)
    if pool_exp > 0 or pool_obs > 0:
        if pool_exp <= 0:
            return 0.0  # observed mass where the oracle certifies ~none
        observed.append(pool_obs)
        expected.append(pool_exp)
    if len(observed) < 2:
        return 1.0
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    exp *= obs.sum() / exp.sum()
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(stat, len(observed) - 1))


# ---------------------------------------------------------------------------
# Batch audits
# ---------------------------------------------------------------------------


def randomness_audit(results: Sequence[MechanismResult], traces: Sequence | None = None) -> dict:
    """Bit-consumption summary of a batch of seed-disjoint runs."""
    if not results:
        raise ParameterDomainError("randomness audit needs at least one run")
    totals = np.array([r.report.bits_total for r in results], dtype=float)
    categories = sorted({c for r in results for c in r.report.bits_by_category})
    by_cat = {
        c: float(np.mean([r.report.bits_by_category.get(c, 0) for r in results]))
        for c in categories
    }
    report = {
        "runs": len(results),
        "mean_bits_total": float(totals.mean()),
        "percentile_bits": {
            "p50": float(np.percentile(totals, 50)),
            "p90": float(np.percentile(totals, 90)),
            "p99": float(np.percentile(totals, 99)),
        },
        "mean_bits_by_category": by_cat,
        "mean_boundary_count": float(
            np.mean([len(r.report.boundary_coordinates) for r in results])
        ),
    }
    if traces is not None:
        report["mean_tail_count"] = float(np.mean([t.tail_size for t in traces]))
    return report


def accuracy_audit(
    results: Sequence[MechanismResult],
    counts: CountVector,
    alpha: float,
    beta: float,
) -> dict:
    """Check the empirical rate of ||release - sums||_inf > alpha against beta.

    Passes when the exceedance rate is within binomial noise (three sigma)
    of beta; beta = 0 demands zero exceedances. A nonzero beta needs enough
    runs to resolve it (at least 10/beta).
    """
    if not results:
        raise ParameterDomainError("accuracy audit needs at least one run")
    if beta > 0 and len(results) * beta < 10:
        raise ParameterDomainError("insufficient trials for the requested confidence")
    exceed = 0
    for r in results:
        err = max(abs(y - s_i) for y, s_i in zip(r.values, counts.sums))
        if err > alpha:
            exceed += 1
    n = len(results)
    rate = exceed / n
    slack = 3.0 * math.sqrt(beta * (1.0 - beta) / n) if beta > 0 else 0.0
    return {
        "runs": n,
        "alpha": float(alpha),
        "beta": float(beta),
        "exceedances": exceed,
        "rate": rate,
        "pass": rate <= beta + slack,
    }


def _upper_mass(dist: DiscreteDist, outcome) -> Fraction:
    iv = dist.mass.get(outcome)
    if iv is None:
        return dist.deficit
    return iv.hi.as_fraction() + dist.deficit


def _lower_mass(dist: DiscreteDist, outcome) -> Fraction:
    iv = dist.mass.get(outcome)
    return iv.lo.as_fraction() if iv is not None else Fraction(0)


def _one_sided_slack(p: DiscreteDist, q: DiscreteDist, e_eps_hi: Fraction) -> Fraction:
    slack = Fraction(0)
    for outcome in p.mass:
        gap = _lower_mass(p, outcome) - e_eps_hi * _upper_mass(q, outcome)
        if gap > 0:
            slack += gap
    return slack


def _max_log_ratio(p: DiscreteDist, q: DiscreteDist) -> float:
    best = 0.0
    for outcome in p.mass:
        num = float(_lower_mass(p, outcome))
        den = float(_upper_mass(q, outcome))
        if num <= 0:
            continue
        if den <= 0:
            return math.inf
        best = max(best, math.log(num / den))
    return best


def privacy_audit(
    kind: str,
    x: CountVector,
    x_neighbor: CountVector,
    params,
    epsilon: Fraction,
    delta: Fraction,
    tail_tol: Fraction = Fraction(1, 1 << 30),
) -> PrivacyAuditResult:
    """Certified likelihood-ratio audit of the reference law on neighbors.

    Computes exact oracle distributions for both inputs and flags a failure
    only if some event provably violates P[o] <= e^eps Q[o] + delta, i.e.
    the certified lower bound of the additive slack exceeds delta. The
    reported epsilon_hat is the largest certified log ratio over singleton
    events in either direction.
    """
    if kind == "approx":
        oracle = oracle_joint_dist_approx
    elif kind == "pure":
        oracle = oracle_joint_dist_pure
    else:
        raise ParameterDomainError("kind must be 'approx' or 'pure'")
    dist_a = oracle(x, params, tail_tol)
    dist_b = oracle(x_neighbor, params, tail_tol)
    e_eps_hi = exp_pos(Fraction(epsilon), 96).hi.as_fraction()
    slack = max(
        _one_sided_slack(dist_a, dist_b, e_eps_hi),
        _one_sided_slack(dist_b, dist_a, e_eps_hi),
    )
    eps_hat = max(_max_log_ratio(dist_a, dist_b), _max_log_ratio(dist_b, dist_a))
    return PrivacyAuditResult(
        epsilon_hat=eps_hat,
        delta_slack=float(slack),
        events_examined=len(set(dist_a.mass) | set(dist_b.mass)),
        passed=slack <= delta,
    )
