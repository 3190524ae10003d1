"""Brute-force oracles and statistical audits for the release mechanisms.

The oracles compute the exact per-coordinate (and small-d joint) output
laws of the reference mechanisms as interval-valued pmfs, so distributional
equivalence, accuracy envelopes and privacy ratios can be checked against
ground truth rather than against another sampler. Privacy is audited
through certified oracle ratios only.

Both modes share one pipeline, as their releases share one shift-and-round
core: the noise law is pushed onto the grid under each of the s equally
likely shifts, the coordinates' laws are multiplied, and the products are
averaged over the shifts. Only the noise law is per mode, and the type of
the params object picks it: the truncated Gaussian on (-r, r), which is
finite, or the Laplace law truncated at a horizon whose certified tail mass
is the deficit. A coordinate's law is the joint law at d = 1.
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
_TAIL_TOL = Fraction(1, 1 << 30)


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
# Exact output laws of the reference mechanisms
# ---------------------------------------------------------------------------


# Each mode's noise law is (weights, total, deficit), in ascending eta: a
# cell's mass is the sum of the weights the shift-and-round maps into it,
# divided by ``total`` (None when the weights are already normalized), and
# ``deficit`` bounds the mass of the noise values left out.
_Noise = tuple[dict[int, IntervalValue], "IntervalValue | None", Fraction]


def _approx_noise(params: ApproxParams, w: int) -> _Noise:
    """Truncated-Gaussian weights exp(-eta^2/(2 sigma^2)) on |eta| < r, their total, no deficit."""
    half = [exp_neg(Fraction(mag * mag, 1) / (2 * params.sigma_sq), w) for mag in range(params.r)]
    weights = {eta: half[abs(eta)] for eta in range(1 - params.r, params.r)}
    return weights, sum(weights.values(), _ZERO), Fraction(0)


def _pure_noise(params: PureParams, tail_tol: Fraction, w: int) -> _Noise:
    """Laplace pmf enclosures on [-H, H] and the certified deficit of the tails past H."""
    t = params.scale.t
    horizon = max(1, int(float(t) * math.log(2.0 / float(tail_tol))) + 1)
    while not 2 * exp_neg(Fraction(horizon) / t, w).hi.as_fraction() <= tail_tol:
        horizon += max(1, horizon // 8)
    e_t = exp_pos(1 / t, w)
    one = IntervalValue.exact(1)
    base = interval_div(e_t - one, e_t + one, w)
    half = [base * exp_neg(Fraction(mag) / t, w) for mag in range(horizon + 1)]
    deficit = min(tail_tol, 2 * exp_neg(Fraction(horizon) / t, w).hi.as_fraction())
    return {eta: half[abs(eta)] for eta in range(-horizon, horizon + 1)}, None, deficit


def _shift_laws(sums: Sequence[int], params, noise: _Noise, w: int) -> list[list[dict]]:
    """Law of each coordinate given each shift v = 1..s: the noise pushed onto the grid."""
    weights, total, _ = noise
    grid = params.grid
    unit = grid // params.s
    laws = []
    for v in range(1, params.s + 1):
        per_coord = []
        for sum_i in sums:
            shifted = sum_i + unit * v
            law: dict[int, IntervalValue] = {}
            for eta, iv in weights.items():
                g = floor_multiple(shifted + eta, grid)
                law[g] = law.get(g, _ZERO) + iv
            if total is not None:
                law = {g: interval_div(iv, total, w) for g, iv in law.items()}
            per_coord.append(law)
        laws.append(per_coord)
    return laws


def _joint_dist(laws: Sequence[Sequence[Mapping]], s: int, w: int, deficit: Fraction) -> DiscreteDist:
    """Average over the s shifts of the product law across coordinates."""
    acc: dict[tuple, IntervalValue] = {}
    for per_coord in laws:
        for combo in iter_product(*(law.items() for law in per_coord)):
            outcome = tuple(g for g, _ in combo)
            iv = combo[0][1]
            for _, factor in combo[1:]:
                iv = iv * factor
            acc[outcome] = acc.get(outcome, _ZERO) + iv
    mass = {k: iv.scale(Fraction(1, s), w) for k, iv in acc.items()}
    return DiscreteDist(mass=mass, deficit=deficit)


def oracle_joint_dist(counts: CountVector, params, tail_tol: Fraction = _TAIL_TOL) -> DiscreteDist:
    """Exact joint law of the reference release of ``counts``; the params type picks the mode.

    Enclosure widths total at most tail_tol; the Laplace noise is also
    truncated, with certified deficit at most tail_tol over all coordinates.
    """
    d = counts.d
    if isinstance(params, ApproxParams):
        w = _tolerance_bits(tail_tol, 4 * params.r * params.s * d)
        noise = _approx_noise(params, w)
    elif isinstance(params, PureParams):
        tail_tol = Fraction(tail_tol) / d
        w = _tolerance_bits(tail_tol, 8 * params.s * d)
        noise = _pure_noise(params, tail_tol, w)
    else:
        raise ParameterDomainError("params must be ApproxParams or PureParams")
    return _joint_dist(_shift_laws(counts.sums, params, noise, w), params.s, w, noise[2] * d)


def oracle_coord_dist(sum_i: int, params, tail_tol: Fraction = _TAIL_TOL) -> DiscreteDist:
    """Exact law of one coordinate: the joint law at d = 1, keyed by the released value."""
    joint = oracle_joint_dist(CountVector(d=1, n=sum_i, sums=(sum_i,)), params, tail_tol)
    return DiscreteDist(mass={g: iv for (g,), iv in joint.mass.items()}, deficit=joint.deficit)


# Per-mode names; the params type alone decides the mode.
oracle_coord_dist_approx = oracle_coord_dist_pure = oracle_coord_dist
oracle_joint_dist_approx = oracle_joint_dist_pure = oracle_joint_dist


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
    x: CountVector,
    x_neighbor: CountVector,
    params,
    epsilon: Fraction,
    delta: Fraction,
    tail_tol: Fraction = _TAIL_TOL,
) -> PrivacyAuditResult:
    """Certified likelihood-ratio audit of the reference law on neighbors.

    Computes exact oracle distributions for both inputs, in the mode of
    ``params`` (ApproxParams or PureParams), and flags a failure
    only if some event provably violates P[o] <= e^eps Q[o] + delta, i.e.
    the certified lower bound of the additive slack exceeds delta. The
    reported epsilon_hat is the largest certified log ratio over singleton
    events in either direction.
    """
    dist_a = oracle_joint_dist(x, params, tail_tol)
    dist_b = oracle_joint_dist(x_neighbor, params, tail_tol)
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
