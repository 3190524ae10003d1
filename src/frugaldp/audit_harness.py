"""Brute-force oracles and statistical audits for the release mechanisms.

The oracles compute the exact per-coordinate (and small-d joint) output
laws of the reference mechanisms as pmfs whose masses are enclosed by
integer pairs at one scale 2**-w, so distributional
equivalence, accuracy envelopes and privacy ratios can be checked against
ground truth rather than against another sampler. Privacy is audited
through certified oracle ratios only.

Both modes share one pipeline, as their releases share one shift-and-round
core: the noise law is pushed onto the grid under each of the s equally
likely shifts, the coordinates' laws are multiplied, and the products are
averaged over the shifts. Masses are non-negative, so the product of two
enclosures (a, b) and (c, d) is (a c, b d), kept exact; only the average
rounds, once, to w. Only the noise law is per mode, and the type of
the params object picks it: the truncated Gaussian on (-r, r), which is
finite, or the Laplace law truncated at a horizon whose certified tail mass
is the deficit. A coordinate's law is the joint law at d = 1. A noise law
costs one exponential q = e^(-x) and one multiply pair per magnitude |eta|
(two in approx mode), and a cell of a coordinate's law one difference of
prefix sums. The oracle shares no table with the samplers it checks.

The harness needs only the standard library: the chi-square p-value comes
from the closed-form upper tail of the chi-square law, and the batch
summaries from ``math`` and ``statistics``.
"""

from __future__ import annotations

import math
import statistics
from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import accumulate

from .approx_mech import ApproxParams
from .errors import ParameterDomainError
from .precise_math import _exp_neg_guarded, exp_pos
from .pure_mech import PureParams
from .release import CountVector, MechanismResult, check_release

_TAIL_TOL = Fraction(1, 1 << 30)


class DiscreteDist(namedtuple("DiscreteDist", "mass deficit w")):
    """Finite-support distribution with enclosed masses.

    ``mass`` maps each outcome to integers (lo, hi) with lo <= 2**w P[o] <= hi.
    ``deficit`` bounds the true mass of outcomes not listed in ``mass``
    (zero for exactly finite laws, the truncated tail otherwise), so the
    listed masses sum to at least 1 - deficit.
    """

    __slots__ = ()

    def midpoints(self) -> dict:
        return {k: Fraction(lo + hi, 2 << self.w) for k, (lo, hi) in self.mass.items()}


class PrivacyAuditResult(namedtuple("PrivacyAuditResult", "epsilon_hat delta_slack events_examined passed")):
    """Outcome of a likelihood-ratio audit between neighboring inputs."""

    __slots__ = ()

    def __new__(cls, epsilon_hat: float, delta_slack: float, events_examined: int, passed: bool):
        if epsilon_hat < 0:
            raise ParameterDomainError("epsilon_hat is non-negative by construction")
        return tuple.__new__(cls, (epsilon_hat, delta_slack, events_examined, passed))


def _tolerance_bits(tail_tol: Fraction, terms: int) -> int:
    target = Fraction(tail_tol) / max(terms, 1)
    return max(32, 4 + (target.denominator // max(target.numerator, 1)).bit_length())


# ---------------------------------------------------------------------------
# Exact output laws of the reference mechanisms
# ---------------------------------------------------------------------------


# Each mode's noise law is (weights, total, deficit, scale): one list of
# integer pairs at 2**-scale, ascending in eta from -reach to reach and
# computed as powers of one exponential (:func:`_exp_neg_powers`); a cell's
# mass is the sum of the weights the shift-and-round maps into it, one
# difference of prefix sums, divided by ``total`` (None when the weights are
# already normalized); ``deficit`` bounds the mass of the noise values left out.
_Noise = tuple[list[tuple[int, int]], "tuple[int, int] | None", Fraction, int]


def _exp_neg_powers(x: Fraction, count: int, w: int, square: bool) -> list[tuple[int, int]]:
    """Enclosures of 2**(w + 4) exp(-x n), for n = j or n = j*j (``square``) along j = 0..count-1.

    q = exp(-x) is enclosed once at 2**-W, W = w + 4 + g with g = bit_length(4 top)
    + 2 guard bits, top the largest n. Each step multiplies by q, or by
    q**(2j+1), kept by one more multiply by q*q, rounding lower bounds down and
    upper bounds up. q's width (at most 16 units of 2**-W) and the roundings put
    each bound within 18 n < 2**(g + 1) units of 2**W q**n, so once rounded
    outward to w + 4 each pair lies within 2.125 of the true value: hi - lo <= 4.
    """
    top = (count - 1) ** 2 if square else count - 1
    g = (4 * max(top, 1)).bit_length() + 2
    wp = w + 4 + g
    q_lo, q_hi = _exp_neg_guarded(x, w + g)
    s_lo, s_hi = q_lo * q_lo >> wp, -(-q_hi * q_hi >> wp)
    lo, hi, f_lo, f_hi = 1 << wp, 1 << wp, q_lo, q_hi
    out = []
    for _ in range(count):
        out.append((lo >> g, -(-hi >> g)))
        lo, hi = lo * f_lo >> wp, -(-hi * f_hi >> wp)
        if square:
            f_lo, f_hi = f_lo * s_lo >> wp, -(-f_hi * s_hi >> wp)
    return out


def _approx_noise(params: ApproxParams, w: int) -> _Noise:
    """Truncated-Gaussian weights exp(-eta^2/(2 sigma^2)) on |eta| < r, their total, no deficit."""
    half = _exp_neg_powers(1 / (2 * params.sigma_sq), params.r, w, square=True)
    weights = half[:0:-1] + half
    total = sum(lo for lo, _ in weights), sum(hi for _, hi in weights)
    return weights, total, Fraction(0), w + 4


def _pure_noise(params: PureParams, tail_tol: Fraction, w: int) -> _Noise:
    """Laplace pmf enclosures on [-H, H] and the certified deficit of the tails past H."""
    t = params.scale

    def tails(h: int) -> Fraction:  # upper bound of P[|eta| >= h] <= 2 exp(-h/t)
        return Fraction(_exp_neg_guarded(Fraction(h) / t, w)[1], 1 << (w + 3))

    horizon = max(1, int(float(t) * math.log(2.0 / float(tail_tol))) + 1)
    while not (deficit := tails(horizon)) <= tail_tol:
        horizon += max(1, horizon // 8)
    # The pmf at 0, (e^(1/t) - 1) / (e^(1/t) + 1), rounded outward at w.
    e_lo, e_hi = exp_pos(1 / t, w + 2)
    one = 1 << (w + 2)
    b_lo, b_hi = ((e_lo - one) << w) // (e_hi + one), -(-((e_hi - one) << w) // (e_lo + one))
    half = [(b_lo * lo, b_hi * hi) for lo, hi in _exp_neg_powers(1 / t, horizon + 1, w, square=False)]
    return half[:0:-1] + half, None, deficit, 2 * w + 4


def _shift_laws(sums: Sequence[int], params, noise: _Noise, w: int) -> tuple[list[list[dict]], int]:
    """Law of each coordinate given each shift v = 1..s: the noise pushed onto the grid.

    A cell costs one difference of the weights' prefix sums. Returns the laws
    and their scale: w once divided by the total, else the noise's.
    """
    weights, total, _, scale = noise
    reach, grid, unit = len(weights) // 2, params.grid, params.grid // params.s
    cum_lo, cum_hi = (list(accumulate(column, initial=0)) for column in zip(*weights))
    laws = []
    for v in range(1, params.s + 1):
        per_coord = []
        for sum_i in sums:
            # Weight i is the noise eta = i - reach; cell g takes the i with g <= base + i < g + grid.
            base = sum_i + unit * v - reach
            law: dict[int, tuple[int, int]] = {}
            for g in range(base // grid * grid, base + 2 * reach + 1, grid):
                a, b = max(g - base, 0), min(g + grid - base, 2 * reach + 1)
                law[g] = cum_lo[b] - cum_lo[a], cum_hi[b] - cum_hi[a]
            if total is not None:
                law = {g: ((lo << w) // total[1], -(-(hi << w) // total[0])) for g, (lo, hi) in law.items()}
            per_coord.append(law)
        laws.append(per_coord)
    return laws, (scale if total is None else w)


def _joint_dist(laws: Sequence[Sequence[Mapping]], scale: int, s: int, w: int, deficit: Fraction):
    """Average over the s shifts of the product law across coordinates, rounded outward to w.

    The product is built one coordinate at a time, so each partial product
    is computed once and shared by every outcome that extends it; the fold
    order stays ((a*b)*c) and outcomes come in lexicographic order of cells.
    The d coordinate laws are at 2**-scale, so a product is at 2**-(d scale).
    """
    acc: dict[tuple, tuple[int, int]] = {}
    for first, *rest in laws:
        partial = [((g,), iv) for g, iv in first.items()]
        for law in rest:
            partial = [
                (prefix + (g,), (lo * f_lo, hi * f_hi))
                for prefix, (lo, hi) in partial
                for g, (f_lo, f_hi) in law.items()
            ]
        for outcome, (lo, hi) in partial:
            a, b = acc.get(outcome, (0, 0))
            acc[outcome] = a + lo, b + hi
    den = s << (len(laws[0]) * scale - w)
    mass = {k: (lo // den, -(-hi // den)) for k, (lo, hi) in acc.items()}
    return DiscreteDist(mass=mass, deficit=deficit, w=w)


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
    laws, scale = _shift_laws(counts.sums, params, noise, w)
    return _joint_dist(laws, scale, params.s, w, noise[2] * d)


# The audit-desk benchmark workload and its tracer call the oracle by this name.
oracle_joint_dist_pure = oracle_joint_dist


def release_entropy(counts: CountVector, params, omega: int | None = None) -> float:
    """H(shift) + sum_i H(cell_i | shift), in bits, for the efficient release of ``counts``.

    What the release draws: at a forced shift ``omega`` the cells alone, and
    with the shift drawn log2 s plus the cells' entropy averaged over the s
    shifts. A cell's mass comes from the midpoints of the cell law's level-0
    records of P[eta >= e] at its edge keys e, so the figure is a float, not a
    certified bound; each side's cells stop where the tail falls below 2**-60.
    """
    cells, grid, s = params.cells, params.grid, params.s
    unit = grid // s
    check_release(counts, params, unit, omega)

    def tail(e: int) -> float:
        p, lo, hi, _ = cells.tail_ratio(e, 0)
        return (lo + hi) / 2 ** (p + 1)

    shifts = range(unit, grid + 1, unit) if omega is None else (omega,)
    total = 0.0
    for v in shifts:
        for c in counts.sums:
            low = (c + v) // grid * grid
            edges = (low + grid - c - v, c + v - low + 1)  # the keys eta must reach to leave upward, downward
            masses = [1 - tail(edges[0]) - tail(edges[1])]
            for e in edges:
                while (t := tail(e)) > 2.0**-60:
                    masses.append(t - tail(e + grid))
                    e += grid
            total -= math.fsum(m * math.log2(m) for m in masses if m > 0)
    return total / len(shifts) + (0.0 if omega is not None else math.log2(s))


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


def chi_square(histogram: Mapping, reference: DiscreteDist) -> float:
    """Goodness-of-fit p-value of a histogram against an oracle law.

    Bins with expected count below 5 are pooled into one,
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
        if e < 5.0:
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
    scale = math.fsum(observed) / math.fsum(expected)
    expected = [e * scale for e in expected]
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return _chi2_sf(stat, len(observed) - 1)


def _chi2_sf(x: float, k: int) -> float:
    """Upper tail P[X >= x] of the chi-square law with k degrees of freedom.

    This is the regularized gamma tail Q(k/2, y), y = x/2, in closed form:
    sum_{i < k/2} e^-y y^i / i! for even k, and erfc(sqrt(y)) +
    sum_{i < (k-1)/2} e^-y y^(i+1/2) / Gamma(i+3/2) for odd k. Every term
    is positive, so the sum loses nothing to cancellation.
    """
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    half = k % 2 / 2  # the shapes a are i + 1/2 for odd k
    terms = [math.exp(-y + (i + half) * log_y - math.lgamma(i + half + 1)) for i in range(k // 2)]
    head = math.erfc(math.sqrt(y)) if k % 2 else 0.0
    return min(1.0, math.fsum([head, *terms]))


# ---------------------------------------------------------------------------
# Batch audits
# ---------------------------------------------------------------------------


def randomness_audit(results: Sequence[MechanismResult]) -> dict:
    """Bit-consumption summary of a batch of seed-disjoint runs."""
    if not results:
        raise ParameterDomainError("randomness audit needs at least one run")
    totals = [r.report.bits_total for r in results]
    # Percentiles interpolate linearly between order statistics; one run is its own percentile.
    cuts = statistics.quantiles(totals, n=100, method="inclusive") if len(totals) > 1 else totals * 99
    categories = sorted({c for r in results for c in r.report.bits_by_category})
    by_cat = {
        c: statistics.fmean(r.report.bits_by_category.get(c, 0) for r in results)
        for c in categories
    }
    return {
        "runs": len(results),
        "mean_bits_total": statistics.fmean(totals),
        "percentile_bits": {f"p{q}": float(cuts[q - 1]) for q in (50, 90, 99)},
        "mean_bits_by_category": by_cat,
        "mean_boundary_count": statistics.fmean(len(r.report.boundary_coordinates) for r in results),
    }


def _upper_mass(dist: DiscreteDist, outcome) -> Fraction:
    _, hi = dist.mass.get(outcome, (0, 0))
    return Fraction(hi, 1 << dist.w) + dist.deficit


def _lower_mass(dist: DiscreteDist, outcome) -> Fraction:
    lo, _ = dist.mass.get(outcome, (0, 0))
    return Fraction(lo, 1 << dist.w)


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
) -> PrivacyAuditResult:
    """Certified likelihood-ratio audit of the reference law on neighbors.

    Computes exact oracle distributions for both inputs, in the mode of
    ``params`` (ApproxParams or PureParams), and flags a failure
    only if some event provably violates P[o] <= e^eps Q[o] + delta, i.e.
    the certified lower bound of the additive slack exceeds delta. The
    reported epsilon_hat is the largest certified log ratio over singleton
    events in either direction.
    """
    dist_a = oracle_joint_dist(x, params)
    dist_b = oracle_joint_dist(x_neighbor, params)
    e_eps_hi = Fraction(exp_pos(Fraction(epsilon), 98)[1], 1 << 98)
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
