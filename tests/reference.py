"""Reference samplers and mechanisms that the tests check the package against.

The package releases through :func:`frugaldp.core_samplers.locate` over
cell laws and never draws a noise value. The code here does: rejection
samplers for the integer Laplace and Gaussian laws (with their exact
Bernoulli oracles, ``RefinableProb``) and the reference chains that add
noise per coordinate, shift and round. It is independent of ``CellLaw`` on
purpose, so that agreement between the two is evidence about both. None of
it is part of the package's API. ``FiniteLaw`` feeds ``locate`` the upper
tails of a finite law, for the tests of sampling at the entropy limit.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from typing import Callable, Mapping

import numpy as np
from scipy import stats

from frugaldp.approx_mech import ApproxParams, _assert_envelope, certify_window_radius
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import _LEVEL_START, Stream, level_record, locate
from frugaldp.errors import EnclosureContractError, MathDomainError, ParameterDomainError
from frugaldp.precise_math import BoundedCache, RationalBounds, _exp_neg_guarded, exp_neg, exp_pos
from frugaldp.precise_math import rational_enclose
from frugaldp.pure_mech import PureParams
from frugaldp.release import (
    _CARRY_BITS,
    _SHORT_QUEUE,
    CountVector,
    MechanismResult,
    build_report,
    check_release,
    draw_shift,
)


class SampleBudgetError(RuntimeError):
    """A rejection loop exceeded its diagnostic attempt cap.

    At valid mechanism parameters the cap is unreachable except with
    probability far below 2**-40; hitting it indicates a misconfigured
    sampler rather than bad luck.
    """


#: Rejection loops raise SampleBudgetError after this many attempts. At valid
#: mechanism parameters even 40 attempts fail with probability < 2**-40.
ATTEMPT_CAP = 1 << 20

# Serializes the building of RefinableProb levels (reads take no lock), so
# that threads sharing an oracle build the levels one thread alone would.
_LEVEL_LOCK = threading.RLock()


def is_silent(sum_i: int, omega: int, halfwidth: int, grid: int) -> bool:
    """True when rounding is unaffected by any noise in (-halfwidth, halfwidth)."""
    if grid < 1:
        raise ParameterDomainError("grid unit must be a positive integer")
    center, reach = sum_i + omega, halfwidth - 1
    return (center - reach) // grid == (center + reach) // grid


def floor_multiple(v: int, k: int) -> int:
    """Largest multiple of k that is <= v (floor toward minus infinity): the reference chains' rounding."""
    if k < 1:
        raise ParameterDomainError("grid unit must be a positive integer")
    return (v // k) * k


def floor_sqrt(x: "Fraction | int") -> int:
    """Exact floor of sqrt(x) for a non-negative rational."""
    xf = Fraction(x)
    if xf < 0:
        raise MathDomainError("floor_sqrt requires x >= 0")
    k = isqrt(xf.numerator // xf.denominator)
    while (k + 1) * (k + 1) * xf.denominator <= xf.numerator:
        k += 1
    while k > 0 and k * k * xf.denominator > xf.numerator:
        k -= 1
    return k


def disjoint(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> bool:
    """True when two level records of the same threshold cannot both be sound."""
    return a[1] << b[0] > b[2] << a[0] or a[2] << b[0] < b[1] << a[0]


# ---------------------------------------------------------------------------
# Finite laws at the entropy limit
# ---------------------------------------------------------------------------


class FiniteLaw:
    """A law on {1..k} given by enclosures of its cumulatives, as :func:`locate` reads it.

    ``cumulative(i, w)`` returns integers (lo, hi) with lo <= 2**w P_i <= hi
    for P_0 = 0 <= P_1 <= ... <= P_k = 1. ``bounds(i, level)`` is the
    :func:`level_record` of the upper tail 1 - P_i, so a draw is
    ``1 + locate(tape, law.bounds, range(1, law.k))``. Records are cached;
    enclosures of one cumulative at two levels must intersect.
    """

    __slots__ = ("k", "_cumulative", "_records")

    def __init__(self, k: int, cumulative: Callable[[int, int], tuple[int, int]]):
        self.k = k
        self._cumulative = cumulative
        self._records: dict[int, dict[int, tuple[int, int, int, int]]] = {}

    @classmethod
    def from_fractions(cls, probs) -> "FiniteLaw":
        """The law of exactly known rational point masses."""
        cums = list(accumulate(probs, initial=Fraction(0)))
        return cls(len(probs), lambda i, w: rational_enclose(cums[i], w))

    def bounds(self, i: int, level: int) -> tuple[int, int, int, int]:
        levels = self._records.setdefault(i, {})
        rec = levels.get(level)
        if rec is None:
            p = _LEVEL_START << level
            lo, hi = self._cumulative(i, p)
            rec = level_record(p, (1 << p) - hi, (1 << p) - lo)
            if any(disjoint(rec, other) for other in levels.values()):
                raise EnclosureContractError(f"cumulative {i} enclosures at two levels are disjoint")
            levels[level] = rec
        return rec


# ---------------------------------------------------------------------------
# Exact Bernoulli oracles and rejection samplers
# ---------------------------------------------------------------------------


class RefinableProb:
    """A probability in [0, 1] with certified scaled-integer bounds.

    Wraps an enclosure function ``fn(w) -> (lo, hi)``, lo <= 2**w q <= hi, and
    caches its level records, level j at precision 64 * 2**j. Threads may
    share an instance; see ``_LEVEL_LOCK``.
    """

    __slots__ = ("_fn", "_levels")

    def __init__(self, fn: Callable[[int], tuple[int, int]]):
        self._fn = fn
        self._levels: list[tuple[int, int, int, int]] = []

    def bounds(self, _key, level: int) -> tuple[int, int, int, int]:
        """The probability's :func:`level_record` at ``level``, in the form :func:`locate` reads."""
        levels = self._levels
        if level < len(levels):
            return levels[level]
        with _LEVEL_LOCK:
            while len(levels) <= level:
                p = _LEVEL_START << len(levels)
                rec = level_record(p, *self._fn(p))
                # Levels must overlap; disjoint enclosures mean a broken oracle.
                if levels and disjoint(rec, levels[-1]):
                    raise EnclosureContractError("refined enclosure disjoint from previous level")
                levels.append(rec)
        return levels[level]


def bernoulli_from_prob(tape: BitTape, prob: RefinableProb) -> int:
    """Exact Ber(q) for the probability enclosed by ``prob``: 1 when u < q.

    Expected tape cost is about two bits regardless of q.
    """
    return locate(tape, prob.bounds, (None,))


_EXP_NEG_ONE = RefinableProb(lambda p: exp_neg(1, p))

#: Acceptance oracles exp(-x) of :func:`geometric_fast`, keyed by the exponent
#: x = u/a (a the numerator of t), cached since refinement is deterministic.
#: A scale with a large numerator draws many distinct residues, so the cache
#: is bounded.
_RESIDUES: BoundedCache = BoundedCache(4096)


def residue_oracle(t: Fraction, u: int) -> RefinableProb:
    """Oracle for exp(-u/a) where a is the numerator of t."""
    x = Fraction(u, t.numerator)
    oracle = _RESIDUES.get(x)
    if oracle is None:
        oracle = _RESIDUES[x] = RefinableProb(lambda p, x=x: exp_neg(x, p))
    return oracle


class GaussParam:
    """Variance parameter sigma^2 > 0 for the integer Gaussian sampler."""

    __slots__ = ("sigma_sq", "proposal_scale", "_accept")

    def __init__(self, sigma_sq: "Fraction | int"):
        sigma_sq = Fraction(sigma_sq)
        if sigma_sq <= 0:
            raise ParameterDomainError("sigma_sq must be positive")
        self.sigma_sq = sigma_sq
        self.proposal_scale = Fraction(max(1, floor_sqrt(sigma_sq)))
        self._accept: dict[int, RefinableProb] = {}

    def accept_oracle(self, magnitude: int) -> RefinableProb:
        """Oracle for exp(-(|y| - sigma^2/t)^2 / (2 sigma^2))."""
        oracle = self._accept.get(magnitude)
        if oracle is None:
            gap = (magnitude - self.sigma_sq / self.proposal_scale) ** 2 / (2 * self.sigma_sq)
            oracle = RefinableProb(lambda p, x=gap: exp_neg(x, p))
            self._accept[magnitude] = oracle
        return oracle


def geometric_fast(tape: BitTape, t: Fraction) -> int:
    """Geo(1 - exp(-1/t)) on {0, 1, 2, ...}, in O(polylog t) expected bits.

    Counts failures before the first success, without the O(t) coin flips of
    the plain construction: draws the residue u uniformly mod a (a = numerator
    of t), accepts it with probability exp(-u/a), adds an independent
    unit-rate geometric block a*v, and divides by the denominator. Each piece
    is exact, so the result is exactly Geo(1 - exp(-1/t)).
    """
    a = t.numerator
    b = t.denominator
    while True:
        u = tape.uniform_range(a) - 1
        if u == 0 or bernoulli_from_prob(tape, residue_oracle(t, u)) == 1:
            break
    v = 0
    while bernoulli_from_prob(tape, _EXP_NEG_ONE) == 1:
        v += 1
    return (u + a * v) // b


def discrete_laplace(tape: BitTape, t: Fraction) -> int:
    """Lap_Z(t): difference U - V of two i.i.d. Geo(1 - exp(-1/t)) draws."""
    return geometric_fast(tape, t) - geometric_fast(tape, t)


def discrete_gaussian(tape: BitTape, param: GaussParam) -> int:
    """Integer Gaussian with pmf proportional to exp(-y^2 / (2 sigma^2)).

    Rejection from Lap_Z(max(1, floor(sigma))) with an exact Bernoulli
    acceptance test on the exponent gap; expected attempts are O(1).
    """
    scale = param.proposal_scale
    for _ in range(ATTEMPT_CAP):
        y = discrete_laplace(tape, scale)
        if bernoulli_from_prob(tape, param.accept_oracle(abs(y))) == 1:
            return y
    raise SampleBudgetError("discrete Gaussian rejection exceeded the attempt cap")


def _truncated_attempts(
    tape: BitTape, base: Callable[[BitTape], int], bound: int
) -> tuple[int, int]:
    for attempt in range(1, ATTEMPT_CAP + 1):
        v = base(tape)
        if abs(v) < bound:
            return v, attempt
    raise SampleBudgetError("truncated sampler exceeded the attempt cap")


def laplace_tail_sample(tape: BitTape, t: Fraction, threshold: int) -> int:
    """Lap_Z(t) conditioned on |X| >= threshold, for threshold >= 1.

    One fair bit picks the tail (the two tails carry equal mass), then the
    magnitude is threshold plus a geometric, by memorylessness.
    """
    if threshold < 1:
        raise ParameterDomainError("tail threshold must be a positive integer")
    positive = tape.next_bit()
    magnitude = threshold + geometric_fast(tape, t)
    return magnitude if positive else -magnitude


# ---------------------------------------------------------------------------
# Reference chains
# ---------------------------------------------------------------------------


def approx_params_from_sigma(
    d: int, s: int, sigma_sq: Fraction, gamma: Fraction
) -> ApproxParams:
    """Parameters with a forced rational variance; r still certified from gamma.

    Intended for audits and equivalence tests, which hold for any (sigma, r, s).
    """
    sigma_sq = Fraction(sigma_sq)
    gamma = Fraction(gamma)
    r = certify_window_radius(sigma_sq, gamma / d)
    return ApproxParams(
        d,
        s,
        sigma_sq,
        r,
        gamma=RationalBounds(gamma, gamma),
    )


@lru_cache(maxsize=64)
def gauss_param(sigma_sq: Fraction) -> GaussParam:
    """The Gaussian sampler's parameter for a variance, shared so its oracles stay cached."""
    return GaussParam(sigma_sq)


def _truncated_gaussian(tape: BitTape, params: ApproxParams) -> tuple[int, int]:
    gauss = gauss_param(params.sigma_sq)
    return _truncated_attempts(tape, lambda t: discrete_gaussian(t, gauss), params.r)


def mech_approx_reference(
    counts: CountVector,
    params: ApproxParams,
    variant: int,
    tape: BitTape,
    omega: int | None = None,
) -> MechanismResult:
    """Reference mechanisms, in increasing order of structure.

    variant 1: counts + Gaussian noise per coordinate.
    variant 2: noise conditioned on staying inside (-r, r).
    variant 3: one shared shift from {r, 2r, ..., rs}, truncated noise,
        rounding down to the grid r*s.

    Variant 3 defines the exact output law the efficient release must match.
    """
    check_release(counts, params, params.r, omega)
    if variant not in (1, 2, 3):
        raise ParameterDomainError("variant must be 1, 2 or 3")
    start = tape.snapshot()
    attempts: dict[int, int] = {}
    if variant == 3 and omega is None:
        omega = draw_shift(tape, params.r, params.s)
    values = []
    for i, s_i in enumerate(counts.sums):
        with tape.category("gaussian"):
            if variant == 1:
                eta = discrete_gaussian(tape, gauss_param(params.sigma_sq))
                attempts[i] = 1
            else:
                eta, attempts[i] = _truncated_gaussian(tape, params)
        if variant == 3:
            values.append(floor_multiple(s_i + omega + eta, params.grid))
        else:
            values.append(s_i + eta)
    values = tuple(values)
    if variant == 3:
        _assert_envelope(values, counts, params)
    return MechanismResult(values, build_report(tape, start, tuple(range(counts.d)), attempts))


def pure_tail_mass(params: PureParams, w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w p, p = 2 exp(-(m - 1)/t) / (exp(1/t) + 1), with hi - lo <= 2.

    Built from ``precise_math``'s exp(-x) and exp(x) directly, not from the
    powers of q that ``LaplaceCells`` encloses p with, so the two check each other.
    """
    inv_t = 1 / params.scale
    # The numerator rounded outward at 2**-(w + 6), the denominator at 2**-(w + 8).
    a_lo, a_hi = _exp_neg_guarded((params.m - 1) * inv_t, w + 6)  # at 2**-(w + 10)
    num_lo, num_hi = a_lo >> 3, -(-a_hi >> 3)
    e_lo, e_hi = exp_pos(inv_t, w + 8)
    one = 1 << (w + 8)
    return (num_lo << (w + 2)) // (e_hi + one), -(-(num_hi << (w + 2)) // (e_lo + one))


@lru_cache(maxsize=64)
def membership(params: PureParams) -> RefinableProb:
    """Oracle for the tail probability p, the per-coordinate coin of variant 4."""
    return RefinableProb(lambda w: pure_tail_mass(params, w))


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
    variant 4: per-coordinate tail/body split: an independent membership
        coin with the exact tail probability decides whether the coordinate
        draws conditioned-tail noise or truncated body noise.

    Variant 4 consumes the shift like the others but the printed recipe
    leaves its origin open; pass ``omega`` to condition on a fixed shift or
    leave it None to draw one.
    """
    check_release(counts, params, params.m, omega)
    if variant not in (1, 2, 4):
        raise ParameterDomainError("variant must be 1, 2 or 4")
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
    else:
        for i, s_i in enumerate(counts.sums):
            with tape.category("subset"):
                in_tail = bernoulli_from_prob(tape, membership(params))
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


def draw_runs(tape: BitTape, tail_ratio, grid: int, queued: list, keys: list, values: list, seen=None) -> None:
    """:func:`frugaldp.release.draw_runs` with every level read through one closure.

    The package streams a run's level-0 running product into ``locate`` and
    keeps the level-0 map (A, B) as runs depart; here ``bounds`` rebuilds A
    and B at each level it is asked for, over every key since the last
    fresh start, then extends one running product per level, level 0
    included, calling ``tail_ratio`` for every key it reads. Both must draw
    the same cells with the same bits. The closure only walks forward, so
    its own level-0 records reach ``locate`` as a stream too: that keeps the
    keys in order, and a search over the key index never asks for an earlier
    key than one already read. A queue of at most ``_SHORT_QUEUE`` keys
    starts afresh after every departure. ``seen``, a Counter, counts the
    fresh starts ("fresh"), those after a departure whose p rounds to 0 at
    level 0 ("p below level 0"), and the refinements of a carried u
    ("carried refinement").
    """

    def ratio(i: int, level: int):
        k = keys[i]
        return tail_ratio(k if k > 0 else 1 - k, level)

    def walk(level: int) -> tuple[int, int, int, int]:
        """A's bounds and B's at ``level``: each key since the last fresh start narrows [A, A + B)."""
        p = ratio(start, level)[0]
        one = 1 << p
        a_lo = a_hi = 0
        b_lo = b_hi = one
        for i in range(fresh, start):
            _, r_lo, r_hi, _ = ratio(i, level)
            stay = b_lo * (one - r_hi) >> p, -(-b_hi * (one - r_lo) >> p)
            if i in departed:  # u went above the stay part, the rest of [A, A + B)
                a_lo, a_hi = a_lo + stay[0], a_hi + stay[1]
                b_lo, b_hi = stay[0] * r_lo // (one - r_lo), -(-stay[1] * r_hi // (one - r_hi))
            else:
                b_lo, b_hi = stay
        return a_lo, a_hi, b_lo, b_hi

    levels: list[tuple[int, tuple[int, int, int, int]]] = []  # per level: last key read, its record

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        if level == len(levels):
            a_lo, a_hi, b_lo, b_hi = walk(level)
            levels.append((start - 1, (None, b_lo, b_hi, None)))
            stream.offsets.append((a_lo, a_hi))
            if seen is not None and level and departed:
                seen["carried refinement"] += 1
        i, rec = levels[level]
        while i < j:
            i += 1
            p, r_lo, r_hi, _ = ratio(i, level)
            one = 1 << p
            rec = level_record(p, rec[1] * (one - r_hi) >> p, -(-rec[2] * (one - r_lo) >> p))
        levels[level] = i, rec
        return rec

    stream = Stream(tape)
    fresh, departed = 0, set()
    start, end = 0, len(keys)
    while start < end:
        levels.clear()
        stream.offsets = []
        start += locate(stream, bounds, range(start, end), (bounds(j, 0) for j in range(start, end)))
        if start < end:
            values[queued[start]] += grid if keys[start] > 0 else -grid
            departed.add(start)
            start += 1
            if start == end:
                break
            p, r_lo = ratio(start - 1, 0)[:2]
            if end <= _SHORT_QUEUE or walk(0)[2] <= 1 << p >> _CARRY_BITS:
                fresh, departed = start, set()
                stream.u = stream.n = 0
                if seen is not None:
                    seen["fresh"] += 1
                    seen["p below level 0"] += not r_lo


# ---------------------------------------------------------------------------
# Statistics and enumerations used only by the tests
# ---------------------------------------------------------------------------


def two_sample_chi_square(hist_a: Mapping, hist_b: Mapping, min_expected: float = 5.0) -> float:
    """Homogeneity p-value for two histograms over a shared discrete support."""
    keys = sorted(set(hist_a) | set(hist_b))
    a = np.array([hist_a.get(k, 0) for k in keys], dtype=float)
    b = np.array([hist_b.get(k, 0) for k in keys], dtype=float)
    total = a.sum() + b.sum()
    if total == 0:
        raise ParameterDomainError("empty histograms")
    expected_col = (a + b) * (a.sum() / total)
    small = expected_col < min_expected
    if small.any():
        a = np.concatenate([a[~small], [a[small].sum()]])
        b = np.concatenate([b[~small], [b[small].sum()]])
    table = np.vstack([a, b])
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    if table.shape[1] < 2:
        return 1.0
    _, p, _, _ = stats.chi2_contingency(table)
    return float(p)


def crossing_shifts(sum_i: int, unit: int, s: int) -> list[int]:
    """Shift indices v for which the silent test fails at this coordinate.

    Exhaustive enumeration over v in {1..s}; the rounding-monotonicity
    argument promises at most two such v.
    """
    return [v for v in range(1, s + 1) if not is_silent(sum_i, unit * v, unit, unit * s)]
