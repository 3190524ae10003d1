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
from frugaldp.core_samplers import _CARRY_BITS, _LEVEL_START, Stream, level_record, locate
from frugaldp.errors import EnclosureContractError, MathDomainError, ParameterDomainError
from frugaldp.precise_math import BoundedCache, RationalBounds, _exp_neg_guarded, exp_neg, exp_pos
from frugaldp.precise_math import rational_enclose
from frugaldp.pure_mech import PureParams
from frugaldp.release import CountVector, MechanismResult, RandomnessReport, check_release


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


def uniform_range(tape: BitTape, s: int) -> int:
    """Uniform draw from {1, ..., s} by rejection on ceil(log2 s)-bit blocks.

    Each attempt draws a fresh ceil(log2 s)-bit block and rejects values
    >= s, so the expected cost is at most 2*ceil(log2 s) bits. ``s == 1``
    consumes no bits. At a power-of-two s it reads the shift the package
    draws from the same tape: 1 + the first log2 s bits.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if s == 1:
        return 1
    k = (s - 1).bit_length()
    while True:
        v = tape.next_bits(k)
        if v < s:
            return v + 1


def draw_shift(tape: BitTape, unit: int, s: int) -> int:
    """The reference chains' shared shift, uniform on {unit, 2 unit, ..., s unit}, by rejection."""
    old = tape.charge("shift")
    try:
        return unit * uniform_range(tape, s)
    finally:
        tape.charge(old)


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
    ``1 + locate(Stream(tape), law.bounds, range(1, law.k))``. Records are cached;
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
    caches its level records, level j at precision _LEVEL_START * 2**j. Threads may
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
    return locate(Stream(tape), prob.bounds, (None,))


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
        u = uniform_range(tape, a) - 1
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
    start = tape.bits_consumed, tape.draw_log
    attempts: dict[int, int] = {}
    if variant == 3 and omega is None:
        omega = draw_shift(tape, params.r, params.s)
    values = []
    old = tape.charge("gaussian")
    for i, s_i in enumerate(counts.sums):
        if variant == 1:
            eta = discrete_gaussian(tape, gauss_param(params.sigma_sq))
            attempts[i] = 1
        else:
            eta, attempts[i] = _truncated_gaussian(tape, params)
        if variant == 3:
            values.append(floor_multiple(s_i + omega + eta, params.grid))
        else:
            values.append(s_i + eta)
    tape.charge(old)
    values = tuple(values)
    if variant == 3:
        _assert_envelope(values, counts, params)
    return MechanismResult(values, _report(tape, start, counts.d, attempts))


def _report(tape: BitTape, start: tuple, d: int, attempts: dict[int, int]) -> RandomnessReport:
    """The bits ``tape`` drew since ``start``, its (bits_consumed, draw_log), by category; all d coordinates paid."""
    bits, log = start
    return RandomnessReport(tape.bits_consumed - bits, dict(tape.draw_log - log), tuple(range(d)), attempts)


def pure_edge_mass(params: PureParams, j: int, k: int, w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w (q^j + q^k) / (1 + q), q = exp(-1/t), for j, k >= 1, with hi - lo <= 2.

    That is (exp(-(j - 1)/t) + exp(-(k - 1)/t)) / (exp(1/t) + 1), built from
    ``precise_math``'s exp(-x) and exp(x) directly, not from the powers of q
    that ``LaplaceCells`` encloses it with, so the two check each other.
    """
    inv_t = 1 / params.scale
    # Each numerator term rounded outward at 2**-(w + 7), the denominator at 2**-(w + 8).
    num_lo = num_hi = 0
    for e in (j, k):
        a_lo, a_hi = _exp_neg_guarded((e - 1) * inv_t, w + 6)  # at 2**-(w + 10)
        num_lo, num_hi = num_lo + (a_lo >> 3), num_hi - (-a_hi >> 3)
    e_lo, e_hi = exp_pos(inv_t, w + 8)
    one = 1 << (w + 8)
    return (num_lo << (w + 1)) // (e_hi + one), -(-(num_hi << (w + 1)) // (e_lo + one))


def pure_tail_mass(params: PureParams, w: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of 2**w p, p = 2 q^m / (1 + q), with hi - lo <= 2 (:func:`pure_edge_mass`)."""
    return pure_edge_mass(params, params.m, params.m, w)


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
    start = tape.bits_consumed, tape.draw_log
    attempts: dict[int, int] = {}
    if variant != 1 and omega is None:
        omega = draw_shift(tape, params.m, params.s)
    values = []
    if variant in (1, 2):
        etas = []
        old = tape.charge("laplace")
        for i in range(counts.d):
            etas.append(discrete_laplace(tape, params.scale))
            attempts[i] = 1
        tape.charge(old)
        for s_i, eta in zip(counts.sums, etas):
            if variant == 1:
                values.append(s_i + eta)
            else:
                values.append(floor_multiple(s_i + omega + eta, params.grid))
    else:
        old = tape.charge("subset")
        for i, s_i in enumerate(counts.sums):
            in_tail = bernoulli_from_prob(tape, membership(params))
            tape.charge("tail" if in_tail else "laplace")
            if in_tail:
                eta = laplace_tail_sample(tape, params.scale, params.m)
                attempts[i] = 1
            else:
                eta, attempts[i] = _truncated_attempts(tape, lambda t: discrete_laplace(t, params.scale), params.m)
            tape.charge("subset")
            values.append(floor_multiple(s_i + omega + eta, params.grid))
        tape.charge(old)
    return MechanismResult(tuple(values), _report(tape, start, counts.d, attempts))


def draw_runs(tape: BitTape, tail_ratio, grid: int, queued: list, keys: list, values: list, seen=None) -> tuple:
    """:func:`frugaldp.release.draw_runs` on a fresh stream, with every level read through one closure.

    The package carries A and B in ``locate``, from draw to draw, and
    replays its draws to rebuild them at finer levels; here each run sets A
    and B afresh at every level it reads, by a walk over every key since the
    last fresh start, calling ``tail_ratio`` for every key it reads. A run's
    thresholds are T_j = prod (1 - p_i) over its keys so far, chained from
    the run's B at level 0 and from 1 at finer levels, which ``locate``
    scales by B. A departure at the run's c-th key sets A += x and
    B = (max(y_lo - x_hi, 0), y_hi - x_lo), x = B T_(c+1) and y = B T_c; a
    queue whose keys all stay sets B to its last record. Both must draw the
    same cells with the same bits, and leave the same A and B at level 0,
    which this returns. The closure only walks forward, so its level-0
    records reach ``locate`` as a stream: that keeps the keys in order, and
    a search over the key index never asks for an earlier key than one
    already read. ``seen``, a Counter, counts the fresh starts ("fresh"),
    those after a departure whose p rounds to 0 at level 0 ("p below level
    0"), and the refinements of a carried u ("carried refinement").
    """

    def ratio(i: int, level: int):
        k = keys[i]
        return tail_ratio(k if k > 0 else 1 - k, level)

    def walk(level: int, last: int) -> tuple[int, int, int, int]:
        """A's bounds and B's at ``level`` after the keys from the last fresh start to ``last``."""
        p = tail_ratio(1, level)[0]
        one = 1 << p

        def scaled(t: tuple[int, int]) -> tuple[int, int]:  # B T: chained from B at level 0, as Stream.scaled above
            return t if not level else (b_lo * t[0] >> p, -(-b_hi * t[1] >> p))

        a_lo = a_hi = 0
        b_lo = b_hi = one
        t = (one, one)  # the run's product so far: B T at level 0, T above it (B = 1 here)
        for i in range(fresh, last):
            _, r_lo, r_hi, _ = ratio(i, level)
            stay = t[0] * (one - r_hi) >> p, -(-t[1] * (one - r_lo) >> p)
            if i in departed:  # u went into [A + B T_(c+1), A + B T_c), and the next run starts from there
                (x_lo, x_hi), (y_lo, y_hi) = scaled(stay), scaled(t)
                a_lo, a_hi, b_lo, b_hi = a_lo + x_lo, a_hi + x_hi, max(y_lo - x_hi, 0), y_hi - x_lo
                t = (b_lo, b_hi) if not level else (one, one)
            else:
                t = stay
        if last == end and last - 1 not in departed:  # the queue's last run stayed home
            b_lo, b_hi = scaled(t)
        return a_lo, a_hi, b_lo, b_hi

    levels: list[tuple[int, tuple[int, int, int, int]]] = []  # per level: last key read, its record

    def open_level(level: int) -> None:
        a_lo, a_hi, b_lo, b_hi = walk(level, start)
        one = 1 << tail_ratio(1, level)[0]
        levels.append((start - 1, (None, *((b_lo, b_hi) if not level else (one, one)), None)))
        if level:
            stream.levels.append((a_lo, a_hi, b_lo, b_hi))
            if seen is not None and departed:
                seen["carried refinement"] += 1
        else:
            stream.a_lo, stream.a_hi, stream.b_lo, stream.b_hi = a_lo, a_hi, b_lo, b_hi

    def bounds(j: int, level: int) -> tuple[int, int, int, int]:
        if level == len(levels):
            open_level(level)
        i, rec = levels[level]
        while i < j:
            i += 1
            p, r_lo, r_hi, _ = ratio(i, level)
            one = 1 << p
            rec = level_record(p, rec[1] * (one - r_hi) >> p, -(-rec[2] * (one - r_lo) >> p))
        levels[level] = i, rec
        return rec

    def fresh_start() -> bool:
        """Whether the draws so far leave B at most 2**-_CARRY_BITS at level 0."""
        p = tail_ratio(1, 0)[0]
        return walk(0, start)[2] <= 1 << p >> _CARRY_BITS

    stream = Stream(tape)
    fresh, departed = 0, set()
    start, end = 0, len(keys)
    while start < end:
        levels.clear()
        stream.levels = []
        open_level(0)
        start += locate(stream, bounds, range(start, end), (bounds(j, 0) for j in range(start, end)))
        if start == end:
            break
        values[queued[start]] += grid if keys[start] > 0 else -grid
        departed.add(start)
        start += 1
        if start < end and fresh_start():
            fresh, departed = start, set()
            stream.restart()
            if seen is not None:
                seen["fresh"] += 1
                seen["p below level 0"] += not ratio(start - 1, 0)[1]
    one = 1 << tail_ratio(1, 0)[0]
    return (0, 0, one, one) if fresh_start() else walk(0, end)


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
