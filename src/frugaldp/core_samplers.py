"""Exact samplers for the primitive distributions the mechanisms draw from.

Every sampler here consumes fair bits from a :class:`~frugaldp.bit_tape.BitTape`
and nothing else. Events with irrational probabilities (anything involving
exp) are decided by lazily comparing a bit-by-bit uniform dyadic against a
refinable interval enclosure of the probability: refine until the uniform
point falls strictly outside the interval. This terminates with probability
one and makes every sampler exact; no floating point is involved anywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from typing import Callable

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError, SampleBudgetError
from .precise_math import BoundedCache, IntervalValue, _pow_scaled, exp_neg, floor_sqrt, scaled_bounds

#: Rejection loops raise SampleBudgetError after this many attempts. At valid
#: mechanism parameters even 40 attempts fail with probability < 2**-40.
ATTEMPT_CAP = 1 << 20

_MAX_COMPARE_DEPTH = 6000
_LEVEL_START = 64
_LEVEL_MAX = 1 << 15

# Serializes the building of RefinableProb levels (reads take no lock), so
# that threads sharing an oracle build the levels one thread alone would.
_LEVEL_LOCK = threading.RLock()


class RefinableProb:
    """A probability in [0, 1] with certified scaled-integer bounds.

    Wraps an enclosure function ``fn(precision_bits) -> IntervalValue`` and
    caches levels of (precision, lo, hi, limit) integer bounds, doubling the
    precision whenever a comparison needs a tighter enclosure. ``limit`` is
    the largest comparison depth the level can certify: a level at precision
    P with width w serves any depth up to about P - log2(w * 2**P).
    Threads may share an instance; see ``_LEVEL_LOCK``.
    """

    __slots__ = ("_fn", "_levels")

    def __init__(self, fn: Callable[[int], IntervalValue]):
        self._fn = fn
        self._levels: list[tuple[int, int, int, int]] = []

    def level(self, min_bits: int) -> tuple[int, int, int, int]:
        """Bounds (P, lo, hi, limit) usable while min_bits + 2 <= limit."""
        need = min_bits + 2
        for rec in self._levels:
            if need <= rec[3]:
                return rec
        with _LEVEL_LOCK:
            for rec in self._levels:  # another thread may have built it meanwhile
                if need <= rec[3]:
                    return rec
            p = max(_LEVEL_START, min_bits + 8)
            if self._levels:
                p = max(p, self._levels[-1][0] * 2)
            while True:
                iv = self._fn(p)
                lo, hi = scaled_bounds(iv, p)
                lo, hi = max(lo, 0), min(hi, 1 << p)
                if self._levels:
                    prev = self._levels[-1]
                    # Levels must overlap; disjoint enclosures mean a broken oracle.
                    if lo << prev[0] > prev[2] << p or hi << prev[0] < prev[1] << p:
                        raise EnclosureContractError("refined enclosure disjoint from previous level")
                rec = (p, lo, hi, p - (hi - lo).bit_length())
                self._levels.append(rec)
                if need <= rec[3]:
                    return rec
                if p > _LEVEL_MAX:
                    raise EnclosureContractError("enclosure failed to refine")
                p *= 2


def bernoulli_from_prob(tape: BitTape, prob: RefinableProb) -> int:
    """Exact Ber(q) for the probability enclosed by ``prob``.

    Streams uniform bits u_1 u_2 ... and returns as soon as the dyadic box
    [u, u + 2**-n) is certified to lie entirely below or above q. Expected
    tape cost is about two bits regardless of q; the enclosure refinement
    consumes no randomness.
    """
    p, lo, hi, limit = prob.level(0)
    next_bit = tape.next_bit
    u = 0
    nb = 0
    while True:
        shift = p - nb
        if (u + 1) << shift <= lo:
            return 1
        if (u << shift) >= hi:
            return 0
        u = (u << 1) | next_bit()
        nb += 1
        if nb + 2 > limit:
            p, lo, hi, limit = prob.level(nb)
        if nb > _MAX_COMPARE_DEPTH:
            raise EnclosureContractError("Bernoulli comparison failed to resolve")


_EXP_NEG_ONE = RefinableProb(lambda p: exp_neg(1, p))


class LaplaceScale:
    """Scale t > 0 of the integer Laplace distribution Lap_Z(t).

    Holds the per-residue acceptance oracles of :func:`geometric_fast`,
    cached since enclosure refinement is deterministic. A scale with a large
    numerator draws many distinct residues, so the cache is bounded.
    """

    __slots__ = ("t", "_residues")

    def __init__(self, t: "Fraction | int"):
        t = Fraction(t)
        if t <= 0:
            raise ParameterDomainError("Laplace scale must be positive")
        self.t = t
        self._residues: BoundedCache = BoundedCache(4096)

    def residue_oracle(self, u: int) -> RefinableProb:
        """Oracle for exp(-u/a) where a is the numerator of t."""
        oracle = self._residues.get(u)
        if oracle is None:
            x = Fraction(u, self.t.numerator)
            oracle = RefinableProb(lambda p, x=x: exp_neg(x, p))
            self._residues[u] = oracle
        return oracle


class GaussParam:
    """Variance parameter sigma^2 > 0 for the integer Gaussian sampler."""

    __slots__ = ("sigma_sq", "proposal_scale", "_accept")

    def __init__(self, sigma_sq: "Fraction | int"):
        sigma_sq = Fraction(sigma_sq)
        if sigma_sq <= 0:
            raise ParameterDomainError("sigma_sq must be positive")
        self.sigma_sq = sigma_sq
        self.proposal_scale = LaplaceScale(max(1, floor_sqrt(sigma_sq)))
        self._accept: dict[int, RefinableProb] = {}

    def accept_oracle(self, magnitude: int) -> RefinableProb:
        """Oracle for exp(-(|y| - sigma^2/t)^2 / (2 sigma^2))."""
        oracle = self._accept.get(magnitude)
        if oracle is None:
            gap = (magnitude - self.sigma_sq / self.proposal_scale.t) ** 2 / (2 * self.sigma_sq)
            oracle = RefinableProb(lambda p, x=gap: exp_neg(x, p))
            self._accept[magnitude] = oracle
        return oracle


def geometric_fast(tape: BitTape, scale: LaplaceScale) -> int:
    """Geo(1 - exp(-1/t)) on {0, 1, 2, ...}, in O(polylog t) expected bits.

    Counts failures before the first success, without the O(t) coin flips of
    the plain construction: draws the residue u uniformly mod a (a = numerator
    of t), accepts it with probability exp(-u/a), adds an independent
    unit-rate geometric block a*v, and divides by the denominator. Each piece
    is exact, so the result is exactly Geo(1 - exp(-1/t)).
    """
    a = scale.t.numerator
    b = scale.t.denominator
    while True:
        u = tape.uniform_range(a) - 1
        if u == 0 or bernoulli_from_prob(tape, scale.residue_oracle(u)) == 1:
            break
    v = 0
    while bernoulli_from_prob(tape, _EXP_NEG_ONE) == 1:
        v += 1
    return (u + a * v) // b


def discrete_laplace(tape: BitTape, scale: LaplaceScale) -> int:
    """Lap_Z(t): difference U - V of two i.i.d. Geo(1 - exp(-1/t)) draws."""
    return geometric_fast(tape, scale) - geometric_fast(tape, scale)


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


def laplace_tail_sample(tape: BitTape, scale: LaplaceScale, threshold: int) -> int:
    """Lap_Z(t) conditioned on |X| >= threshold, for threshold >= 1.

    One fair bit picks the tail (the two tails carry equal mass), then the
    magnitude is threshold plus a geometric, by memorylessness.
    """
    if threshold < 1:
        raise ParameterDomainError("tail threshold must be a positive integer")
    positive = tape.next_bit()
    magnitude = threshold + geometric_fast(tape, scale)
    return magnitude if positive else -magnitude


# ---------------------------------------------------------------------------
# Grid-cell draws for truncated noise
# ---------------------------------------------------------------------------


def _mul_down(a: int, b: int, w: int) -> int:
    return (a * b) >> w


def _mul_up(a: int, b: int, w: int) -> int:
    return -((-a * b) >> w)


class CellLaw:
    """Upper-tail masses of a symmetric integer noise law truncated to |eta| < halfwidth.

    With weights w(eta) on the support, S(k) = sum_{k <= eta < halfwidth} w(eta)
    and Z = S(1 - halfwidth). Subclasses precompute scaled-integer data per
    working precision (``_build``) and return outward bounds of S(k) and Z on
    one common scale (``_tail_sums``). Levels are built on first use and
    cached by index; each doubles the precision of the last. Two threads that
    build the same level store equal data, so no lock is needed.
    """

    __slots__ = ("halfwidth", "_guard", "_levels")

    def __init__(self, halfwidth: int, guard: int):
        if halfwidth < 1:
            raise ParameterDomainError("noise half-width must be a positive integer")
        self.halfwidth = halfwidth
        self._guard = guard
        self._levels: dict = {}

    def _build(self, w: int):
        raise NotImplementedError

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        raise NotImplementedError

    def tail_ratio(self, k: int, level: int) -> tuple[int, int, int, int]:
        """Bounds (P, lo, hi, limit) of S(k)/Z, in the format of :meth:`RefinableProb.level`."""
        p = _LEVEL_START << level
        data = self._levels.get(level)
        if data is None:
            if p > _LEVEL_MAX:
                raise EnclosureContractError("cell probability failed to refine")
            data = self._levels[level] = self._build(p + self._guard)
        s_lo, s_hi, z_lo, z_hi = self._tail_sums(data, k)
        lo = (s_lo << p) // z_hi
        hi = -(-(s_hi << p) // z_lo)
        return p, lo, hi, p - (hi - lo).bit_length()


class GaussianCells(CellLaw):
    """Weights exp(-eta^2 / (2 sigma^2)) on |eta| < r, as a table of tail sums.

    The weights follow w(j+1) = w(j) q^(2j+1) with q = exp(-1/(2 sigma^2)), so a
    level costs one ``exp_neg`` and two scaled-integer products per entry.
    The guard bits cover the error the recurrence accumulates over r steps.
    """

    __slots__ = ("_x",)

    def __init__(self, sigma_sq: "Fraction | int", r: int):
        super().__init__(r, 2 * r.bit_length() + 8)
        self._x = 1 / (2 * Fraction(sigma_sq))

    def _build(self, w: int):
        q_lo, q_hi = scaled_bounds(exp_neg(self._x, w), w)
        sq_lo, sq_hi = _mul_down(q_lo, q_lo, w), _mul_up(q_hi, q_hi, w)
        w_lo = w_hi = 1 << w
        lo, hi = [w_lo], [w_hi]
        for _ in range(1, self.halfwidth):
            w_lo, w_hi = _mul_down(w_lo, q_lo, w), _mul_up(w_hi, q_hi, w)
            q_lo, q_hi = _mul_down(q_lo, sq_lo, w), _mul_up(q_hi, sq_hi, w)
            lo.append(w_lo)
            hi.append(w_hi)
        # Tail sums C[j] = sum_{i >= j} w(i) over i < r, with C[r] = 0.
        c_lo = list(accumulate(reversed(lo), initial=0))[::-1]
        c_hi = list(accumulate(reversed(hi), initial=0))[::-1]
        return c_lo, c_hi, c_lo[0] + c_lo[1], c_hi[0] + c_hi[1]

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        c_lo, c_hi, z_lo, z_hi = data
        if k >= 0:
            return c_lo[k], c_hi[k], z_lo, z_hi
        # By symmetry, S(k) = Z - S(1 - k).
        return z_lo - c_lo[1 - k], z_hi - c_hi[1 - k], z_lo, z_hi


class LaplaceCells(CellLaw):
    """Weights q^|eta| on |eta| < m, q = exp(-1/t), through closed-form geometric sums.

    For k >= 0, S(k)/Z = (q^k - q^m) / (1 + q - 2 q^m); negative k mirrors
    through S(k) = Z - S(1 - k). Each draw computes its power of q by
    repeated squaring, so nothing of size m is ever built.
    """

    __slots__ = ("_x",)

    def __init__(self, scale: LaplaceScale, m: int):
        t = scale.t
        super().__init__(m, m.bit_length() + (t.numerator // t.denominator + 1).bit_length() + 8)
        self._x = 1 / t

    def _build(self, w: int):
        q_lo, q_hi = scaled_bounds(exp_neg(self._x, w), w)
        qm_lo, qm_hi = _pow_scaled(q_lo, q_hi, self.halfwidth, w)
        one = 1 << w
        return w, q_lo, q_hi, qm_lo, qm_hi, one + q_lo - 2 * qm_hi, one + q_hi - 2 * qm_lo

    def _tail_sums(self, data, k: int) -> tuple[int, int, int, int]:
        w, q_lo, q_hi, qm_lo, qm_hi, d_lo, d_hi = data
        if k >= 0:
            a_lo, a_hi = _pow_scaled(q_lo, q_hi, k, w)
            return a_lo - qm_hi, a_hi - qm_lo, d_lo, d_hi
        a_lo, a_hi = _pow_scaled(q_lo, q_hi, 1 - k, w)
        return d_lo - (a_hi - qm_lo), d_hi - (a_lo - qm_hi), d_lo, d_hi


def draw_cell(tape: BitTape, law: CellLaw, center: int, grid: int) -> int:
    """The grid cell of center + eta, for eta from ``law``, without drawing eta.

    Returns the largest multiple of ``grid`` at or below center + eta. The
    release reaches a grid multiple E inside the noise window exactly when
    eta >= E - center, which has probability S(E - center)/Z. One uniform
    point u, streamed bit by bit, is compared against each such ratio in
    increasing order of E, refining the enclosure on demand as
    :func:`bernoulli_from_prob` does. A cell costs about two bits however
    wide the noise; a window with no grid multiple inside costs none.
    """
    reach = law.halfwidth - 1
    value = (center - reach) // grid * grid
    next_bit = tape.next_bit
    u = nb = 0
    for edge in range(value + grid, center + reach + 1, grid):
        level = 0
        p, lo, hi, limit = law.tail_ratio(edge - center, level)
        while True:
            if nb + 2 > limit:  # too coarse for u's next bit, or for bits kept from a lower edge
                level += 1
                p, lo, hi, limit = law.tail_ratio(edge - center, level)
                continue
            shift = p - nb
            if (u + 1) << shift <= lo:
                break  # u < S/Z: the release reaches this edge
            if u << shift >= hi:
                return value
            u = (u << 1) | next_bit()
            nb += 1
        value = edge
    return value
