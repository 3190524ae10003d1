"""Entropy-optimal sampling from finite distributions with enclosed probabilities.

The sampler streams a uniform dyadic point u one bit at a time and returns
outcome i as soon as the box [u, u + 2**-depth] provably sits inside the
cumulative interval (P_{i-1}, P_i), where the cumulatives are only known
through refinable enclosures. Expected bit cost is H(X) + O(1); enclosure
refinement is deterministic and costs no randomness. A draw that returns i
reads no cumulative above P_i.

The pure mechanism uses this to draw its tail-set size from Bin(d, p) with
a transcendental p. The enclosed binomial sums its cumulatives only up to
the index a draw reads, so a cold draw encloses at most (drawn size + 1)
point probabilities per precision, not d + 1; at pure-mode parameters
(d*p well below 1) it takes under a millisecond at d = 65 536.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb
from typing import Callable

from .bit_tape import BitTape
from .errors import EnclosureContractError, ParameterDomainError
from .precise_math import BoundedCache, IntervalValue, binom_prob_enclose, scaled_bounds

_MAX_DEPTH = 6000


class PointMassSpec:
    """Finite distribution described by enclosures of its cumulatives.

    ``prob_oracle(i, precision)`` must return an IntervalValue enclosing the
    cumulative P_i (P_0 = 0 <= P_1 <= ... <= P_k = 1) with width at most
    2**-precision. Results are cached per precision; refinements of the same
    cumulative must overlap earlier enclosures or the spec is rejected.
    Threads may share a spec: a row is created once, and the overlap check
    reads a snapshot of the rows while other threads may add one.
    """

    __slots__ = ("k", "prob_oracle", "_rows")

    def __init__(self, k: int, prob_oracle: Callable[[int, int], IntervalValue]):
        if k < 1:
            raise ParameterDomainError("support size must be at least 1")
        self.k = k
        self.prob_oracle = prob_oracle
        self._rows: dict[int, list[tuple[int, int] | None]] = {}

    def bounds(self, i: int, precision: int) -> tuple[int, int]:
        """Scaled integer bounds of P_i at the given precision."""
        row = self._rows.get(precision)
        if row is None:
            row = self._rows.setdefault(precision, [None] * (self.k + 1))
        rec = row[i]
        if rec is None:
            iv = self.prob_oracle(i, precision)
            lo, hi = scaled_bounds(iv, precision)
            rec = (max(lo, 0), min(hi, 1 << precision))
            for other_p, other_row in tuple(self._rows.items()):
                prev = other_row[i]
                if prev is None or other_p == precision:
                    continue
                # Enclosures of the same cumulative must intersect.
                if rec[0] << other_p > prev[1] << precision or rec[1] << other_p < prev[0] << precision:
                    raise EnclosureContractError(
                        f"cumulative {i} enclosure at precision {precision} "
                        f"disjoint from precision {other_p}"
                    )
            row[i] = rec
        return rec


def spec_from_fractions(probs: "list[Fraction]") -> PointMassSpec:
    """Spec for an exactly known rational distribution (oracle for tests/demos)."""
    probs = [Fraction(p) for p in probs]
    if any(p <= 0 for p in probs):
        raise ParameterDomainError("point masses must be strictly positive")
    if sum(probs) != 1:
        raise ParameterDomainError("point masses must sum to one")
    cums = [Fraction(0)]
    for p in probs:
        cums.append(cums[-1] + p)

    def oracle(i: int, precision: int) -> IntervalValue:
        return IntervalValue.from_fraction(cums[i], precision)

    return PointMassSpec(len(probs), oracle)


def _precision_for(depth: int) -> int:
    p = 32
    while p < depth + 8:
        p *= 2
    return p


def sample_point_mass(tape: BitTape, spec: PointMassSpec) -> int:
    """Draw index i in {1..k} with probability exactly P_i - P_{i-1}.

    Scans up from index 1 only: the lowest index whose cumulative may still
    reach the streamed box moves monotonically up as bits arrive, and the
    draw returns it once the box sits between P_{i-1} and P_i. No cumulative
    above P_i is read, so the scan cost is bounded by the index drawn, not
    by k, on top of the emitted bits.
    """
    k = spec.k
    u = 0
    depth = 0
    prec = _precision_for(0)
    lo_idx = 1
    while True:
        shift = prec - depth
        box_lo = u << shift
        box_hi = (u + 1) << shift
        while lo_idx < k and spec.bounds(lo_idx, prec)[1] <= box_lo:
            lo_idx += 1
        if spec.bounds(lo_idx - 1, prec)[1] <= box_lo and box_hi <= spec.bounds(lo_idx, prec)[0]:
            return lo_idx
        u = (u << 1) | tape.next_bit()
        depth += 1
        if prec < depth + 8:
            prec = _precision_for(depth)
        if depth > _MAX_DEPTH:
            raise EnclosureContractError("point-mass sampling failed to resolve")


ProbInput = "Fraction | IntervalValue | Callable[[int], IntervalValue]"

_RATIONAL_SPEC_CACHE: BoundedCache = BoundedCache(64)


def binomial_spec(d: int, p: ProbInput) -> PointMassSpec:
    """PointMassSpec over {0..d} (as indices 1..d+1) for Bin(d, p).

    ``p`` may be an exact Fraction, a refinable enclosure callable
    ``precision -> IntervalValue``, or a fixed IntervalValue whose width is
    already far below the sampler's termination scale.
    """
    if d < 1:
        raise ParameterDomainError("binomial requires d >= 1")
    if isinstance(p, Fraction):
        if not 0 < p < 1:
            raise ParameterDomainError("binomial probability must be in (0, 1)")
        key = (d, p)
        spec = _RATIONAL_SPEC_CACHE.get(key)
        if spec is None:
            spec = PointMassSpec(d + 1, _rational_binomial_oracle(d, p))
            _RATIONAL_SPEC_CACHE[key] = spec
        return spec
    if isinstance(p, IntervalValue):
        fixed = p
        p_fn = lambda precision: fixed  # noqa: E731 - tiny adapter
    else:
        p_fn = p
    return PointMassSpec(d + 1, _enclosed_binomial_oracle(d, p_fn))


def _rational_binomial_oracle(d: int, p: Fraction) -> Callable[[int, int], IntervalValue]:
    q = 1 - p
    cums = [Fraction(0)]
    for j in range(d + 1):
        cums.append(cums[-1] + comb(d, j) * p**j * q ** (d - j))
    assert cums[-1] == 1

    def oracle(i: int, precision: int) -> IntervalValue:
        return IntervalValue.from_fraction(cums[i], precision)

    return oracle


def _enclosed_binomial_oracle(
    d: int, p_fn: Callable[[int], IntervalValue]
) -> Callable[[int, int], IntervalValue]:
    # Each precision keeps (w, p enclosed at w, cumulatives 0..n). A draw
    # reads no cumulative above the index it returns, so the prefix is
    # summed up to the index asked for, under a lock so that two threads
    # never add the same term; reads take no lock.
    rows: dict[int, tuple[int, IntervalValue, list[IntervalValue]]] = {}
    one = IntervalValue.exact(1)
    lock = threading.Lock()

    def oracle(i: int, precision: int) -> IntervalValue:
        if i > d:
            return one
        row = rows.get(precision)
        if row is None or i >= len(row[2]):
            with lock:
                row = rows.get(precision)
                if row is None:
                    w = precision + 2 * (d + 1).bit_length() + 8
                    row = rows[precision] = (w, p_fn(w), [IntervalValue.exact(0)])
                w, p_iv, prefix = row
                p_hi = p_iv.hi.as_fraction()
                while len(prefix) <= i:
                    j = len(prefix) - 1
                    run = prefix[j] + binom_prob_enclose(d, j, p_iv, w)
                    # Union bound: P[X > j] <= C(d, j+1) p^(j+1), so a sound
                    # enclosure of P[X <= j] cannot end below 1 minus it.
                    upper_tail = comb(d, j + 1) * p_hi ** (j + 1)
                    if run.lo.as_fraction() > 1 or run.hi.as_fraction() + upper_tail < 1:
                        raise EnclosureContractError(f"binomial terms 0..{j} cannot sum toward 1")
                    prefix.append(run)
        return row[2][i]

    return oracle
