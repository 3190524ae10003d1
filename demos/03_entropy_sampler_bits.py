"""Demonstration: ``locate`` on finite laws at the entropy limit.

One :func:`~frugaldp.core_samplers.locate` draws from a finite law: it
reads one fair bit at a time and stops as soon as the binary expansion
provably lands inside one outcome's cumulative interval. For dyadic
probabilities it is bit-for-bit Huffman-optimal; in general its expected
cost is the entropy plus a small constant, and the cumulatives may be given
as refinable enclosures. The releases draw their grid cells the same way.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate

from frugaldp import BitTape
from frugaldp.core_samplers import level_record, locate
from frugaldp.precise_math import rational_enclose

N = 50_000


def upper_tails(probs):
    """The bounds ``locate`` reads: 1 - P_i at level j, P_i the i-th cumulative, at precision 64 * 2**j."""
    cums = list(accumulate(probs))

    @cache
    def bounds(i, level):
        p = 64 << level
        lo, hi = rational_enclose(cums[i - 1], p)
        return level_record(p, (1 << p) - hi, (1 << p) - lo)

    return bounds


cases = [
    ("fair coin", [Fraction(1, 2)] * 2),
    ("uniform over 8", [Fraction(1, 8)] * 8),
    ("(1/2, 1/4, 1/8, 1/8)", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]),
]

d, p = 16, Fraction(1, 3)
bin_probs = [Fraction(math.comb(d, j)) * p**j * (1 - p) ** (d - j) for j in range(d + 1)]
cases.append((f"Binomial({d}, 1/3)", bin_probs))

print(f"{'distribution':24s} {'entropy H':>10s} {'mean bits':>10s} {'overhead':>9s}")
for idx, (name, probs) in enumerate(cases):
    tape = BitTape(seed=300 + idx)
    bounds = upper_tails(probs)
    hist = Counter()
    with tape.category("point_mass"):
        for _ in range(N):
            hist[1 + locate(tape, bounds, range(1, len(probs)))] += 1
    entropy = -sum(float(q) * math.log2(float(q)) for q in probs)
    mean_bits = tape.bits_consumed / N
    print(f"{name:24s} {entropy:10.3f} {mean_bits:10.3f} {mean_bits - entropy:+9.3f}")

print()
print("The fair coin costs exactly one bit; dyadic distributions hit their")
print("entropy; other cumulatives cost only a small constant extra.")
