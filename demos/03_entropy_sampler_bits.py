"""Demonstration: sampling a finite distribution near its entropy.

The point-mass sampler reads one fair bit at a time and stops as soon as
the binary expansion provably lands inside one outcome's cumulative
interval. For dyadic probabilities it is bit-for-bit Huffman-optimal; in
general its expected cost is the entropy plus a small constant, and the
cumulatives may be given as refinable enclosures.
"""

import math
from collections import Counter
from fractions import Fraction

from frugaldp import BitTape, sample_point_mass, spec_from_fractions

N = 50_000

cases = [
    ("fair coin", spec_from_fractions([Fraction(1, 2)] * 2), [Fraction(1, 2)] * 2),
    ("uniform over 8", spec_from_fractions([Fraction(1, 8)] * 8), [Fraction(1, 8)] * 8),
    (
        "(1/2, 1/4, 1/8, 1/8)",
        spec_from_fractions([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]),
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
    ),
]

d, p = 16, Fraction(1, 3)
bin_probs = [Fraction(math.comb(d, j)) * p**j * (1 - p) ** (d - j) for j in range(d + 1)]
cases.append((f"Binomial({d}, 1/3)", spec_from_fractions(bin_probs), bin_probs))

print(f"{'distribution':24s} {'entropy H':>10s} {'mean bits':>10s} {'overhead':>9s}")
for idx, (name, spec, probs) in enumerate(cases):
    tape = BitTape(seed=300 + idx)
    hist = Counter()
    with tape.category("point_mass"):
        for _ in range(N):
            hist[sample_point_mass(tape, spec)] += 1
    entropy = -sum(float(q) * math.log2(float(q)) for q in probs)
    mean_bits = tape.bits_consumed / N
    print(f"{name:24s} {entropy:10.3f} {mean_bits:10.3f} {mean_bits - entropy:+9.3f}")

print()
print("The fair coin costs exactly one bit; dyadic distributions hit their")
print("entropy; other cumulatives cost only a small constant extra.")
