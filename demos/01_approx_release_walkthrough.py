"""Walkthrough: approximate-DP release of eight counting queries.

The release adds truncated integer Gaussian noise, but only where it has
to: one shared random shift realigns every count against a coarse grid,
and a coordinate whose rounded value is already pinned down for every
possible noise value is released with zero random bits. A coordinate whose
noise window straddles a cell edge draws the cell itself. It usually stays
in the cell of its centre, so these cells are drawn in runs: one draw says
how many stay home before one leaves. The runs share one uniform, carried
past each departure, so the cells cost about their entropy plus two bits
per 64 bits or so of it.
"""

from fractions import Fraction

from frugaldp import BitTape, CountVector, derive_approx_params, mech_approx_efficient

# A synthetic dataset summary: 8 predicates over 100k rows. The rounding
# grid will be about a thousand counts wide, so counts at this scale stay
# informative after the release.
counts = CountVector(
    d=8, n=100_000, sums=(1_204, 9_877, 23_450, 31_002, 44_718, 60_333, 78_126, 99_041)
)

# Privacy goal: (eps, delta) = (1, 2^-20). The coarseness knob s trades
# accuracy for randomness; try changing it.
params = derive_approx_params(epsilon=Fraction(1), delta=Fraction(1, 1 << 20), d=8, s=8)

print("derived parameters")
print(f"  noise variance enclosure: [{float(params.sigma_sq_interval.lo):.4f}, "
      f"{float(params.sigma_sq_interval.hi):.4f}] (sampled at the upper endpoint)")
print(f"  window radius r = {params.r}, grid = r*s = {params.grid}")
print(f"  worst-case error bound r(2s+1) = {params.accuracy_bound}")
print()

tape = BitTape(seed=2024)
result = mech_approx_efficient(counts, params, tape)

print("release (seeded tape)")
print(f"  true sums : {counts.sums}")
print(f"  released  : {result.values}")
print(f"  errors    : {tuple(v - s for v, s in zip(result.values, counts.sums))}")
print()
print("randomness accounting")
print(f"  total bits          : {result.report.bits_total}")
print(f"  bits by category    : {dict(result.report.bits_by_category)}")
print(f"  boundary coordinates: {result.report.boundary_coordinates} "
      f"({len(result.report.boundary_coordinates)} of {counts.d} drew their cell)")
print()
print("Every other coordinate was released silently: after the shared shift,")
print("its rounded value is the same for every noise magnitude below r.")
