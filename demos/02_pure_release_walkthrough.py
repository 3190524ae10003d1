"""Walkthrough: pure-DP release with the tail/body noise decomposition.

Integer Laplace noise splits into a rare tail event (|noise| >= m) and a
bounded body. The release first decides, entropy-optimally, how many
coordinates take tail noise and which ones; everything else either rounds
silently under the shared shift or draws its grid cell from the truncated
body law.
"""

from fractions import Fraction

from frugaldp import BitTape, CountVector, derive_pure_params, mech_pure_efficient

counts = CountVector(
    d=16,
    n=20_000,
    sums=(312, 845, 1_422, 2_067, 3_511, 4_209, 5_163, 6_888,
          8_004, 9_725, 11_341, 12_906, 14_210, 15_777, 17_390, 19_402),
)

params = derive_pure_params(epsilon=Fraction(1), d=16, s=4)

print("derived parameters")
print(f"  Laplace scale d/eps = {params.scale.t}")
print(f"  body threshold m = {params.m}, grid = m*s = {params.grid}")
print(f"  tail probability p in [{float(params.p.lo):.3e}, {float(params.p.hi):.3e}]")
print()

tape = BitTape(seed=77)
result, trace = mech_pure_efficient(counts, params, tape)

print("release (seeded tape)")
print(f"  true sums: {counts.sums}")
print(f"  released : {result.values}")
print(f"  shift    : {trace.shift}")
print(f"  branches : {trace.branches}")
print(f"  tail set : {sorted(trace.tail_set)} (size {trace.tail_size})")
print()
print("randomness accounting")
print(f"  total bits       : {result.report.bits_total}")
print(f"  bits by category : {dict(result.report.bits_by_category)}")
silent = sum(1 for b in trace.branches if b == "silent")
print(f"  silent coordinates: {silent} of {counts.d} cost zero noise bits")
