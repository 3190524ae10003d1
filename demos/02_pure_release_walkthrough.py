"""Walkthrough: pure-DP release, drawing only whether each coordinate leaves its home cell.

Each shifted count sits in a grid cell, its home cell. Integer Laplace noise
moves it out with a small chance: large when the count lies near an edge of
that cell (a boundary coordinate), tiny when every edge is at least m away
(a silent coordinate). The release draws, on one carried uniform, which
coordinates leave and, for those that do, which cell they land in; one
comparison certifies that all the silent ones stay, unless it fails.
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
print(f"  Laplace scale d/eps = {params.scale}")
print(f"  threshold m = {params.m}, grid = m*s = {params.grid}")
print(f"  chance p that |noise| >= m in [{float(params.p.lo):.3e}, {float(params.p.hi):.3e}]")
print()

tape = BitTape(seed=77)
result, trace = mech_pure_efficient(counts, params, tape)
boundary = set(result.report.boundary_coordinates)
branches = tuple("boundary" if i in boundary else "silent" for i in range(counts.d))

print("release (seeded tape)")
print(f"  true sums: {counts.sums}")
print(f"  released : {result.values}")
print(f"  shift    : {trace.shift}")
print(f"  branches : {branches}")
print(f"  departed : {list(trace.departed)} ({trace.tail_size} to a cell no |noise| < m reaches)")
print()
print("randomness accounting")
print(f"  total bits       : {result.report.bits_total}")
print(f"  bits by category : {dict(result.report.bits_by_category)}")
silent = branches.count("silent")
print(f"  silent coordinates: {silent} of {counts.d}, certified to stay by one comparison")
