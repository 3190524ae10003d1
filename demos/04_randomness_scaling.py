"""Demonstration: random-bit consumption versus the coarseness knob s.

At dimension d, roughly 2d/s coordinates land near a grid edge and need a
cell draw; the rest are free. Those cells are drawn in runs of coordinates
that stay in their centre's cell, on one uniform carried from run to run,
for about their entropy plus two bits per 64 bits or so of it. Total
expected bits therefore fall like 1/s (plus the ~log2(s) cost of the shared
shift), reaching O(log d) at s = d.

Unseeded releases take their bits from a per-thread pool that reads
``os.urandom`` 512 bits at a time, so the bits read from the OS track the
bits consumed, not a 64-bit word per release.
"""

from fractions import Fraction

from frugaldp import BitTape, CountVector, derive_approx_params, mech_approx_efficient, randomness_audit
from frugaldp.bit_tape import os_bits_read

D = 256
RUNS = 150
N_ROWS = 1_000_003
counts = CountVector(d=D, n=N_ROWS, sums=tuple((40_009 * i) % N_ROWS for i in range(D)))

print(f"d = {D}, eps = 1, delta = 2^-20, {RUNS} seeded runs per point")
print(f"{'s':>5s} {'noise bits':>11s} {'shift bits':>11s} {'total bits':>11s} {'boundary':>9s}")
for idx, s in enumerate((4, 16, 64, 256)):
    params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), D, s)
    tape = BitTape(seed=4000 + idx)
    results = [mech_approx_efficient(counts, params, tape) for _ in range(RUNS)]
    audit = randomness_audit(results)
    by_cat = audit["mean_bits_by_category"]
    print(
        f"{s:5d} {by_cat.get('gaussian', 0.0):11.1f} {by_cat.get('shift', 0.0):11.2f} "
        f"{audit['mean_bits_total']:11.1f} {audit['mean_boundary_count']:9.2f}"
    )

print()
print("Noise bits track c/s while the shift cost grows only logarithmically:")
print(f"at s = d = {D} the whole release pays for noise on ~2 of {D}")
print("coordinates, versus thousands of bits when every coordinate draws.")

print()
print(f"{RUNS} unseeded runs per point; bits per release:")
print(f"{'s':>5s} {'consumed':>9s} {'read from OS':>13s}")
for s in (4, D):
    params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), D, s)
    read, consumed = os_bits_read(), 0
    for _ in range(RUNS):
        tape = BitTape()
        mech_approx_efficient(counts, params, tape)
        consumed += tape.bits_consumed
    print(f"{s:5d} {consumed / RUNS:9.1f} {(os_bits_read() - read) / RUNS:13.1f}")
