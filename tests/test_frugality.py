"""Frugality: a release reads little more than the entropy of what it draws.

The release's draws share one uniform u, which starts afresh only once the
draws have narrowed it past ``core_samplers._CARRY_BITS``; each fresh start
begins a new run of the interval algorithm, whose overhead is up to 2-3
bits (Han and Hoshi). So the bits a release reads past its law's entropy,
H(shift) + sum_i H(cell_i | shift) (``audit_harness.release_entropy``),
count the fresh starts. The gate sits on the approx-spread benchmark's
counts at workload seed 1, with the shift drawn. It imports nothing beyond
the standard library, pytest and the package.
"""

import random
from fractions import Fraction

from frugaldp import BitTape, CountVector, derive_approx_params, mech_approx_efficient
from frugaldp.audit_harness import release_entropy


def test_approx_spread_reads_within_16_bits_of_its_entropy():
    # d = 4096 counts spread over [0, 10**7], s = 4, eps = 1, delta = 2**-20:
    # H = 374.0 bits, about 2 000 boundary coordinates a release. With level
    # 0 at 128 bits and a 64-bit carry horizon a release reads about H + 13.7
    # bits over these 400 seeds; with 64 and 32 it read H + 25.1.
    d, n = 4096, 400
    rng = random.Random("approx-spread:1")
    counts = CountVector(d, 10**7, tuple(rng.randint(0, 10**7) for _ in range(d)))
    params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, 4)
    entropy = release_entropy(counts, params)
    mean = sum(mech_approx_efficient(counts, params, BitTape(seed=seed)).report.bits_total for seed in range(n)) / n
    assert 373 < entropy < 375
    # The bits read decide the shift and the cells, so no exact sampler reads fewer than H on average.
    assert entropy < mean <= entropy + 16, (entropy, mean)
