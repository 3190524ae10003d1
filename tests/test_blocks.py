"""The exact level-0 departure records a release reads, with its low-p keys in blocks.

``shift_and_round`` sorts the boundary keys whose bin fills blocks
(``CellLaw.bins``) behind the keys drawn exactly, and ``draw_runs`` compares
u with one coarse key per block, reading the block's exact records only
when u is not below it. A spy around ``release._products`` counts the keys
whose exact level-0 record a release reads.
"""

import random
from fractions import Fraction

from frugaldp import release as release_module
from frugaldp.approx_mech import derive_approx_params, mech_approx_efficient
from frugaldp.bit_tape import BitTape
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector


def _count_records(monkeypatch) -> list:
    """Patch ``release._products`` to count the keys whose level-0 record it yields; returns the counter."""
    products = release_module._products
    read = [0]

    def counted(cells, keys, b, end, level, lo, hi):
        for rec in products(cells, keys, b, end, level, lo, hi):
            read[0] += level == 0
            yield rec

    monkeypatch.setattr(release_module, "_products", counted)
    return read


def test_approx_spread_reads_few_records_past_the_hot_bins(monkeypatch):
    # The approx-spread parameters: d = 4 096 counts in [0, 10**7], s = 4, r =
    # 3 445 and K = 2 187. About 1 300 keys a release are below K, and a
    # release that draws them all exactly reads each one's record; with
    # keys from 1 094 on in blocks, a release reads about 0.55 of that.
    d = 4096
    params = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, 4)
    rng = random.Random(1)
    counts = CountVector(d, 10**7, tuple(rng.randint(0, 10**7) for _ in range(d)))
    quiet, draw_runs = params.cells.quiet, release_module.draw_runs
    hot = [0]

    def spy(stream, cells, grid, queued, keys, values, blocks=()):
        hot[0] += sum((k if k > 0 else 1 - k) < quiet for k in keys)
        return draw_runs(stream, cells, grid, queued, keys, values, blocks)

    monkeypatch.setattr(release_module, "draw_runs", spy)
    read = _count_records(monkeypatch)
    for seed in range(1, 21):
        mech_approx_efficient(counts, params, BitTape(seed=seed))
    assert hot[0] > 20 * 1000
    assert read[0] <= 0.6 * hot[0]


def test_pure_at_s_equal_d_reads_few_records_at_every_seed(monkeypatch):
    # d = s = 10**5, eps = 1: m = 13 254 747 and K = 1 455 610, so the silent
    # keys, nearly every coordinate, fall in the half-width's bin, from
    # 8 K on, whose p is far below 2**-64. One comparison with
    # (1 - p(K))^d for all of them failed in about 2 % of releases (seed 29
    # among them), and the release then read every key's record.
    d = 100_000
    params = derive_pure_params(Fraction(1), d, d)
    assert (params.m, params.cells.quiet) == (13_254_747, 1_455_610)
    counts = CountVector(d, 10**7, tuple(i * 7919 % 10**7 for i in range(d)))
    read = _count_records(monkeypatch)
    most = 0
    for seed in range(1, 41):
        read[0] = 0
        mech_pure_efficient(counts, params, BitTape(seed=seed))
        most = max(most, read[0])
    assert most <= 1000
