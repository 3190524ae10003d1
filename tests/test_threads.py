"""Parameter objects read from several threads at once.

Parameter objects fill their caches lazily, and releases that share one
(``PureParams.binomial``, ``ApproxParams.cells``, ...) may run in different
threads. Each test starts a handful of threads together behind a barrier,
with a short switch interval so that they interleave inside the cache
fills, and compares what every thread read with a single-threaded read.
"""

import sys
import threading
from fractions import Fraction

from frugaldp import core_samplers
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import GaussianCells, LaplaceCells, LaplaceScale
from frugaldp.entropy_sampler import PointMassSpec, binomial_spec, sample_point_mass
from frugaldp.precise_math import exp_neg
from reference import GaussParam, RefinableProb

THREADS = 6
ROUNDS = 20


def _run_together(work):
    """Results of work(k) for k in range(THREADS), run in as many threads at once."""
    barrier = threading.Barrier(THREADS, timeout=60)
    results = [None] * THREADS
    errors = []

    def body(k):
        try:
            barrier.wait()
            results[k] = work(k)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(k,)) for k in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


def test_point_mass_bounds_at_different_precisions():
    base = binomial_spec(32, Fraction(1, 3))

    def read(spec, k):
        # Each thread adds rows at its own levels while the others scan theirs.
        return [spec.bounds(i, (k + i) % 4) for i in range(base.k + 1)]

    single = PointMassSpec(base.k, base.prob_oracle)
    expected = [read(single, k) for k in range(THREADS)]
    for _ in range(ROUNDS):
        shared = PointMassSpec(base.k, base.prob_oracle)
        assert _run_together(lambda k: read(shared, k)) == expected


def test_enclosed_binomial_prefix():
    # The enclosed binomial sums its cumulatives lazily; draws at p = 1/2
    # reach index d/2 and bounds reads reach d, so threads extend the same
    # prefixes at once.
    def p_fn(w):
        return 1 << (w - 1), 1 << (w - 1)

    def read(spec, k):
        tape = BitTape(seed=900 + k)
        draws = [sample_point_mass(tape, spec) for _ in range(10)]
        levels = (0, 1, 2)[k % 3 :] + (0, 1, 2)[: k % 3]
        return draws, [spec.bounds(i, level) for level in levels for i in range(spec.k + 1)]

    expected = [read(binomial_spec(64, p_fn), k) for k in range(THREADS)]
    for _ in range(ROUNDS):
        shared = binomial_spec(64, p_fn)
        assert _run_together(lambda k: read(shared, k)) == expected


def test_refinable_prob_levels_stay_ordered():
    fn = lambda p: exp_neg(Fraction(1, 3), p)  # noqa: E731

    def exact_level(j):
        p = 64 << j
        lo, hi = fn(p)
        lo, hi = max(lo, 0), min(hi, 1 << p)
        return p, lo, hi, p - (hi - lo).bit_length()

    exact = [exact_level(j) for j in range(4)]

    for _ in range(ROUNDS):
        shared = RefinableProb(fn)
        wanted = [[(j * (k + 1)) % 4 for j in range(12)] for k in range(THREADS)]
        results = _run_together(lambda k: [shared.bounds(None, level) for level in wanted[k]])
        for levels, recs in zip(wanted, results):
            assert recs == [exact[level] for level in levels]
        assert shared._levels == exact[: len(shared._levels)]


def test_gauss_accept_oracles():
    def read(param):
        return [param.accept_oracle(m).bounds(None, 1) for m in range(30)]

    expected = read(GaussParam(Fraction(7, 3)))
    for _ in range(ROUNDS):
        shared = GaussParam(Fraction(7, 3))
        assert _run_together(lambda k: read(shared)) == [expected] * THREADS


def test_cell_law_tail_ratios():
    def read(law, source, keys, k):
        bounds = getattr(law, source)
        return [bounds(j, (j + k) % 3) for j in keys]

    laws = [
        (lambda: GaussianCells(Fraction(7, 3), 9), "tail_ratio", range(-7, 9)),
        (lambda: LaplaceCells(LaplaceScale(Fraction(5, 2)), 11), "tail_ratio", range(-9, 11)),
        # The geometric tail of a pure-mode tail coordinate, past the half-width.
        (lambda: LaplaceCells(LaplaceScale(Fraction(5, 2)), 11), "geometric_tail", range(1, 60, 3)),
    ]
    for make, source, keys in laws:
        expected = [read(make(), source, keys, k) for k in range(THREADS)]
        for _ in range(ROUNDS):
            shared = make()
            assert _run_together(lambda k: read(shared, source, keys, k)) == expected


def test_cell_law_tail_ratios_with_tiny_memos(monkeypatch):
    # A memo cap of 2 empties the record memos while other threads read them.
    monkeypatch.setattr(core_samplers, "_MEMO_CAP", 2)
    test_cell_law_tail_ratios()
