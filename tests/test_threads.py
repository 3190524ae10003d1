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

from frugaldp.core_samplers import GaussianCells, GaussParam, LaplaceCells, LaplaceScale, RefinableProb
from frugaldp.entropy_sampler import PointMassSpec, binomial_spec
from frugaldp.precise_math import exp_neg, scaled_bounds

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
        # Each thread adds rows at its own precisions while the others scan theirs.
        return [spec.bounds(i, 24 + 8 * (k + THREADS * (i % 4))) for i in range(base.k + 1)]

    single = PointMassSpec(base.k, base.prob_oracle)
    expected = [read(single, k) for k in range(THREADS)]
    for _ in range(ROUNDS):
        shared = PointMassSpec(base.k, base.prob_oracle)
        assert _run_together(lambda k: read(shared, k)) == expected


def test_refinable_prob_levels_stay_ordered():
    fn = lambda p: exp_neg(Fraction(1, 3), p)  # noqa: E731
    exact = {}

    def exact_level(p):
        if p not in exact:
            lo, hi = scaled_bounds(fn(p), p)
            lo, hi = max(lo, 0), min(hi, 1 << p)
            exact[p] = p, lo, hi, p - (hi - lo).bit_length()
        return exact[p]

    for _ in range(ROUNDS):
        shared = RefinableProb(fn)
        needs = [range(k, 300, 7 * (k + 1)) for k in range(THREADS)]
        results = _run_together(lambda k: [shared.level(n) for n in needs[k]])
        for need, recs in zip(needs, results):
            for n, rec in zip(need, recs):
                assert n + 2 <= rec[3]
                assert rec == exact_level(rec[0])
        precisions = [rec[0] for rec in shared._levels]
        assert precisions == sorted(set(precisions))


def test_gauss_accept_oracles():
    def read(param):
        return [param.accept_oracle(m).level(64) for m in range(30)]

    expected = read(GaussParam(Fraction(7, 3)))
    for _ in range(ROUNDS):
        shared = GaussParam(Fraction(7, 3))
        assert _run_together(lambda k: read(shared)) == [expected] * THREADS


def test_cell_law_tail_ratios():
    def read(law, h, k):
        return [law.tail_ratio(j, (j + k) % 3) for j in range(-(h - 2), h)]

    laws = [
        (lambda: GaussianCells(Fraction(7, 3), 9), 9),
        (lambda: LaplaceCells(LaplaceScale(Fraction(5, 2)), 11), 11),
    ]
    for make, h in laws:
        expected = [read(make(), h, k) for k in range(THREADS)]
        for _ in range(ROUNDS):
            shared = make()
            assert _run_together(lambda k: read(shared, h, k)) == expected
