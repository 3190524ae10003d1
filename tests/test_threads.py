"""Parameter objects read from several threads at once.

Parameter objects fill their caches lazily, and releases that share one
(``PureParams.cells``' power tables, ``ApproxParams.cells``, ...) may
run in different threads. Each test starts a handful of threads together behind a barrier,
with a short switch interval so that they interleave inside the cache
fills, and compares what every thread read with a single-threaded read.
"""

import os
import random
import sys
import threading
from fractions import Fraction

from frugaldp import bit_tape, core_samplers
from frugaldp.approx_mech import derive_approx_params, mech_approx_efficient
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import GaussianCells, LaplaceCells
from frugaldp.precise_math import exp_neg
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient, sample_tail_set
from frugaldp.release import CountVector
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


def test_tail_set_draws_on_shared_params():
    # d p is about 1.4 here, so each draw reads many powers of 1 - p; the
    # threads draw on their own tapes while the power tables of their
    # levels are built, then read every level in a rotated order.
    def read(params, k):
        tape = BitTape(seed=900 + k)
        draws = [sample_tail_set(tape, params.d, params.cells.any_tail) for _ in range(10)]
        levels = (0, 1, 2)[k % 3 :] + (0, 1, 2)[: k % 3]
        return draws, [params.cells.any_tail(j, level) for level in levels for j in range(1, params.d + 1)]

    make = lambda: derive_pure_params(Fraction(1, 4), 64, 2)  # noqa: E731
    expected = [read(make(), k) for k in range(THREADS)]
    assert any(tail for draws, _ in expected for tail in draws)
    for _ in range(ROUNDS):
        shared = make()
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
        (lambda: LaplaceCells(Fraction(5, 2), 11), "tail_ratio", range(-9, 11)),
        # The geometric tail of a pure-mode tail coordinate, past the half-width.
        (lambda: LaplaceCells(Fraction(5, 2), 11), "geometric_tail", range(1, 60, 3)),
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


def test_seeded_releases_with_tiny_memos(monkeypatch):
    # Approx and pure releases run at once, each mode on one shared
    # parameter object. A run streams its level-0 records from the law's
    # memo, which a memo cap of 2 empties while other threads read it.
    monkeypatch.setattr(core_samplers, "_MEMO_CAP", 2)
    d, n = 96, 10**6
    rng = random.Random(96)
    counts = CountVector(d, n, tuple(rng.randrange(n + 1) for _ in range(d)))

    def make():
        approx = derive_approx_params(Fraction(1), Fraction(1, 1 << 20), d, 4)
        return approx, derive_pure_params(Fraction(1), d, 4)

    def read(params, k):
        out = []
        for seed in range(10 * k, 10 * k + 3):
            tape = BitTape(seed=seed)
            if k % 2:
                result = mech_pure_efficient(counts, params[1], tape)[0]
            else:
                result = mech_approx_efficient(counts, params[0], tape)
            out.append((result.values, tape.bits_consumed, tape.draw_log))
        return out

    expected = [read(make(), k) for k in range(THREADS)]
    assert all(bits > 0 for row in expected for _, bits, _ in row)
    for _ in range(ROUNDS):
        shared = make()
        assert _run_together(lambda k: read(shared, k)) == expected


def test_os_tapes_never_share_a_source_bit(monkeypatch):
    # A counting fake source records which thread each block went to; every
    # thread's tapes, in order, must read exactly a prefix of its own blocks.
    lock = threading.Lock()
    rng = random.Random(7)
    issued: dict[int, list[bytes]] = {}

    def fake(n):
        with lock:
            block = rng.randbytes(n)
            issued.setdefault(threading.get_ident(), []).append(block)
        return block

    monkeypatch.setattr(os, "urandom", fake)

    def read(k):
        plan = random.Random(k)
        drawn = []
        for _ in range(30):
            tape = BitTape()
            for _ in range(plan.randrange(1, 30)):
                j = plan.randrange(0, 90)
                drawn.append(format(tape.next_bits(j), f"0{j}b") if j else format(tape.next_bit(), "b"))
        return threading.get_ident(), "".join(drawn), bit_tape._pool.avail

    results = _run_together(read)
    assert len({ident for ident, _, _ in results}) == THREADS
    for ident, drawn, rest in results:
        source = "".join(format(int.from_bytes(b, "big"), f"0{8 * len(b)}b") for b in issued[ident])
        assert source.startswith(drawn) and len(source) - len(drawn) == rest < 512
