"""Tests for the metered bit source."""

import os
import random
from fractions import Fraction

import pytest
from scipy import stats

from frugaldp import bit_tape
from frugaldp.bit_tape import BitTape, os_bits_read
from frugaldp.cli import EXIT_INTERNAL, main
from frugaldp.errors import EntropySourceError
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector


def test_seeded_tape_replays_identically():
    a = BitTape(seed=123456789)
    b = BitTape(seed=123456789)
    assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]


def test_different_seeds_differ():
    a = BitTape(seed=1)
    b = BitTape(seed=2)
    assert [a.next_bit() for _ in range(64)] != [b.next_bit() for _ in range(64)]


def test_counter_increments_per_bit():
    tape = BitTape(seed=7)
    for _ in range(10):
        tape.next_bit()
    assert tape.bits_consumed == 10


def test_next_bits_matches_bitwise_stream():
    a = BitTape(seed=99)
    b = BitTape(seed=99)
    block = a.next_bits(137)
    bits = [b.next_bit() for _ in range(137)]
    assert block == int("".join(map(str, bits)), 2)
    assert a.bits_consumed == b.bits_consumed == 137


def test_fair_bit_empirical_mean():
    tape = BitTape(seed=2024)
    n = 100_000
    mean = sum(tape.next_bit() for _ in range(n)) / n
    # 5-sigma band around 1/2 at n = 1e5 is roughly +/- 0.008.
    assert 0.49 <= mean <= 0.51


def test_os_entropy_tape_works():
    tape = BitTape()
    assert tape.seed is None
    bits = [tape.next_bit() for _ in range(256)]
    assert set(bits) <= {0, 1}
    assert tape.bits_consumed == 256


def test_seed_range_validation():
    with pytest.raises(ValueError):
        BitTape(seed=-1)
    with pytest.raises(ValueError):
        BitTape(seed=1 << 64)
    BitTape(seed=(1 << 64) - 1)


class TestUniformRange:
    def test_singleton_uses_no_bits(self):
        tape = BitTape(seed=5)
        assert tape.uniform_range(1) == 1
        assert tape.bits_consumed == 0

    def test_power_of_two_frequencies(self):
        tape = BitTape(seed=11)
        n = 100_000
        counts = [0] * 4
        for _ in range(n):
            counts[tape.uniform_range(4) - 1] += 1
        # Exactly two bits per draw: no rejection on powers of two.
        assert tape.bits_consumed == 2 * n
        for c in counts:
            assert abs(c / n - 0.25) <= 0.01

    def test_rejection_bit_cost_s3(self):
        # Two bits per attempt, acceptance 3/4: expected bits 2/(3/4) = 8/3.
        tape = BitTape(seed=13)
        n = 100_000
        for _ in range(n):
            tape.uniform_range(3)
        mean_bits = tape.bits_consumed / n
        assert mean_bits <= 8 / 3 + 0.02
        assert mean_bits >= 2.0

    @pytest.mark.parametrize("s", [2, 3, 5, 7, 16])
    def test_uniformity_chi_square(self, s):
        tape = BitTape(seed=1000 + s)
        n = 100_000
        counts = [0] * s
        for _ in range(n):
            counts[tape.uniform_range(s) - 1] += 1
        _, p = stats.chisquare(counts)
        assert p >= 0.001

    def test_invalid_range(self):
        tape = BitTape(seed=1)
        with pytest.raises(ValueError):
            tape.uniform_range(0)


def test_category_accounting_totals():
    tape = BitTape(seed=77)
    with tape.category("shift"):
        tape.uniform_range(16)
    with tape.category("gaussian"):
        tape.next_bits(10)
        with tape.category("tail"):
            tape.next_bit()
        tape.next_bit()
    tape.next_bit()  # uncategorized
    with tape.category("laplace") as inner:
        assert inner is tape
    # A block left by an exception restores the outer category.
    with tape.category("binomial"):
        with pytest.raises(RuntimeError):
            with tape.category("subset"):
                tape.next_bits(3)
                raise RuntimeError("left early")
        tape.next_bit()
    tape.next_bits(2)  # uncategorized again
    assert sum(tape.draw_log.values()) == tape.bits_consumed
    assert tape.draw_log["shift"] == 4
    assert tape.draw_log["gaussian"] == 11
    assert tape.draw_log["tail"] == 1
    assert tape.draw_log["subset"] == 3 and tape.draw_log["binomial"] == 1
    assert tape.draw_log["uncategorized"] == 3 and "laplace" not in tape.draw_log


def test_snapshot_is_a_copy():
    tape = BitTape(seed=3)
    bits, log = tape.snapshot()
    with tape.category("shift"):
        tape.next_bit()
    assert bits == 0 and log.get("shift", 0) == 0
    assert tape.bits_consumed == 1


def test_ledger_reads_inside_open_blocks():
    tape = BitTape(seed=41)
    tape.next_bits(2)
    with tape.category("gaussian"):
        tape.next_bits(5)
        with tape.category("tail"):
            tape.next_bit()
            tape.next_bits(3)
            bits, log = tape.snapshot()
            assert bits == tape.bits_consumed == 11
            assert log == {"uncategorized": 2, "gaussian": 5, "tail": 4}
            assert tape.draw_log == log
            tape.next_bit()
            assert tape.draw_log["tail"] == 5 and log["tail"] == 4
        tape.next_bit()
        assert tape.draw_log == {"uncategorized": 2, "gaussian": 6, "tail": 5}
    # An exception unwinds the inner block; its bits stay under its name.
    with tape.category("binomial"):
        with pytest.raises(RuntimeError):
            with tape.category("subset"):
                tape.next_bits(3)
                raise RuntimeError("left early")
        bits, log = tape.snapshot()
        assert log["subset"] == 3 and "binomial" not in log
        tape.next_bit()
        assert tape.draw_log["binomial"] == 1 and tape.draw_log["laplace"] == 0
        assert sum(tape.draw_log.values()) == tape.bits_consumed == bits + 1 == 17


def test_os_tapes_read_each_source_bit_once(monkeypatch):
    # A recording fake source: the tapes' bits, in order, are the source's bits, in order.
    rng = random.Random(5)
    blocks = []

    def fake(n):
        blocks.append(rng.randbytes(n))
        return blocks[-1]

    bit_tape._empty_pool()
    monkeypatch.setattr(os, "urandom", fake)
    drawn = []
    for k in (1, 7, 0, 64, 600, 3, 512, 1):
        tape = BitTape()
        drawn.append(format(tape.next_bit(), "b"))
        drawn.append(format(tape.next_bits(k), f"0{k}b") if k else "")
        assert tape.bits_consumed == k + 1
    drawn = "".join(drawn)
    source = "".join(format(int.from_bytes(b, "big"), f"0{8 * len(b)}b") for b in blocks)
    assert all(len(b) % 64 == 0 for b in blocks)
    assert source.startswith(drawn) and len(source) - len(drawn) == bit_tape._pool.avail < 512


def test_os_source_bits_track_spent_bits():
    # 1 000 OS-backed releases at audit-desk scale read what they spend, plus the pool's rest.
    counts = CountVector(3, 100, (17, 50, 83))
    params = derive_pure_params(Fraction(1, 4), 3, 2)
    read, rest = os_bits_read(), bit_tape._pool.avail
    spent = 0
    for _ in range(1000):
        tape = BitTape()
        mech_pure_efficient(counts, params, tape)
        spent += tape.bits_consumed
    assert spent > 1000
    assert os_bits_read() - read == spent + bit_tape._pool.avail - rest <= spent + 512
    assert 0 <= bit_tape._pool.avail < 512


def test_os_source_failure(monkeypatch, tmp_path, capsys):
    def broken(n):
        raise OSError("no entropy")

    bit_tape._empty_pool()
    read = os_bits_read()
    monkeypatch.setattr(os, "urandom", broken)
    tape = BitTape()
    with pytest.raises(EntropySourceError):
        tape.next_bit()
    assert tape.bits_consumed == 0 and tape.draw_log == {}
    data = tmp_path / "desk.csv"
    data.write_text("a,b,c\n1,0,1\n0,1,1\n")
    assert main(["--mode", "pure", "--epsilon", "0.25", "--s", "2", "--input", str(data)]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err
    assert os_bits_read() == read and bit_tape._pool.avail == 0
    monkeypatch.undo()
    # The source works again: the pool reads one whole block and nothing is left half-filled.
    assert tape.next_bits(10) < 1024 and tape.bits_consumed == 10
    assert os_bits_read() - read == 512 and bit_tape._pool.avail == 502


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_fresh_bits():
    bit_tape._empty_pool()
    BitTape().next_bit()  # leaves 511 unread bits in this thread's pool
    assert bit_tape._pool.avail == 511
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 1
        try:
            os.write(w, BitTape().next_bits(256).to_bytes(32, "big"))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        child = fh.read()
    _, status = os.waitpid(pid, 0)
    assert status == 0 and len(child) == 32
    assert int.from_bytes(child, "big") != BitTape().next_bits(256)
