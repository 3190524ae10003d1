"""Tests for the metered bit source."""

import pytest
from scipy import stats

from frugaldp.bit_tape import BitTape


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
