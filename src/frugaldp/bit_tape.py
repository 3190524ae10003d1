"""Metered source of fair random bits.

Every random decision in this package flows through a :class:`BitTape`, so
the exact number of bits a mechanism consumes can be read off afterwards.
A tape is backed either by OS entropy or, when a seed is given, by a small
deterministic generator with a platform-independent bit stream, which makes
runs replayable for tests and audits.

A tape is single-owner: it may be handed from thread to thread but must not
be used concurrently. Parallel trials should each construct their own tape.
"""

from __future__ import annotations

import os
from collections import Counter

from .errors import EntropySourceError

_MASK64 = (1 << 64) - 1

#: Category used for bits drawn outside any ``category(...)`` block.
UNCATEGORIZED = "uncategorized"


class _SplitMix64:
    """splitmix64 word generator; tiny, fast, stable across platforms."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


class _OsEntropy:
    """64-bit words from ``os.urandom``."""

    __slots__ = ()

    def next_word(self) -> int:
        try:
            return int.from_bytes(os.urandom(8), "big")
        except OSError as exc:  # pragma: no cover - depends on the host OS
            raise EntropySourceError("OS entropy source failed") from exc


class _Category:
    """One ``with tape.category(name)`` block: blocks nest, and leaving one restores the outer name."""

    __slots__ = ("_tape", "_name", "_previous")

    def __init__(self, tape: BitTape, name: str):
        self._tape = tape
        self._name = name

    def __enter__(self) -> BitTape:
        tape = self._tape
        self._previous = tape._category
        tape._category = self._name
        return tape

    def __exit__(self, *exc_info) -> None:
        self._tape._category = self._previous


class BitTape:
    """Fair random bits, one at a time, with exact consumption accounting.

    Attributes:
        seed: the seed this tape was built with, or None for OS entropy.
        bits_consumed: total bits emitted so far; increments by exactly one
            per bit and never decreases.
        draw_log: per-category bit counts; the sum over categories always
            equals ``bits_consumed``.
    """

    __slots__ = ("seed", "bits_consumed", "draw_log", "_source", "_word", "_avail", "_category")

    def __init__(self, seed: int | None = None):
        if seed is not None and not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.bits_consumed = 0
        self.draw_log: Counter[str] = Counter()
        self._source = _OsEntropy() if seed is None else _SplitMix64(seed)
        self._word = 0
        self._avail = 0
        self._category = UNCATEGORIZED

    def category(self, name: str) -> _Category:
        """Attribute bits drawn inside the ``with`` block to ``name`` in the draw log."""
        return _Category(self, name)

    def next_bit(self) -> int:
        """Emit one fair bit (0 or 1)."""
        if self._avail == 0:
            self._word = self._source.next_word()
            self._avail = 64
        self._avail -= 1
        bit = (self._word >> self._avail) & 1
        self.bits_consumed += 1
        self.draw_log[self._category] += 1
        return bit

    def next_bits(self, k: int) -> int:
        """Emit ``k`` fair bits as an integer, most significant bit first.

        Equivalent to ``k`` calls of :meth:`next_bit`; :meth:`uniform_range`
        draws its blocks through it.
        """
        value = 0
        avail = self._avail
        word = self._word
        remaining = k
        while remaining > 0:
            if avail == 0:
                word = self._source.next_word()
                avail = 64
            take = avail if avail < remaining else remaining
            avail -= take
            value = (value << take) | ((word >> avail) & ((1 << take) - 1))
            remaining -= take
        self._word = word
        self._avail = avail
        self.bits_consumed += k
        self.draw_log[self._category] += k
        return value

    def uniform_range(self, s: int) -> int:
        """Uniform draw from {1, ..., s} by rejection on ceil(log2 s)-bit blocks.

        Each attempt draws a fresh ceil(log2 s)-bit block and rejects values
        >= s, so the expected cost is at most 2*ceil(log2 s) bits. ``s == 1``
        consumes no bits.
        """
        if s < 1:
            raise ValueError("s must be a positive integer")
        if s == 1:
            return 1
        k = (s - 1).bit_length()
        while True:
            v = self.next_bits(k)
            if v < s:
                return v + 1

    def snapshot(self) -> tuple[int, Counter]:
        """Copy of the current accounting state, for before/after deltas."""
        return self.bits_consumed, Counter(self.draw_log)
