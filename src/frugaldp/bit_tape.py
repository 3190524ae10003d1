"""Metered source of fair random bits.

Every random decision in this package flows through a :class:`BitTape`, so
the exact number of bits a mechanism consumes can be read off afterwards.
A tape is backed either by OS entropy or, when a seed is given, by a small
deterministic generator with a platform-independent bit stream, which makes
runs replayable for tests and audits.

Bits are counted per category block, not per bit: a draw only moves
``bits_consumed``, and entering or leaving a ``with tape.category(name)``
block credits the bits drawn since the last such switch to the category
that was current. Reading ``draw_log`` or taking a ``snapshot()`` credits
them first too, so a read inside an open block is exact.

OS-backed tapes hold no bits of their own: each draw takes its bits from
one pool per thread, which ``os.urandom`` fills 64 bytes at a time. The
bits read from the OS are then the bits spent plus fewer than 512 per
thread, and ``os_bits_read()`` counts them. Threads never share a pool bit,
and a forked child starts with an empty pool (``os.register_at_fork``), so
it never repeats its parent's unread bits. A seeded tape reads its own
splitmix64 stream, 64 bits at a time.

A tape is single-owner: it may be handed from thread to thread but must not
be used concurrently. Parallel trials should each construct their own tape.
"""

from __future__ import annotations

import os
from _thread import _local
from collections import Counter

from .errors import EntropySourceError

_MASK64 = (1 << 64) - 1

#: Bits ``os.urandom`` fills a pool with at a time.
_POOL_BLOCK = 512

#: Category used for bits drawn outside any ``category(...)`` block.
UNCATEGORIZED = "uncategorized"


def _splitmix64(seed: int):
    """The fill function of a splitmix64 stream: tiny, fast, stable across platforms."""
    state = seed

    def fill(k: int) -> tuple[int, int]:
        """The next ceil(k / 64) words of the stream, the first most significant: (bits, how many)."""
        nonlocal state
        bits = n = 0
        while n < k:
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            bits, n = (bits << 64) | (z ^ (z >> 31)), n + 64
        return bits, n

    return fill


class _Ledger(Counter):
    """A tape's per-category bit counts: a Counter, built empty at the speed of a dict."""

    __init__ = dict.__init__


class _Pool(_local):
    """The calling thread's unread OS bits: the low ``avail`` bits of ``word``, and the bits read so far."""

    word = avail = read = 0


_pool = _Pool()


def _empty_pool() -> None:
    _pool.word = _pool.avail = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_empty_pool)


def _os_fill(k: int) -> tuple[int, int]:
    """Exactly ``k`` bits from this thread's pool, topped up from ``os.urandom`` in whole blocks."""
    pool = _pool
    word, avail = pool.word, pool.avail
    if avail < k:
        n = -((avail - k) // _POOL_BLOCK) * _POOL_BLOCK
        try:
            fresh = os.urandom(n // 8)
        except OSError as exc:
            raise EntropySourceError("OS entropy source failed") from exc
        word = word << n | int.from_bytes(fresh, "big")
        avail += n
        pool.read += n
    avail -= k
    pool.word, pool.avail = word & ((1 << avail) - 1), avail
    return word >> avail, k


def os_bits_read() -> int:
    """Bits the calling thread has read from ``os.urandom`` for OS-backed tapes."""
    return _pool.read


class BitTape:
    """Fair random bits, one at a time, with exact consumption accounting.

    The tape holds the unread low ``_avail`` bits of ``_word``; ``_fill(k)``
    supplies at least k more when they run out: whole splitmix64 words for a
    seeded tape, exactly k pool bits for an OS-backed one, so that one never
    holds a bit between draws. ``_log`` holds the credited bits by category,
    ``_mark`` the ``bits_consumed`` they add up to, and ``_outer`` the names
    of the open blocks around the current one.

    Attributes:
        seed: the seed this tape was built with, or None for OS entropy.
        bits_consumed: total bits emitted so far; increments by exactly one
            per bit and never decreases.
    """

    __slots__ = ("seed", "bits_consumed", "_word", "_avail", "_fill", "_log", "_mark", "_category", "_outer", "_next")

    def __init__(self, seed: int | None = None):
        if seed is not None and not 0 <= seed < (1 << 64):
            raise ValueError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.bits_consumed = self._word = self._avail = self._mark = 0
        self._fill = _os_fill if seed is None else _splitmix64(seed)
        self._log = _Ledger()
        self._category = self._next = UNCATEGORIZED
        self._outer: list[str] = []

    def category(self, name: str) -> BitTape:
        """For ``with tape.category(name):``, which credits the bits drawn in the block to ``name``.

        Blocks nest; leaving one, by an exception too, restores the outer name.
        """
        self._next = name
        return self

    def _credit(self) -> None:
        """Credit the bits drawn since the last credit to the current category."""
        n, log = self.bits_consumed, self._log
        if n != self._mark:
            log[self._category] = log.get(self._category, 0) + n - self._mark
            self._mark = n

    def __enter__(self) -> BitTape:
        if self.bits_consumed != self._mark:
            self._credit()
        self._outer.append(self._category)
        self._category = self._next
        return self

    def __exit__(self, *exc_info) -> None:
        self._credit()
        self._category = self._outer.pop()

    @property
    def draw_log(self) -> Counter:
        """Per-category bit counts, summing to ``bits_consumed``; 0 for an unused category.

        The counter is the tape's own, brought up to date by this read.
        """
        self._credit()
        return self._log

    def next_bit(self) -> int:
        """Emit one fair bit (0 or 1)."""
        avail = self._avail
        if not avail:
            self._word, avail = self._fill(1)
        avail -= 1
        self._avail = avail
        self.bits_consumed += 1
        return self._word >> avail & 1

    def next_bits(self, k: int) -> int:
        """Emit ``k`` fair bits as an integer, most significant bit first.

        Equivalent to ``k`` calls of :meth:`next_bit`; :meth:`uniform_range`
        draws its blocks through it.
        """
        avail = self._avail
        if avail < k:
            fresh, n = self._fill(k - avail)
            self._word = (self._word & ((1 << avail) - 1)) << n | fresh
            avail += n
        avail -= k
        self._avail = avail
        self.bits_consumed += k
        return self._word >> avail & ((1 << k) - 1)

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

    def snapshot(self) -> tuple[int, dict[str, int]]:
        """Copy of the current accounting state, for before/after deltas."""
        return self.bits_consumed, dict(self.draw_log)
