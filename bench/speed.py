"""Machine-speed reference for the benchmark's gated timings.

On a shared machine the speed of a core drifts by up to 1.7x over seconds to
minutes with other tenants' load (measured on a 2-vCPU VM: a fixed CLI run
took 2.2 to 4.4 s within two minutes). Medians of raw wall time then differ
by up to 35% between runs of the same code. So the benchmark times a fixed
reference loop, in the same process as the timed work and close to it in
time, and reports every gated timing scaled to a machine on which that loop
takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / (reference loop time around the work)

In a timed loop of library calls the reference runs between ops, every
``PROBE_EVERY_S``, and each op is scaled by the samples just before and
after it. A child process (a set-up, a CLI run) is started through this
file, which times the reference loop at the child's start and at its exit;
a reference timed in the parent did not track the child's speed.
Raw timings are kept in the run's info line.

Run as a script, this file runs a module or code like ``python -m``/``-c``
would:

    python speed.py REF_OUT -m MODULE [ARGS...]
    python speed.py REF_OUT -c CODE

and writes the reference samples, in seconds, to REF_OUT as a JSON list.
"""

from __future__ import annotations

import atexit
import json
import runpy
import statistics
import sys
import time
from array import array
from collections import Counter

REFERENCE_S = 1.0e-3

#: How often a timed loop of library calls samples the reference loop.
PROBE_EVERY_S = 0.05


class _Counts:
    __slots__ = ("n", "log")

    def __init__(self):
        self.n = 0
        self.log: Counter = Counter()

    def step(self, key: str) -> tuple[int, str]:
        self.n += 1
        self.log[key] += 1
        return self.n, key


def reference_loop() -> float:
    """Seconds taken by a fixed mix of the interpreter work frugaldp does.

    Small-integer arithmetic, big-integer modular products, and method calls
    with dict and Counter updates; it calls no frugaldp code. This mix
    tracked approx-spread's op latency within 2% under load, where the
    integer loop alone tracked within 7%.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(6_500):
        acc += i * i
    counts, table = _Counts(), {}
    for i in range(700):
        n, _ = counts.step("a" if i & 1 else "b")
        table[i & 255] = table.get(i & 255, 0) + n
    x, modulus = (1 << 200) + 12_345, (1 << 256) - 189
    for i in range(600):
        x = (x * x + i) % modulus
    return time.perf_counter() - start


def reference_samples(n: int = 5) -> list[float]:
    return [reference_loop() for _ in range(n)]


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    return seconds * REFERENCE_S / statistics.median(samples)


class SpeedProbe:
    """Reference-loop samples taken between the timed ops of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._marks = array("l")

    def sample(self) -> None:
        self.samples.append(reference_loop())

    def mark(self) -> None:
        """Note that one op was timed; the first sample must come before it."""
        self._marks.append(len(self.samples))

    def scale(self, latencies) -> array:
        """Each op latency at the reference speed, by the samples just before and after the op."""
        return array("d", (
            t * REFERENCE_S / statistics.fmean(self.samples[k - 1 : k + 1])
            for t, k in zip(latencies, self._marks)
        ))


def _run_probed(ref_out: str, mode: str, target: str, args: list[str]) -> None:
    samples = reference_samples()

    def write_samples():
        samples.extend(reference_samples())
        with open(ref_out, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)

    atexit.register(write_samples)
    del sys.path[0]  # this file's directory: its modules must not shadow the program's
    if mode == "-m":
        sys.argv = [target, *args]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.argv = ["-c", *args]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    _run_probed(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:])
