"""Spans around calls between frugaldp's modules, recorded from outside the package.

The tracer replaces public functions at the module globals through which one
layer calls the next (``frugaldp.approx_mech.discrete_gaussian``, ``exp_neg``
where each module imports it, ...) with recording wrappers, and restores them
afterwards. Each call appends one span to an in-memory list:

    (name, start, end, parent, op, bits)

``parent`` is the index of the enclosing span (-1 at the root), ``op`` the
operation id the caller set (negative ids mark set-up), and ``bits`` the
``BitTape.bits_consumed`` delta when the wrapped function takes a tape.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

SETUP_OP = -1
COLD_OP = -2

#: (module, attribute, span name, position of the BitTape argument or None)
POINTS = (
    ("approx_mech", "derive_approx_params", "approx_mech.derive", None),
    ("approx_mech", "mech_approx_efficient", "approx_mech.release", None),
    ("approx_mech", "discrete_gaussian", "core_samplers.discrete_gaussian", 0),
    ("pure_mech", "derive_pure_params", "pure_mech.derive", None),
    ("pure_mech", "mech_pure_efficient", "pure_mech.release", None),
    ("pure_mech", "sample_tail_set", "entropy_sampler.tail_set", 0),
    ("pure_mech", "discrete_laplace", "core_samplers.discrete_laplace", 0),
    ("pure_mech", "laplace_tail_sample", "core_samplers.laplace_tail_sample", 0),
    ("entropy_sampler", "binom_prob_enclose", "precise_math.binom_prob_enclose", None),
    ("precise_math", "exp_neg", "precise_math.exp_neg", None),
    ("core_samplers", "exp_neg", "precise_math.exp_neg", None),
    ("approx_mech", "exp_neg", "precise_math.exp_neg", None),
    ("pure_mech", "exp_neg", "precise_math.exp_neg", None),
    ("audit_harness", "exp_neg", "precise_math.exp_neg", None),
    ("audit_harness", "oracle_joint_dist_pure", "audit_harness.oracle", None),
    ("cli", "load_dataset", "cli.load_dataset", None),
)


class Tracer:
    """Records spans while installed; set ``op`` before each operation."""

    def __init__(self):
        self.spans: list = []
        self.op = SETUP_OP
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, name: str, tape_arg):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            tape = args[tape_arg] if tape_arg is not None else None
            bits = tape.bits_consumed if tape is not None else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if tape is not None:
                    bits = tape.bits_consumed - bits
                spans[idx] = (name, start, end, parent, self.op, bits)

        return wrapper

    def install(self) -> None:
        """Wrap every point in ``POINTS`` whose module and attribute exist."""
        for mod_name, attr, name, tape_arg in POINTS:
            try:
                module = importlib.import_module(f"frugaldp.{mod_name}")
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, tape_arg))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole op."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.op, 0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children.

    Calls are nested and never overlap in one thread, so the covered part is
    the sum of the children's durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def aggregate(spans, keep) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds, bits] over spans whose op passes ``keep``."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op, bits = span
        if keep(op):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
            row[3] += bits
    return out

