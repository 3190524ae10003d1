"""The benchmark's three workloads: inputs from the seed, set-up, the op, and its output check.

Each workload generates its inputs from the workload seed with the standard
library's ``random`` before any frugaldp code is imported; the program only
ever sees the generated ``CountVector`` or CSV file.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from metrics import binomial_entropy_bits, layer_metrics
from speed import PROBE_EVERY_S, SpeedProbe, at_reference_speed, reference_samples
from tracer import COLD_OP, SETUP_OP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: audit-desk's end-of-run check against the exact oracle law.
CHI_SQUARE_P_MIN = 1e-6
TV_DISTANCE_MAX = 0.05


def child_env() -> dict:
    """Environment for child interpreters: frugaldp from this checkout's ``src``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def check_release(values, sums, grid: int, envelope: int | None = None) -> str | None:
    """Why ``values`` is not a valid release of ``sums``, or None if it is.

    Every value must be a multiple of ``grid`` and, when ``envelope`` is
    given, lie within ``envelope`` of its true count.
    """
    if len(values) != len(sums):
        return f"{len(values)} values for {len(sums)} counts"
    for i, (y, x) in enumerate(zip(values, sums)):
        if not isinstance(y, int) or y % grid:
            return f"coordinate {i}: {y!r} is not a multiple of the grid {grid}"
        if envelope is not None and abs(y - x) > envelope:
            return f"coordinate {i}: |{y} - {x}| exceeds the envelope {envelope}"
    return None


class Tally:
    """Running sums over ops; per-op outputs are not kept, so memory stays flat."""

    def __init__(self):
        self.ops = self.failed = 0
        self.errors: list[str] = []
        self.abs_err = self.coords = self.bits = 0
        self.draw_log: Counter = Counter()
        self.boundary = self.draws = self.attempts = self.tail = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, values, sums, grid: int, envelope: int | None = None) -> None:
        """Count one op whose output is ``values``, checked against the true ``sums``."""
        self.ops += 1
        error = check_release(values, sums, grid, envelope)
        if error:
            self.fail(error)
            return
        self.abs_err += sum(abs(y - x) for y, x in zip(values, sums))
        self.coords += len(sums)

    def add_randomness(self, tape, report, tail_size: int = 0) -> None:
        """Bit and branch counts of one release, from its tape, report and trace."""
        self.bits += tape.bits_consumed
        self.draw_log.update(tape.draw_log)
        self.boundary += len(report.boundary_coordinates)
        self.draws += len(report.draws_attempted)
        self.attempts += sum(report.draws_attempted.values())
        self.tail += tail_size


def _seed_stream(rng: random.Random):
    while True:
        yield rng.getrandbits(64)


def _timings(setups: list[tuple[float, float]], latencies, scaled, busy: float):
    """The gated timings at the reference speed, and an info block with them raw.

    ``setups`` holds (raw, scaled) pairs; ``latencies`` and ``scaled`` are
    the op latencies raw and scaled; ``busy`` is the raw time of the timed
    loop, output checks excluded.
    """

    def timings(k: int, lat, busy: float) -> dict:
        # "inclusive" interpolates between samples and never beyond the largest,
        # which matters for the few ops of pure-cli.
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        return {
            "setup_s": statistics.median(setup[k] for setup in setups),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "ops_per_s": len(lat) / busy,
        }

    factor = math.fsum(scaled) / math.fsum(latencies)
    return timings(1, scaled, busy * factor), {"raw": timings(0, latencies, busy), "speed_factor": factor}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def import_times(runs: int) -> dict:
    """``python -X importtime -c "import frugaldp.cli"``: what the CLI's import costs, and audit_harness's share."""
    cli_ms, audit_ms = [], []
    for _ in range(runs):
        proc = _run_child([sys.executable, "-X", "importtime", "-c", "import frugaldp.cli"])
        top = audit = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].strip()
            cumulative_us = int(fields[1])
            top_level = fields[2].startswith(" ") and not fields[2].startswith("  ")
            if top_level and name.split(".")[0] == "frugaldp":
                top += cumulative_us
            if name == "frugaldp.audit_harness":
                audit = cumulative_us
        cli_ms.append(top / 1e3)
        audit_ms.append(audit / 1e3)
    return {"cli.import_ms": statistics.median(cli_ms), "audit_harness.import_ms": statistics.median(audit_ms)}


def bit_tape_micro(BitTape, runs: int) -> dict:
    """Fixed micro-loops over 10**6 bits and 20 000 tape constructions; medians of ``runs``."""
    bits = 10**6
    tapes = 20_000

    def next_bit():
        draw = BitTape(seed=1).next_bit
        start = time.perf_counter()
        for _ in range(bits):
            draw()
        return (time.perf_counter() - start) / bits * 1e9

    def next_bits():
        draw = BitTape(seed=1).next_bits
        start = time.perf_counter()
        for _ in range(bits // 8):
            draw(8)
        return (time.perf_counter() - start) / bits * 1e9

    def new_tape():
        start = time.perf_counter()
        for i in range(tapes):
            BitTape(seed=i)
        return (time.perf_counter() - start) / tapes * 1e6

    return {
        "bit_tape.next_bit_ns": statistics.median(next_bit() for _ in range(runs)),
        "bit_tape.next_bits_ns_per_bit": statistics.median(next_bits() for _ in range(runs)),
        "bit_tape.new_tape_us": statistics.median(new_tape() for _ in range(runs)),
    }


def _tail_entropy(params) -> float:
    p = (float(params.p.lo) + float(params.p.hi)) / 2
    return binomial_entropy_bits(params.d, p)


class Workload:
    name = ""
    mechanism = ""

    def import_program(self) -> None:
        """Import frugaldp and the modules the workload calls into."""
        importlib.import_module("frugaldp")
        self.approx = importlib.import_module("frugaldp.approx_mech")
        self.pure = importlib.import_module("frugaldp.pure_mech")
        self.cli = importlib.import_module("frugaldp.cli")
        self.BitTape = importlib.import_module("frugaldp.bit_tape").BitTape


class LibraryWorkload(Workload):
    """A closed loop with one caller: releases on fresh seeded tapes, back to back."""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.setup_runs = 1 if tiny else 3
        self.sums = self.make_counts(random.Random(f"{self.name}:{seed}"))
        self.seeds = _seed_stream(random.Random(f"{self.name}:{seed}:ops"))
        self._warm_seeds = _seed_stream(random.Random(f"{self.name}:{seed}:warm-up"))

    def make_counts(self, rng: random.Random) -> tuple[int, ...]:
        raise NotImplementedError

    def timed_setup(self) -> tuple[float, float]:
        """Set-up time in this interpreter: raw, and at the reference speed."""
        before = reference_samples()
        start = time.perf_counter()
        self.setup()
        raw = time.perf_counter() - start
        return raw, at_reference_speed(raw, before + reference_samples())

    def setup(self, tracer=None) -> None:
        """Everything before the first timed op: import, derivation, cold work, warm-up."""
        self.import_program()
        self.prepare()
        tally = Tally()
        for i in range(self.warmup):
            if tracer is not None:
                tracer.op = COLD_OP if i == 0 else SETUP_OP
            self.record(self.op(next(self._warm_seeds)), tally)
        if tally.failed:
            raise RuntimeError(f"a warm-up release failed its check: {tally.errors[0]}")

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, seed: int):
        raise NotImplementedError

    def record(self, out, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """End-of-run checks; returns their figures, with "error" set on failure."""
        return {}

    def timed_loop(self, seconds: float, tally: Tally, tracer=None, traced_tally=None, probe=None):
        """Ops back to back until ``seconds`` have passed; with a tracer, every other op is traced.

        With a probe, samples the reference loop between ops every
        ``PROBE_EVERY_S``. Returns the untraced and traced op latencies and
        the loop's wall time without the output checks and samples.
        """
        untraced, traced = array("d"), array("d")  # flat, so peak RSS barely grows with op count
        checking = 0.0
        if probe is not None:
            probe.sample()
        start = last_sample = time.perf_counter()
        deadline = start + seconds
        j = 0
        while True:
            seed = next(self.seeds)
            trace_this = tracer is not None and j % 2 == 0
            if trace_this:
                tracer.install()
                tracer.op = j
            t0 = time.perf_counter()
            try:
                if trace_this:
                    with tracer.span("op"):
                        out = self.op(seed)
                else:
                    out = self.op(seed)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                out = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if trace_this:
                tracer.uninstall()
            (traced if trace_this else untraced).append(t1 - t0)
            if probe is not None:
                probe.mark()
            into = traced_tally if trace_this else tally
            if isinstance(out, str):
                into.ops += 1
                into.fail(out)
            else:
                self.record(out, into)
            if probe is not None and t1 - last_sample >= PROBE_EVERY_S:
                probe.sample()
                last_sample = time.perf_counter()
            checking += time.perf_counter() - t1
            j += 1
            if t1 >= deadline:
                break
        return untraced, traced, time.perf_counter() - start - checking

    def e2e(self, seconds: float, workdir: Path) -> tuple[dict, list, dict]:
        setups = [setup_in_child(self) for _ in range(self.setup_runs - 1)]
        setups.append(self.timed_setup())
        tally = Tally()
        probe = SpeedProbe()
        latencies, _, busy = self.timed_loop(seconds, tally, probe=probe)
        peak_rss = _peak_rss_mb(resource.RUSAGE_SELF)  # before the statistics below copy the latencies
        timings, timing_info = _timings(setups, latencies, probe.scale(latencies), busy)
        half = len(latencies) // 2
        info = {
            **timing_info,
            "setup_samples_s": setups,
            "ops": len(latencies),
            "second_half_over_first_half_p50": (
                statistics.median(latencies[half:]) / statistics.median(latencies[:half]) if half else 1.0
            ),
            "checks": self.finish(),
        }
        metrics = {
            **timings,
            "bits_per_op": tally.bits / max(1, tally.ops - tally.failed),
            "abs_err_mean": tally.abs_err / max(1, tally.coords),
            "peak_rss_mb": peak_rss,
        }
        return metrics, [tally], info

    def layers(self, seconds: float, workdir: Path) -> tuple[dict, list, dict, list]:
        tracer = Tracer()
        self.import_program()
        tracer.install()
        self.setup(tracer)
        tracer.uninstall()
        tally, traced = Tally(), Tally()
        untraced_s, traced_s, _ = self.timed_loop(seconds, tally, tracer, traced)
        info = {"ops": len(untraced_s) + len(traced_s), "traced_ops": len(traced_s), "checks": self.finish()}
        runs = 1 if self.tiny else 3
        trace = SimpleNamespace(
            spans=tracer.spans,
            tally=traced,
            cold_ops={COLD_OP},
            mechanism=self.mechanism,
            entropy=_tail_entropy(self.params) if self.mechanism == "pure" else None,
            traced_s=traced_s,
            untraced_s=untraced_s,
            extra={**bit_tape_micro(self.BitTape, runs), **import_times(runs)},
        )
        return layer_metrics(trace), [tally, traced], info, tracer.spans


class ApproxSpread(LibraryWorkload):
    """Approx release of d=4096 counts spread over [0, 10**7] (s=4, eps=1, delta=2**-20).

    The counts span many grid cells, so about 2d/s coordinates sit on a cell
    boundary and pay for a truncated discrete Gaussian draw: the paper's hot
    path. The acceptance-oracle cache keeps growing for many releases, so
    set-up includes 30 warm-up releases.
    """

    name = "approx-spread"
    mechanism = "approx"
    S = 4

    def make_counts(self, rng):
        self.d, self.max_count = (64, 10**5) if self.tiny else (4096, 10**7)
        self.warmup = 2 if self.tiny else 30
        return tuple(rng.randint(0, self.max_count) for _ in range(self.d))

    def prepare(self):
        self.counts = self.approx.CountVector(d=self.d, n=self.max_count, sums=self.sums)
        self.params = self.approx.derive_approx_params(Fraction(1), Fraction(1, 1 << 20), self.d, self.S)
        self.envelope = self.params.r * (2 * self.S + 1)

    def op(self, seed):
        tape = self.BitTape(seed=seed)
        return self.approx.mech_approx_efficient(self.counts, self.params, tape), tape

    def record(self, out, tally):
        result, tape = out
        tally.check(result.values, self.sums, self.params.grid, self.envelope)
        tally.add_randomness(tape, result.report)


class AuditDesk(LibraryWorkload):
    """Pure release at desk scale: d=3, eps=1/4, s=2, checked against the exact oracle.

    Fixed per-release costs dominate, tails are frequent (p ~ 0.17), and the
    oracle's enumeration is part of set-up. The three counts are fixed: the
    error of a count depends on its residue modulo the grid, so counts drawn
    per seed would make ``abs_err_mean`` measure the draw, not the release.
    The seed picks the release tapes.
    """

    name = "audit-desk"
    mechanism = "pure"
    COUNTS = (17, 50, 93)

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        self.setup_runs = 2 if tiny else 5
        self.warmup = 20 if tiny else 200
        self.histogram: Counter = Counter()

    def make_counts(self, rng):
        return self.COUNTS

    def prepare(self):
        self.audit = importlib.import_module("frugaldp.audit_harness")
        self.counts = self.approx.CountVector(d=3, n=100, sums=self.sums)
        self.params = self.pure.derive_pure_params(Fraction(1, 4), 3, 2)
        self.oracle = self.audit.oracle_joint_dist_pure(self.counts, self.params)

    def op(self, seed):
        tape = self.BitTape(seed=seed)
        return self.pure.mech_pure_efficient(self.counts, self.params, tape), tape

    def record(self, out, tally):
        (result, trace), tape = out
        self.histogram[result.values] += 1
        tally.check(result.values, self.sums, self.params.grid)
        tally.add_randomness(tape, result.report, trace.tail_size)

    def finish(self):
        p = self.audit.chi_square(self.histogram, self.oracle)
        tv = float(self.audit.tv_distance(self.histogram, self.oracle))
        out = {"releases": sum(self.histogram.values()), "chi_square_p": p, "tv_distance": tv}
        if p < CHI_SQUARE_P_MIN or tv > TV_DISTANCE_MAX:
            out["error"] = (
                f"histogram disagrees with the oracle: chi-square p={p:.3g} (min {CHI_SQUARE_P_MIN}),"
                f" TV={tv:.4f} (max {TV_DISTANCE_MAX})"
            )
        return out


class PureCli(Workload):
    """The CLI as a process: pure mode (eps=1, s=4) on a 4096-predicate x 1000-row CSV.

    A CLI user pays every cold cost on every invocation: import, CSV ingest,
    the cold Bin(d, p) tail-set draw and the cold Laplace residue oracles.
    Whether a release has any boundary coordinate is decided by the shift
    alone here (n is far below the grid), so op latency is bimodal by op
    seed. The op seeds are therefore one fixed cycle, 1 to 7, the same under
    every workload seed, and a run only completes whole cycles; the workload
    seed picks the CSV contents.
    """

    name = "pure-cli"
    mechanism = "pure"
    IMPORT = ["-c", "import frugaldp.cli"]

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.d, self.rows = (16, 50) if tiny else (4096, 1000)
        # An odd count, so that the median is one op's latency, not the midpoint
        # of a slow and a fast one.
        self.cycle = (1, 2, 3) if tiny else (1, 2, 3, 4, 5, 6, 7)
        self.setup_runs = 2 if tiny else 5

    def write_csv(self, workdir: Path) -> None:
        """Bernoulli(1/2) cells from the seed; keeps the true column sums."""
        rng = random.Random(f"{self.name}:{self.seed}")
        d = self.d
        sums = [0] * d
        self.workdir = workdir
        self.csv = workdir / "data.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"q{j}" for j in range(d)) + "\n")
            for _ in range(self.rows):
                row = format(rng.getrandbits(d), f"0{d}b")
                fh.write(",".join(row) + "\n")
                for j, cell in enumerate(row):
                    if cell == "1":
                        sums[j] += 1
        self.sums = tuple(sums)

    def probed_child(self, args: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
        """Run ``python ARGS`` through ``speed.py``; returns its wall time raw and at the reference speed.

        The reference loop runs inside the child, at its start and at its
        exit; its own time is taken out of the wall time.
        """
        ref_out = self.workdir / "reference.json"
        cmd = [sys.executable, str(HERE / "speed.py"), str(ref_out), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        try:
            with open(ref_out, encoding="utf-8") as fh:
                samples = json.load(fh)
            ref_out.unlink()
        except (OSError, ValueError) as exc:
            if proc.returncode != 0:
                return wall, wall, proc  # the child died early; the caller counts a failed op
            raise RuntimeError(f"no reference samples from the child ({exc}): {proc.stderr[-300:]}") from exc
        wall -= sum(samples)
        return wall, at_reference_speed(wall, samples), proc

    def cli_op(self, seed: int, out_path: Path) -> tuple[float, float, str | None]:
        """One CLI process: its wall time raw and scaled, and an error, or None when it exited 0."""
        wall, scaled, proc = self.probed_child([
            "-m", "frugaldp.cli", "--mode", "pure", "--epsilon", "1", "--s", "4",
            "--input", str(self.csv), "--seed", str(seed), "--output", str(out_path),
        ])
        if proc.returncode != 0:
            return wall, scaled, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return wall, scaled, None

    def check_output(self, out_path: Path, error: str | None, grid: int, tally: Tally):
        """Check a CLI op's exit code and ``values``, the only part of its report read."""
        if error is None:
            try:
                with open(out_path, encoding="utf-8") as fh:
                    values = json.load(fh)["values"]
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc}"
        if error is not None:
            tally.ops += 1
            tally.fail(error)
            return None
        tally.check(values, self.sums, grid)
        return tuple(values)

    def replay(self, seed: int) -> tuple[tuple, dict]:
        """The CLI's phases in this process: ingest, derivation, release, serialisation."""
        start = time.perf_counter()
        counts = self.cli.load_dataset(str(self.csv))
        loaded = time.perf_counter()
        params = self.pure.derive_pure_params(Fraction(1), counts.d, 4)
        tape = self.BitTape(seed=seed)
        result, trace = self.pure.mech_pure_efficient(counts, params, tape)
        released = time.perf_counter()
        report = {
            "values": list(result.values),
            "params": {"epsilon": str(params.epsilon), "s": params.s, "m": params.m, "grid": params.grid},
        }
        json.dumps(report, indent=2, sort_keys=True)
        end = time.perf_counter()
        phases = {"load": loaded - start, "json": end - released, "total": end - start}
        return (result, trace, tape, params), phases

    def e2e(self, seconds: float, workdir: Path) -> tuple[dict, list, dict]:
        self.write_csv(workdir)
        self.probed_child(self.IMPORT)  # untimed: writes bytecode caches and warms the file cache
        setups = []
        for _ in range(self.setup_runs):
            wall, scaled, proc = self.probed_child(self.IMPORT)
            if proc.returncode != 0:
                raise RuntimeError(f"import frugaldp.cli failed: {proc.stderr[-500:]}")
            setups.append((wall, scaled))
        ops = []  # (seed, output path, error)
        walls, scaled_walls = [], []
        busy = 0.0
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for seed in self.cycle:
                out = workdir / f"out{len(ops)}.json"
                wall, scaled, error = self.cli_op(seed, out)
                busy += wall
                walls.append(wall)
                scaled_walls.append(scaled)
                ops.append((seed, out, error))
            now = time.perf_counter()
            if now + (now - cycle_start) > start + seconds:
                break

        # Bits come from the same releases replayed in this process: the CLI's
        # report is read for its values only.
        self.import_program()
        counts = self.approx.CountVector(d=self.d, n=self.rows, sums=self.sums)
        params = self.pure.derive_pure_params(Fraction(1), self.d, 4)
        library = {}
        for seed in self.cycle:
            tape = self.BitTape(seed=seed)
            result, _ = self.pure.mech_pure_efficient(counts, params, tape)
            library[seed] = (result.values, tape.bits_consumed)
        tally = Tally()
        same = 0
        for seed, out, error in ops:
            values = self.check_output(out, error, params.grid, tally)
            same += values == library[seed][0]
            tally.bits += library[seed][1]
        timings, timing_info = _timings(setups, walls, scaled_walls, busy)
        metrics = {
            **timings,
            "bits_per_op": tally.bits / len(ops),
            "abs_err_mean": tally.abs_err / max(1, tally.coords),
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        info = {
            **timing_info,
            "setup_samples_s": setups,
            "ops": len(ops),
            "op_seeds": list(self.cycle),
            "op_wall_s": walls,
            "cli_values_equal_library_replay": same / len(ops),
        }
        return metrics, [tally], info

    def layers(self, seconds: float, workdir: Path) -> tuple[dict, list, dict, list]:
        self.write_csv(workdir)
        self.import_program()
        runs = 1 if self.tiny else 3
        extra = {**bit_tape_micro(self.BitTape, runs), **import_times(runs)}
        tracer = Tracer()
        tally, traced = Tally(), Tally()
        walls, untraced_s, traced_s, phases = [], [], [], []
        out = workdir / "out.json"
        # Every third seed first, so that a few traced ops sample the whole cycle.
        order = self.cycle[::3] + self.cycle[1::3] + self.cycle[2::3]
        start = time.perf_counter()
        j = 0
        while True:
            seed = order[j % len(order)]
            (_, _, _, params), phase = self.replay(seed)
            untraced_s.append(phase["total"])
            phases.append(phase)
            wall, _, error = self.cli_op(seed, out)
            walls.append(wall)
            self.check_output(out, error, params.grid, tally)
            tracer.install()
            tracer.op = j
            t0 = time.perf_counter()
            with tracer.span("op"):
                (result, trace, tape, params), _ = self.replay(seed)
            traced_s.append(time.perf_counter() - t0)
            tracer.uninstall()
            traced.check(result.values, self.sums, params.grid)
            traced.add_randomness(tape, result.report, trace.tail_size)
            j += 1
            if j >= 2 and time.perf_counter() >= start + seconds:
                break
        load = statistics.median(p["load"] for p in phases)
        extra.update({
            "cli.load_dataset_ms": load * 1e3,
            "cli.ingest_mcells_per_s": self.d * self.rows / load / 1e6,
            "cli.json_ms": statistics.median(p["json"] for p in phases) * 1e3,
            "cli.process_other_ms": statistics.median(w - p["total"] for w, p in zip(walls, phases)) * 1e3,
        })
        trace = SimpleNamespace(
            spans=tracer.spans,
            tally=traced,
            cold_ops=set(range(j)),  # every invocation derives fresh parameters
            mechanism=self.mechanism,
            entropy=_tail_entropy(params),
            traced_s=traced_s,
            untraced_s=untraced_s,
            extra=extra,
        )
        info = {"ops": len(walls) + j, "op_seeds": [order[i % len(order)] for i in range(j)]}
        return layer_metrics(trace), [tally, traced], info, tracer.spans


def setup_in_child(workload) -> tuple[float, float]:
    """Set-up time of ``workload`` in a fresh interpreter: raw, and at the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", workload.name,
           "--seed", str(workload.seed)] + (["--tiny"] if workload.tiny else [])
    return tuple(json.loads(_run_child(cmd).stdout.splitlines()[-1])["setup_s"])


WORKLOADS = {w.name: w for w in (ApproxSpread, PureCli, AuditDesk)}
