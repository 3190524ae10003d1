"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Tally, check_release  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_a_unit(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
        "--spans", str(spans),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert set(metric) == {"value", "unit"}
        assert UNIT.fullmatch(metric["unit"]), metric
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    info = json.loads(proc.stdout.splitlines()[-2])["info"]
    assert {"git_sha", "python", "nproc", "cpu_model"} <= set(info["environment"])
    if trace:
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "op", "bits"}
    else:
        assert not spans.exists()


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_checker_accepts_a_valid_release():
    assert check_release((0, 20, 40), (3, 25, 41), grid=20, envelope=30) is None


def test_checker_rejects_an_off_grid_value():
    assert "grid" in check_release((0, 21, 40), (3, 25, 41), grid=20)


def test_checker_rejects_a_value_outside_the_envelope():
    assert "envelope" in check_release((0, 80, 40), (3, 25, 41), grid=20, envelope=30)


def test_checker_rejects_a_wrong_length():
    assert check_release((0, 20), (3, 25, 41), grid=20) is not None


def test_tally_counts_a_rejected_release_as_failed():
    tally = Tally()
    tally.check((0, 21), (3, 25), grid=20)
    tally.check((0, 20), (3, 25), grid=20)
    assert (tally.ops, tally.failed) == (2, 1)


def test_self_time_is_duration_minus_children():
    spans = [
        ("op", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 5.0, 0, 0, 0),
        ("b", 2.0, 3.0, 1, 0, 0),
        ("a", 6.0, 8.0, 0, 0, 0),
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]


def per_op_self(spans) -> dict[int, tuple[float, dict[str, float]]]:
    """For each op id >= 0: the duration of its "op" span and the self time summed per name."""
    ops: dict[int, tuple[float, dict[str, float]]] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, op, _ = span
        if op < 0:
            continue
        total, names = ops.get(op, (0.0, defaultdict(float)))
        if name == "op":
            total = end - start
        names[name] += own
        ops[op] = (total, names)
    return ops


@pytest.mark.parametrize("workload", ["approx-spread", "audit-desk"])
def test_traced_self_times_do_not_exceed_the_op_time(workload):
    wl = WORKLOADS[workload](5, True)
    tracer = Tracer()
    wl.import_program()
    tracer.install()
    try:
        wl.setup(tracer)
    finally:
        tracer.uninstall()
    tally, traced = Tally(), Tally()
    wl.timed_loop(0.3, tally, tracer, traced)
    assert traced.ops >= 1 and traced.failed == 0
    ops = per_op_self(tracer.spans)
    assert len(ops) == traced.ops
    for op_time, by_name in ops.values():
        assert op_time > 0
        assert all(0 <= t <= op_time for t in by_name.values()), by_name
        assert sum(by_name.values()) == pytest.approx(op_time, rel=1e-6, abs=1e-9)
    assert any(name != "op" for _, by_name in ops.values() for name in by_name)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "approx-spread", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
