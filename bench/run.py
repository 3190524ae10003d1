#!/usr/bin/env python3
"""frugaldp benchmark: end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

Run from the repository root; frugaldp is imported from ``src`` of this
checkout, not from an installed copy:

    python3 bench/run.py --workload approx-spread --seed 1 --seconds 20 --trace 0

Workloads: ``approx-spread``, ``pure-cli`` and ``audit-desk`` (see
``workloads.py``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run's context (git sha, Python, CPU) and its checks.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import HERE, ROOT, SRC, WORKLOADS


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    parser.add_argument("--spans", help="with --trace 1, also write every span to this file as JSON lines")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frugaldp" / "__init__.py").is_file():
        print(f"error: no frugaldp sources in {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_child:
        print(json.dumps({"setup_s": workload.timed_setup()}))
        return 0

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if args.trace:
            metrics, tallies, info, spans = workload.layers(args.seconds, Path(tmp))
        else:
            metrics, tallies, info = workload.e2e(args.seconds, Path(tmp))
            spans = None
    if args.spans and spans is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, bits in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "bits": bits}) + "\n")

    attempted = sum(t.ops for t in tallies)
    failed = sum(t.failed for t in tallies)
    end_error = info.get("checks", {}).get("error")
    correct = failed == 0 and end_error is None
    units = PER_LAYER if args.trace else END_TO_END
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fail_rate": {"value": failed / max(1, attempted), "unit": "ratio"},
        "errors": [e for t in tallies for e in t.errors][:5],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    if not correct:
        print(f"error: {end_error or info['errors'][0]}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
