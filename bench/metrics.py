"""Names and units of the benchmark's metrics, and the per-layer metrics computed from a trace.

End-to-end metrics come from the untraced run (``--trace 0``); per-layer
metrics from the traced run (``--trace 1``). Both lists match
``BENCHMARK.json`` at the repository root. A per-layer metric of a layer the
workload bypasses reads 0.
"""

from __future__ import annotations

import math
import statistics

from tracer import aggregate

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "bits_per_op": "bits",
    "abs_err_mean": "counts",
    "peak_rss_mb": "MB",
}

CATEGORIES = ("shift", "gaussian", "laplace", "binomial", "subset", "tail")
SAMPLERS = ("discrete_gaussian", "discrete_laplace", "laplace_tail_sample")

PER_LAYER = {
    **{f"bit_tape.bits.{c}": "bits" for c in CATEGORIES},
    "bit_tape.next_bit_ns": "ns",
    "bit_tape.next_bits_ns_per_bit": "ns",
    "bit_tape.new_tape_us": "us",
    "precise_math.exp_neg.calls": "count",
    "precise_math.exp_neg.self_ms": "ms",
    "precise_math.exp_neg.setup_calls": "count",
    "precise_math.exp_neg.setup_self_ms": "ms",
    "precise_math.binom_prob_enclose.calls": "count",
    "precise_math.binom_prob_enclose.self_ms": "ms",
    **{
        f"core_samplers.{s}.{k}": u
        for s in SAMPLERS
        for k, u in (("calls_per_op", "count"), ("us_per_call", "us"), ("bits_per_call", "bits"))
    },
    "core_samplers.truncation_accept_ratio": "ratio",
    "entropy_sampler.tail_set.cold_ms": "ms",
    "entropy_sampler.tail_set.warm_us": "us",
    "entropy_sampler.tail_set.binom_enclosures": "count",
    "entropy_sampler.tail_set.bits_minus_entropy": "bits",
    "approx_mech.derive_ms": "ms",
    "approx_mech.release.self_ms": "ms",
    "approx_mech.boundary_frac": "ratio",
    "approx_mech.us_per_boundary": "us",
    "approx_mech.bits_per_boundary": "bits",
    "pure_mech.derive_ms": "ms",
    "pure_mech.release.self_ms": "ms",
    "pure_mech.boundary_frac": "ratio",
    "pure_mech.tail_count": "count",
    "pure_mech.bits_per_boundary": "bits",
    "audit_harness.import_ms": "ms",
    "audit_harness.oracle_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_dataset_ms": "ms",
    "cli.ingest_mcells_per_s": "Mcells/s",
    "cli.json_ms": "ms",
    "cli.process_other_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def binomial_entropy_bits(d: int, p: float) -> float:
    """Shannon entropy of Bin(d, p) in bits."""
    h = 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    for i in range(d + 1):
        log_pmf = math.lgamma(d + 1) - math.lgamma(i + 1) - math.lgamma(d - i + 1)
        log_pmf += i * log_p + (d - i) * log_q
        if log_pmf > -745:
            h -= math.exp(log_pmf) * log_pmf
    return h / math.log(2)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace) -> dict[str, float]:
    """Per-layer metrics from a finished traced run.

    ``trace`` carries: ``spans``; ``tally`` (sums over the traced ops);
    ``cold_ops`` (op ids whose tail-set draw is the first on fresh
    parameters); ``mechanism`` ("approx" or "pure"); ``entropy`` (H of the
    tail-set size law, or None); ``traced_s`` and ``untraced_s`` (op
    latencies); and ``extra`` (metrics measured outside the spans).
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    tally = trace.tally
    n = tally.ops
    # Per span name: [calls, total s, self s, bits]; a missing name reads as zeros.
    ops = aggregate(trace.spans, lambda op: op >= 0)
    setup = aggregate(trace.spans, lambda op: op < 0)
    cold = aggregate(trace.spans, lambda op: op in trace.cold_ops)
    warm = aggregate(trace.spans, lambda op: op >= 0 and op not in trace.cold_ops)
    every = aggregate(trace.spans, lambda op: True)

    for c in CATEGORIES:
        out[f"bit_tape.bits.{c}"] = _ratio(tally.draw_log[c], n)
    for name in ("precise_math.exp_neg", "precise_math.binom_prob_enclose"):
        out[f"{name}.calls"] = _ratio(ops[name][0], n)
        out[f"{name}.self_ms"] = _ratio(ops[name][2] * 1e3, n)
    out["precise_math.exp_neg.setup_calls"] = setup["precise_math.exp_neg"][0]
    out["precise_math.exp_neg.setup_self_ms"] = setup["precise_math.exp_neg"][2] * 1e3
    for s in SAMPLERS:
        calls, total, _, bits = ops[f"core_samplers.{s}"]
        out[f"core_samplers.{s}.calls_per_op"] = _ratio(calls, n)
        out[f"core_samplers.{s}.us_per_call"] = _ratio(total * 1e6, calls)
        out[f"core_samplers.{s}.bits_per_call"] = _ratio(bits, calls)
    out["core_samplers.truncation_accept_ratio"] = _ratio(tally.draws, tally.attempts)

    cold_calls, cold_total = cold["entropy_sampler.tail_set"][:2]
    warm_calls, warm_total = warm["entropy_sampler.tail_set"][:2]
    out["entropy_sampler.tail_set.cold_ms"] = _ratio(cold_total * 1e3, cold_calls)
    out["entropy_sampler.tail_set.warm_us"] = _ratio(warm_total * 1e6, warm_calls)
    out["entropy_sampler.tail_set.binom_enclosures"] = _ratio(
        cold["precise_math.binom_prob_enclose"][0], cold_calls
    )
    if trace.entropy is not None:
        out["entropy_sampler.tail_set.bits_minus_entropy"] = out["bit_tape.bits.binomial"] - trace.entropy

    mech = trace.mechanism
    derive_calls, derive_total = every[f"{mech}_mech.derive"][:2]
    out[f"{mech}_mech.derive_ms"] = _ratio(derive_total * 1e3, derive_calls)
    out[f"{mech}_mech.release.self_ms"] = _ratio(ops[f"{mech}_mech.release"][2] * 1e3, n)
    out[f"{mech}_mech.boundary_frac"] = _ratio(tally.boundary, tally.coords)
    noise = "gaussian" if mech == "approx" else "laplace"
    out[f"{mech}_mech.bits_per_boundary"] = _ratio(tally.draw_log[noise], tally.boundary)
    if mech == "approx":
        gauss_total = ops["core_samplers.discrete_gaussian"][1]
        out["approx_mech.us_per_boundary"] = _ratio(gauss_total * 1e6, tally.boundary)
    else:
        out["pure_mech.tail_count"] = _ratio(tally.tail, n)
    oracle_calls, oracle_total = every["audit_harness.oracle"][:2]
    out["audit_harness.oracle_ms"] = _ratio(oracle_total * 1e3, oracle_calls)

    if trace.traced_s and trace.untraced_s:
        out["trace.overhead_frac"] = (
            statistics.median(trace.traced_s) / statistics.median(trace.untraced_s) - 1
        )
    out.update(trace.extra)
    return out
