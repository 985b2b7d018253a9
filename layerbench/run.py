#!/usr/bin/env python3
"""Run one workload of the layered benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload pack_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; every
operation runs several times on identically prepared sessions (servers,
for ``serve_mixed``) and counts with its fastest repeat, which drops the
slow spells a shared host adds (see ``closedloop.run_pass``).
``--trace 1`` is the separate traced run: an untraced pass and a traced
pass of half the time each, from the same inputs; it prints the per-layer
metrics, including the tracing overhead between the two passes.  Both
modes check the answers (see ``closedloop.py`` and ``oracle.py``) and exit
non-zero when a check fails.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
report, with the input fingerprints, goes to ``layerbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from common import (
    OUT_DIR,
    BenchError,
    GateError,
    child_env,
    import_repro,
    load_benchmark_json,
    median,
    percentile,
    write_json,
)

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUPS = 12
#: Fresh interpreters started to time ``import repro``.
IMPORT_PROBES = 3


def import_seconds() -> float:
    """Median wall time of ``import repro`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        output = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True, check=True, timeout=60,
        )
        samples.append(float(output.stdout.strip().splitlines()[-1]))
    return median(samples)


def latency_metrics(records) -> dict[str, float]:
    """Percentiles over the measured operations, and the rate one
    closed-loop caller completes them at: operations over their summed
    latencies (the caller sends the next as soon as one returns)."""
    latencies = [record.latency for record in records]
    total = sum(latencies)
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "throughput_ops": len(latencies) / total if total else 0.0,
    }


def run_in_process(name: str, seed: int, seconds: float, trace: bool, shape: dict) -> dict:
    from closedloop import (
        check_setups,
        oracle_gate,
        planned_epochs,
        replay_gate,
        run_pass,
        same_records,
    )
    from layers import TARGETS, counter_metrics, span_metrics
    from tracing import Tracer, check_spans
    from workloads import IN_PROCESS

    workload = IN_PROCESS[name](seed, shape)
    if not trace:
        repeats = shape["repeats"]
        result = run_pass(workload, planned_epochs(shape, seconds, repeats), setups=SETUPS,
                          keep=shape["oracle"], repeats=repeats)
        check_setups(result)
        gates = {
            "replayed_identical": replay_gate(workload, result),
            "oracle_checked": oracle_gate(workload, result.answers),
            "failures": result.errors,
        }
        values = latency_metrics(result.measured)
        values["peak_rss_mib"] = result.peak_rss_mib
        values["setup_s"] = median(result.setup_seconds)
        attempted = result.executed
        failed = result.failed
        samples = len(result.measured)
    else:
        epochs = planned_epochs(shape, seconds / 2, 1)
        plain = run_pass(workload, epochs, keep=shape["oracle"])
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            traced = run_pass(workload, epochs, tracer=tracer)
        finally:
            tracer.uninstall()
        gates = {
            "traced_identical": same_records("traced run", plain.records, traced.records,
                                             sorted(plain.records)),
            "span_check": check_spans(tracer.spans),
            "oracle_checked": oracle_gate(workload, plain.answers),
            "failures": plain.errors + traced.errors,
        }
        measured_ids = {record.index for record in traced.measured}
        values = span_metrics(tracer, measured_ids, len(traced.measured))
        values.update(counter_metrics([r.counters for r in traced.measured if r.kind == "query"]))
        plain_p50 = latency_metrics(plain.measured)["latency_p50_ms"]
        traced_p50 = latency_metrics(traced.measured)["latency_p50_ms"]
        ticks = [r.latency * 1e3 for r in plain.measured if r.kind == "tick"]
        values.update({
            "bench.trace_overhead_pct": (traced_p50 / plain_p50 - 1.0) * 100.0,
            "bench.write_p50_ms": median(ticks),
            "bench.failed_ratio": (plain.failed + traced.failed)
            / max(plain.executed + traced.executed, 1),
            "storage.pack_build_s": workload.input_seconds.get("pack_build_s", 0.0),
            "process.import_s": import_seconds(),
        })
        attempted = plain.executed + traced.executed
        failed = plain.failed + traced.failed
        samples = len(traced.measured)
        gates["absent_targets"] = tracer.absent
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl",
                     {"workload": name, "seed": seed})
    return {
        "values": values, "attempted": attempted, "failed": failed, "samples": samples,
        "gates": gates, "fingerprints": workload.fingerprints,
        "input_seconds": workload.input_seconds,
    }


def select_metrics(spec: dict, values: dict, trace: bool) -> dict:
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if trace:
            value = values.get(name, 0.0)  # a layer this workload does not touch
        else:
            value = values[name]
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "mini"), default="full",
                        help="'mini' is the smoke test's miniature of each workload")
    args = parser.parse_args(argv)
    try:
        spec = load_benchmark_json()
        import_repro()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
    except BenchError as error:
        print(f"layerbench: {error}", file=sys.stderr)
        return 2
    from workloads import SHAPES

    shape = SHAPES[args.scale][args.workload]
    started = time.perf_counter()
    try:
        if args.workload == "serve_mixed":
            from serve_load import run_serve

            outcome = run_serve(args.seed, args.seconds, bool(args.trace), shape, args.scale)
        else:
            outcome = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace), shape)
    except GateError as error:
        print(f"layerbench: correctness gate failed: {error}", file=sys.stderr)
        return 1
    metrics = select_metrics(spec, outcome["values"], bool(args.trace))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "wall_s": time.perf_counter() - started,
        "samples": outcome["samples"], "fingerprints": outcome["fingerprints"],
        "input_seconds": outcome["input_seconds"], "gates": outcome["gates"],
        "all_values": outcome["values"], "metrics": metrics,
    }
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", report)
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:34s} {metric['value']:14.4f} {metric['unit']}")
    print(f"{args.workload:14s} samples={outcome['samples']} gates={json.dumps(outcome['gates'])}")
    print(json.dumps({
        "correct": True, "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
