#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at miniature scale.

    python3 layerbench/smoke.py

Runs each workload of ``BENCHMARK.json`` through ``run.py --scale mini``,
untraced and traced, so the same code paths run, correctness gates
included; checks the last output line against the benchmark's metric
lists; and checks that the oracle rejects a tampered answer.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, GateError, import_repro, load_benchmark_json

SECONDS = "2"


def run_workload(name: str, trace: int, spec: dict) -> None:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "7",
               "--seconds", SECONDS, "--trace", str(trace), "--scale", "mini"]
    output = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    if output.returncode != 0:
        raise SystemExit(f"{name} trace={trace} exited {output.returncode}:\n{output.stderr}")
    result = json.loads(output.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{name} trace={trace}: result keys {sorted(result)}")
    expected = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {metric["name"] for metric in expected}:
        raise SystemExit(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
    for metric in expected:
        if result["metrics"][metric["name"]]["unit"] != metric["unit"]:
            raise SystemExit(f"{name} trace={trace}: unit of {metric['name']}")
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        raise SystemExit(f"{name} trace={trace}: {result}")
    print(f"ok  {name:14s} trace={trace} attempted={result['attempted']}")


def oracle_rejects_tampering() -> None:
    """A wrong answer must fail the gate (so a passing gate means something)."""
    import_repro()
    from oracle import check_answer
    from workloads import SHAPES, PackCold

    workload = PackCold(7, SHAPES["mini"]["pack_cold"])
    _index, graph, facilities = workload.oracle_cases(1)[0]
    session, _monitor = workload.open(None)
    try:
        for op in workload.ops[:2]:
            result = session.query(op.payload).result
            check_answer(graph, facilities, op.payload, result)
            result.facilities.pop()
            try:
                check_answer(graph, facilities, op.payload, result)
            except GateError:
                continue
            raise SystemExit("the oracle accepted a tampered answer")
    finally:
        session.close()
    print("ok  oracle rejects a tampered skyline and top-k answer")


def main() -> int:
    spec = load_benchmark_json()
    oracle_rejects_tampering()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_workload(workload["name"], trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
