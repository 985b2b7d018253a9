#!/usr/bin/env python3
"""Compare two sets of benchmark reports, refusing mismatched inputs.

    python3 layerbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the reports ``run.py`` writes to ``layerbench/_out/``
(``<workload>-seed<n>-trace<t>.json``).  Reports are paired by file name;
a pair whose input fingerprints differ (a changed ``repro.datagen`` makes
new inputs, not a gain) stops the comparison with exit code 3.  For each
workload and metric the medians over the pairs are printed with the
change and, for end-to-end metrics, the bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import load_benchmark_json, median


def load(directory: Path) -> dict[str, dict]:
    return {path.name: json.loads(path.read_text()) for path in sorted(directory.glob("*-seed*-trace*.json"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(arg)) for arg in argv)
    pairs = sorted(set(base) & set(head))
    if not pairs:
        print("no reports with matching names in both directories", file=sys.stderr)
        return 2
    for name in pairs:
        if base[name]["fingerprints"] != head[name]["fingerprints"]:
            print(f"refusing to compare {name}: input fingerprints differ\n"
                  f"  base {base[name]['fingerprints']}\n  head {head[name]['fingerprints']}",
                  file=sys.stderr)
            return 3
    bounds = {m["name"]: m["bound"] for m in load_benchmark_json()["end_to_end"]}
    groups: dict[tuple[str, str], tuple[list, list, str]] = {}
    for name in pairs:
        for metric, entry in base[name]["metrics"].items():
            key = (base[name]["workload"], metric)
            group = groups.setdefault(key, ([], [], entry["unit"]))
            group[0].append(entry["value"])
            group[1].append(head[name]["metrics"][metric]["value"])
    for (workload, metric), (old, new, unit) in sorted(groups.items()):
        before, after = median(old), median(new)
        change = (after / before - 1.0) * 100.0 if before else float("nan")
        bound = bounds.get(metric)
        limit = f"bound {bound * 100:.0f}%" if bound is not None else ""
        print(f"{workload:14s} {metric:34s} {before:12.4f} -> {after:12.4f} {unit:6s} "
              f"{change:+7.1f}% (n={len(old)}) {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
