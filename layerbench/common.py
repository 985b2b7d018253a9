"""Shared helpers: locating the checkout, statistics, digests and output.

The benchmark lives in its own directory at the root of a checkout and
measures the package under ``src/`` of that same checkout.  It never
imports the package's own bench harnesses and never sets the fast-path
environment toggles, so the path it measures is whatever the public API
runs at the default :class:`~repro.api.ExecutionPolicy`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


class GateError(Exception):
    """A correctness or self-check gate failed; the run must exit non-zero."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {SRC}")
    return repro


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def load_benchmark_json() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def peak_rss_mib() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Digests (input fingerprints and answer/counter signatures)
# --------------------------------------------------------------------- #
class Digest:
    """An incremental SHA-256 over ``repr`` of the fed values (floats exact)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def feed(self, value) -> None:
        self._hash.update(repr(value).encode("utf-8"))
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:24]


def digest_graph(graph) -> str:
    digest = Digest()
    digest.feed((graph.num_nodes, graph.num_edges, graph.num_cost_types))
    for edge in sorted(graph.edges(), key=lambda e: e.edge_id):
        digest.feed((edge.edge_id, edge.u, edge.v, tuple(edge.costs), edge.length))
    return digest.hexdigest()


def digest_facilities(facilities) -> str:
    digest = Digest()
    for facility in sorted(facilities, key=lambda f: f.facility_id):
        digest.feed((facility.facility_id, facility.edge_id, facility.offset))
    return digest.hexdigest()


def digest_values(values) -> str:
    digest = Digest()
    for value in values:
        digest.feed(value)
    return digest.hexdigest()


def digest_file(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()[:24]


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
