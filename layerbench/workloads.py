"""The in-process workloads: generated inputs, operations and oracles.

Each workload's dataset (network, facilities, pack) and its population of
requests are generated from a fixed dataset seed; ``--seed`` draws the
traffic over them: the order requests arrive in and, for
``temporal_rush``, the update ticks (``serve_mixed`` keeps its ticks
fixed too; see ``serve_load.ServeInputs``).  Per-request cost is
heavy-tailed (a few locations need much deeper expansions), so a fresh
sample of locations per run would move the tail percentiles by more than
a regression worth catching; with a fixed population, spreads between
runs reflect the program and the machine.  The program receives only
the generated inputs.

The measured phase runs in epochs of ``epoch`` operations, each on a
fresh session (see ``closedloop.run_pass``); one epoch sends every
request of the population exactly once, so within a session every query
location is distinct.  A run's number of epochs is fixed by ``--seconds``
and the workload's constant ``nominal_ops_per_s``, never by how fast the
commit under test runs, so every commit does the same work; the epochs
run ``repeats`` times.

Every workload runs at the default :class:`~repro.api.ExecutionPolicy`;
``temporal_rush`` only switches on the temporal tier it exists to measure.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass

from common import (
    OUT_DIR,
    digest_facilities,
    digest_file,
    digest_graph,
    digest_values,
    write_json,
)

#: Seed of every workload's dataset; ``--seed`` only drives the traffic.
DATASET_SEED = 2010

#: Workload shapes.  ``full`` is what the benchmark measures; ``mini`` is
#: the smoke test's miniature of the same code path.
SHAPES = {
    "full": {
        "pack_cold": {"grid": 256, "facilities": 4096, "cost_types": 3, "k": 4,
                      "ops": 1600, "warmup": 8, "epoch": 100, "nominal_ops_per_s": 60,
                      "repeats": 4, "oracle": 5, "replay": 24},
        "temporal_rush": {"nodes": 3000, "facilities": 300, "cost_types": 3, "k": 4,
                          "ops": 1600, "warmup": 8, "epoch": 100, "nominal_ops_per_s": 60,
                          "repeats": 4, "oracle": 3, "replay": 40,
                          "tick_every": 25, "updates_per_tick": 2, "subscriptions": 2},
        "serve_mixed": {"nodes": 3000, "facilities": 300, "cost_types": 3, "k": 4,
                        "pool": 400, "zipf": 1.5, "write_every_s": 0.5,
                        "subscriptions": 8, "scrape_every_s": 1.0,
                        "rate": 100.0, "warmup": 40, "rounds": 5, "oracle": 3,
                        "replay": 300},
    },
    "mini": {
        "pack_cold": {"grid": 24, "facilities": 60, "cost_types": 3, "k": 4,
                      "ops": 400, "warmup": 4, "epoch": 50, "nominal_ops_per_s": 100,
                      "repeats": 2, "oracle": 5, "replay": 8},
        "temporal_rush": {"nodes": 300, "facilities": 30, "cost_types": 3, "k": 4,
                          "ops": 400, "warmup": 4, "epoch": 50, "nominal_ops_per_s": 100,
                          "repeats": 2, "oracle": 3, "replay": 12,
                          "tick_every": 5, "updates_per_tick": 2, "subscriptions": 2},
        "serve_mixed": {"nodes": 300, "facilities": 30, "cost_types": 3, "k": 4,
                        "pool": 40, "zipf": 1.5, "write_every_s": 0.2,
                        "subscriptions": 2, "scrape_every_s": 0.5,
                        "rate": 50.0, "warmup": 10, "rounds": 2, "oracle": 3,
                        "replay": 200},
    },
}


@dataclass
class Op:
    kind: str  # "query" or "tick"
    payload: object  # a request, or an UpdateTick


@dataclass
class Record:
    """What one executed operation returned: answer signature and counters."""

    index: int
    kind: str
    latency: float
    signature: str
    counters: dict


def uniform_weights(dimensions: int) -> tuple[float, ...]:
    return tuple(round(1.0 / dimensions, 9) for _ in range(dimensions))


def distinct_locations(graph, count: int, seed: int):
    """``count`` distinct query locations drawn uniformly over the edges."""
    from repro.datagen import generate_query_locations

    seen = set()
    locations = []
    draw = 0
    while len(locations) < count:
        for location in generate_query_locations(graph, count, seed=seed * 7919 + draw):
            key = (location.edge_id, location.offset)
            if key not in seen:
                seen.add(key)
                locations.append(location)
        draw += 1
    return locations[:count]


def query_record(index: int, response, latency: float) -> Record:
    from repro.core.results import SkylineResult

    result = response.result
    if isinstance(result, SkylineResult):
        answer = tuple((f.facility_id, f.costs, f.pinned) for f in result)
    else:
        answer = tuple((f.facility_id, f.score) for f in result)
    statistics = result.statistics
    io = response.io
    counters = {
        "heap_pops": statistics.heap_pops,
        "dominance_checks": statistics.dominance_checks,
        "nn_retrievals": statistics.nn_retrievals,
        "logical_requests": io.total_requests,
        "page_reads": io.page_reads,
        "buffer_hits": io.buffer_hits,
        "memo": bool(response.served_from_memo),
    }
    return Record(index, "query", latency, repr(answer), counters)


def tick_record(index: int, response, latency: float) -> Record:
    counters = {
        "recomputations": response.recomputations,
        "incremental_updates": response.incremental_updates,
        "logical_requests": response.io.total_requests,
    }
    return Record(index, "tick", latency, repr((response.index, response.updates, response.deltas)),
                  counters)


def trace_digest(ops) -> str:
    from repro.monitor.stream import tick_to_payload
    from repro.service.requests import request_to_payload

    return digest_values(
        request_to_payload(op.payload) if op.kind == "query" else tick_to_payload(op.payload)
        for op in ops
    )


class InProcessWorkload:
    """A closed-loop workload driven through :class:`~repro.api.Session`."""

    name = ""

    def __init__(self, seed: int, shape: dict):
        self.seed = seed
        self.shape = shape
        self.ops: list[Op] = []
        self.fingerprints: dict[str, str] = {}
        self.input_seconds: dict[str, float] = {}

    def fresh_inputs(self):
        """Per-pass inputs the program may mutate (untimed)."""
        return None

    def open(self, inputs):
        """The first call into the program: ``(session, monitor handle or None)``."""
        raise NotImplementedError

    def execute(self, handle, index: int):
        """Run operation ``index``; return its :class:`Record` and raw response."""
        op = self.ops[index]
        session, monitor = handle
        started = time.perf_counter()
        if op.kind == "query":
            response = session.query(op.payload)
            return query_record(index, response, time.perf_counter() - started), response
        response = monitor.tick(op.payload)
        return tick_record(index, response, time.perf_counter() - started), response

    def close(self, handle) -> None:
        handle[0].close()

    def oracle_cases(self, count: int):
        """``(index, graph, facilities)`` of the sample the oracle re-derives."""
        raise NotImplementedError


def _alternating_requests(locations, k: int, weights):
    """CEA requests alternating skyline/top-k."""
    from repro.service.requests import SkylineRequest, TopKRequest

    return [
        SkylineRequest(location, algorithm="cea") if index % 2 == 0
        else TopKRequest(location, k, weights=weights, algorithm="cea")
        for index, location in enumerate(locations)
    ]


def epoch_order(seed: int, epoch: int, items: list) -> list:
    """The population in the order epoch ``epoch`` of run ``seed`` sends it."""
    order = list(items)
    random.Random(seed * 1_000_003 + epoch).shuffle(order)
    return order


def population_ops(requests: list, seed: int, shape: dict) -> list[Op]:
    """Set-up and warm-up requests, then the rest shuffled once per epoch."""
    head = shape["warmup"] + 1
    if len(requests) != head + shape["epoch"]:
        raise ValueError("the population must be the warm-up plus one epoch of requests")
    ops = [Op("query", request) for request in requests[:head]]
    epoch = 0
    while len(ops) < shape["ops"]:
        ops.extend(Op("query", r) for r in epoch_order(seed, epoch, requests[head:]))
        epoch += 1
    return ops[: shape["ops"]]


class PackCold(InProcessWorkload):
    """A 256x256-grid pack opened standalone: checksum verified on open,
    the default 1% buffer, distinct locations spanning the grid, CEA mix."""

    name = "pack_cold"

    def __init__(self, seed: int, shape: dict):
        super().__init__(seed, shape)
        from repro.datagen.road_network import PackedDatasetSpec, build_packed_dataset
        from repro.storage.catalog import open_dataset

        self.spec = PackedDatasetSpec(
            rows=shape["grid"], cols=shape["grid"], num_cost_types=shape["cost_types"],
            num_facilities=shape["facilities"], seed=DATASET_SEED,
        )
        # The pack is the same input for every run in this checkout: build it
        # once and keep it, with its build time, under the output directory.
        work = OUT_DIR / "work"
        work.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(work)  # the build spools to a temporary file
        key = digest_values([self.spec.to_payload()])
        self.path = str(work / f"pack_cold-{key}.pack")
        built = work / f"pack_cold-{key}.json"
        if not (built.is_file() and os.path.isfile(self.path)):
            started = time.perf_counter()
            build_packed_dataset(self.spec, self.path + ".partial")
            os.replace(self.path + ".partial", self.path)
            write_json(built, {"pack_build_s": time.perf_counter() - started})
        self.input_seconds["pack_build_s"] = json.loads(built.read_text())["pack_build_s"]
        with open_dataset(self.path) as dataset:
            locations = distinct_locations(dataset.graph_view(),
                                           shape["warmup"] + 1 + shape["epoch"], DATASET_SEED)
        weights = uniform_weights(shape["cost_types"])
        requests = _alternating_requests(locations, shape["k"], weights)
        self.ops = population_ops(requests, seed, shape)
        self.fingerprints = {
            "pack": digest_file(self.path),
            "trace": trace_digest(self.ops),
        }

    def open(self, inputs):
        from repro.api import Session

        return Session.from_dataset(self.path), None

    def oracle_cases(self, count: int):
        from repro.datagen.road_network import materialize_packed_dataset

        graph, facilities = materialize_packed_dataset(self.spec)
        return [(index, graph, facilities) for index in range(count)]



class TemporalRush(InProcessWorkload):
    """A rush-hour profile set with ``temporal="profiles"``; departure times
    skewed around the peak over more quanta than the snapshot LRU holds,
    and a facility tick through ``Session.monitor`` every few queries."""

    name = "temporal_rush"

    def __init__(self, seed: int, shape: dict):
        super().__init__(seed, shape)
        from repro.api import ExecutionPolicy
        from repro.datagen import (
            EdgeCostStreamSpec,
            UpdateStreamSpec,
            make_profile_network,
            make_update_stream,
        )
        from repro.service.requests import SkylineRequest, TopKRequest

        started = time.perf_counter()
        workload = make_dataset(shape)
        self.graph = workload.graph
        self.pristine = list(workload.facilities)
        self.stream_spec = EdgeCostStreamSpec(seed=DATASET_SEED)
        self.profiles = make_profile_network(self.graph, self.stream_spec)
        self.policy = ExecutionPolicy(temporal="profiles", profile_source="rush")
        every = shape["tick_every"]
        head = shape["warmup"] + 1
        per_epoch = shape["epoch"] - shape["epoch"] // every
        rng = random.Random(DATASET_SEED)
        locations = distinct_locations(
            self.graph, head + per_epoch + shape["subscriptions"], DATASET_SEED
        )
        weights = uniform_weights(shape["cost_types"])
        self.subscriptions = [
            SkylineRequest(location) if i % 2 == 0
            else TopKRequest(location, shape["k"], weights=weights)
            for i, location in enumerate(locations[head + per_epoch:])
        ]
        peak = self.stream_spec.peak_time
        width = self.stream_spec.peak_width
        requests = []
        for index, location in enumerate(locations[: head + per_epoch]):
            # About two thirds of lookups hit the snapshot LRU: at one half
            # the median falls between the hit and the build populations
            # and swings from run to run.
            departure = min(peak + 2 * width, max(peak - 2 * width, rng.gauss(peak, width / 3)))
            if index % 2 == 0:
                requests.append(SkylineRequest(location, departure_time=departure))
            else:
                requests.append(TopKRequest(location, shape["k"], weights=weights,
                                            departure_time=departure))
        self.ops = [Op("query", request) for request in requests[:head]]
        epoch = 0
        while len(self.ops) < shape["ops"]:
            # Every epoch's session starts from the pristine facility set, so
            # each epoch gets its own tick stream generated against that set.
            ticks = iter(make_update_stream(self.graph, workload.facilities, UpdateStreamSpec(
                num_ticks=shape["epoch"] // every, updates_per_tick=shape["updates_per_tick"],
                insert_fraction=0.5, delete_fraction=0.5, relocate_fraction=0.0,
                seed=seed * 1_000_003 + epoch,
            )))
            queries = iter(epoch_order(seed, epoch, requests[head:]))
            for position in range(shape["epoch"]):
                if position % every == every - 1:
                    self.ops.append(Op("tick", next(ticks)))
                else:
                    self.ops.append(Op("query", next(queries)))
            epoch += 1
        self.ops = self.ops[: shape["ops"]]
        self.input_seconds["generate_s"] = time.perf_counter() - started
        self.fingerprints = {
            "graph": digest_graph(self.graph),
            "facilities": digest_facilities(self.pristine),
            "trace": trace_digest(self.ops),
            "subscriptions": trace_digest([Op("query", r) for r in self.subscriptions]),
        }

    def fresh_inputs(self):
        from repro.network.facilities import FacilitySet

        return FacilitySet(self.graph, self.pristine)

    def open(self, facilities):
        from repro.api import Session

        session = Session(self.graph, facilities, profiles={"rush": self.profiles},
                          policy=self.policy)
        return session, session.monitor(self.subscriptions)

    def oracle_cases(self, count: int):
        from repro.network.facilities import FacilitySet
        from repro.temporal import TemporalExecutor

        quantiser = TemporalExecutor(
            self.graph, FacilitySet(self.graph, self.pristine), self.profiles,
            quantum=self.policy.temporal_quantum, cache_size=1,
        )
        cases = []
        for index, op in enumerate(self.ops):
            if op.kind == "tick":
                break  # later answers depend on the facility updates
            if len(cases) == count:
                break
            snapshot = self.profiles.snapshot(quantiser.quantise(op.payload.departure_time))
            cases.append((index, snapshot, FacilitySet(snapshot, self.pristine)))
        return cases


def make_dataset(shape: dict):
    """The anti-correlated, clustered network and facilities of ``shape``."""
    from repro.datagen import WorkloadSpec, make_workload

    return make_workload(WorkloadSpec(
        num_nodes=shape["nodes"], num_facilities=shape["facilities"],
        num_cost_types=shape["cost_types"], num_clusters=shape.get("clusters", 10),
        num_queries=0, seed=DATASET_SEED,
    ))


IN_PROCESS = {cls.name: cls for cls in (PackCold, TemporalRush)}
