"""The ``serve_mixed`` workload: HTTP load against a ServeApp in its own process.

One client process, at most ``nproc`` connections (one per worker
thread).  After the timed set-ups, the load runs in ``rounds`` rounds, each
against a freshly constructed app: an untimed warm-up (the live
subscriptions and a few queries), then two phases:

* an open loop at the fixed nominal rate of ``SHAPES[...]["rate"]``
  requests per second, each request timed from when it was due, so a
  stall also counts against the requests queued behind it;
* a closed-loop capacity phase: every connection sends its next request
  as soon as the previous one returned.

Every round sends the same requests on the same schedule, and a request's
latency is its fastest round (``fastest_latencies``, and by slices for
the capacity phase: ``capacity_throughput``).

Traffic: ``POST /v1/query`` over a Zipf-skewed pool of requests (repeats
are result-memo hits), a writer lane of ``PATCH /v1/facilities`` ticks
(each invalidates the memo and drives the subscriptions' maintenance) and
a ``/v1/metrics`` scrape every second.  The served answers are replayed in
the tier's ``seq`` order against an in-process ``Session`` and must match
bit for bit.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    BenchError,
    GateError,
    child_env,
    digest_facilities,
    digest_graph,
    digest_values,
    median,
    percentile,
)

#: Share of the measured seconds given to the open-loop phase; the rest
#: goes to the capacity phase.
OPEN_LOOP_SHARE = 0.6
#: Longest wait for the server to answer or to report, in seconds.
IO_TIMEOUT_S = 60.0
#: Most capacity operations one round sends; the generated queries and ticks cover them.
MAX_QUERIES = 40_000


def connections() -> int:
    return max(1, len(os.sched_getaffinity(0)))


class HttpClient:
    """A minimal HTTP/1.1 client on one connection.

    It asks for keep-alive and reuses the connection when the server
    allows it; when the server answers ``Connection: close`` it reconnects
    for the next request.  ``connects`` counts TCP connections opened.
    """

    def __init__(self, port: int):
        self._port = port
        self._sock: socket.socket | None = None
        self._buffer = b""
        self.connects = 0

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""

    def _connect(self) -> None:
        self._sock = socket.create_connection(("127.0.0.1", self._port), timeout=IO_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.connects += 1

    def _read_until(self, marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-response")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(marker)
        return head

    def _read_exactly(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-body")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def _read_to_close(self) -> bytes:
        chunks = [self._buffer]
        while True:
            chunk = self._sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        self._buffer = b""
        return b"".join(chunks)

    def request(self, method: str, path: str, payload=None, request_id: str = "") -> tuple[int, object]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n"
            f"X-Request-Id: {request_id}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        reused = self._sock is not None
        try:
            return self._exchange(head + body)
        except (ConnectionError, OSError):
            if not reused:
                raise
            self.close()  # the server dropped an idle kept-alive connection
            return self._exchange(head + body)

    def _exchange(self, data: bytes) -> tuple[int, object]:
        if self._sock is None:
            self._connect()
        self._sock.sendall(data)
        status_line, *header_lines = self._read_until(b"\r\n\r\n").decode("latin-1").split("\r\n")
        status = int(status_line.split()[1])
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "content-length" in headers:
            body = self._read_exactly(int(headers["content-length"]))
        else:
            body = self._read_to_close()
            headers["connection"] = "close"
        if headers.get("connection", "").lower() == "close" or status_line.startswith("HTTP/1.0"):
            self.close()
        return status, json.loads(body) if body else None


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
class ServeInputs:
    """The dataset, the request pool, the tick stream and the subscriptions.

    The pool, the subscriptions, the multiset of requests sent and the
    facility ticks are fixed by the dataset seed: Zipf draws over the
    pool's order (so the first pool requests are the hot ones), one block
    of them per open loop of ``open_seconds``.  The open loop sends one
    block and the capacity phase as many as it gets through; the run's
    seed shuffles every block.  A fresh Zipf sample or tick stream per run
    would change which rare, costly requests and writes the tail
    percentiles see.
    """

    def __init__(self, seed: int, shape: dict, open_seconds: float):
        from repro.datagen import UpdateStreamSpec, make_update_stream
        from repro.monitor.stream import FacilityDelete, FacilityInsert, UpdateTick, tick_to_payload
        from repro.service.requests import SkylineRequest, TopKRequest, request_to_payload
        from workloads import (
            DATASET_SEED,
            distinct_locations,
            epoch_order,
            make_dataset,
            uniform_weights,
        )

        started = time.perf_counter()
        workload = make_dataset(shape)
        self.graph = workload.graph
        self.pristine = list(workload.facilities)
        weights = uniform_weights(shape["cost_types"])
        locations = distinct_locations(self.graph, shape["pool"] + shape["subscriptions"],
                                       DATASET_SEED)
        self.pool = [
            request_to_payload(
                SkylineRequest(location) if i % 2 == 0
                else TopKRequest(location, shape["k"], weights=weights)
            )
            for i, location in enumerate(locations[: shape["pool"]])
        ]
        self.subscriptions = [
            request_to_payload(
                SkylineRequest(location) if i % 2 == 0
                else TopKRequest(location, shape["k"], weights=weights)
            )
            for i, location in enumerate(locations[shape["pool"]:])
        ]
        # What one open loop sends (``open_schedule``), and how many
        # capacity operations the queries and ticks below cover.
        block = max(1, int(open_seconds * shape["rate"]))
        self.open_queries = block
        self.open_ticks = int(open_seconds / shape["write_every_s"])
        zipf = [1.0 / (rank + 1) ** shape["zipf"] for rank in range(len(self.pool))]
        draws = random.Random(DATASET_SEED).choices(
            range(len(self.pool)), weights=zipf, k=shape["warmup"] + block
        )
        self.queries = draws[: shape["warmup"]]
        for round_number in range((block + MAX_QUERIES) // block + 1):
            self.queries += epoch_order(seed, round_number, draws[shape["warmup"]:])
        stream = make_update_stream(self.graph, workload.facilities, UpdateStreamSpec(
            num_ticks=self.open_ticks + MAX_QUERIES // capacity_write_every(shape) + 1,
            updates_per_tick=2, insert_fraction=0.5, delete_fraction=0.5,
            relocate_fraction=0.0, seed=DATASET_SEED,
        ))
        self.ticks = [tick_to_payload(tick) for tick in stream]
        # Insert a facility and delete it again: both maintenance paths run
        # once before the measured phases, and the facility set ends as it was.
        spare = max(f.facility_id for f in self.pristine) + 1_000_000
        self.warmup_ticks = [
            tick_to_payload(UpdateTick((FacilityInsert(spare, self.pristine[0].edge_id, 0.0),))),
            tick_to_payload(UpdateTick((FacilityDelete(spare),))),
        ]
        self.generate_s = time.perf_counter() - started
        self.fingerprints = {
            "graph": digest_graph(self.graph),
            "facilities": digest_facilities(self.pristine),
            "trace": digest_values([self.pool, self.queries, self.ticks, self.subscriptions]),
        }


# --------------------------------------------------------------------- #
# One pass: a server process, its set-ups and rounds of the two load phases
# --------------------------------------------------------------------- #
class Pass:
    """One server process: timed set-ups, then rounds of load.

    Every round runs against a freshly constructed app and sends the same
    operations on the same schedule, so a request's latency can be taken
    as its fastest round (see ``fastest_latencies``).
    """

    def __init__(self, inputs: ServeInputs, shape: dict, seed: int, scale: str, trace: bool):
        self.inputs = inputs
        self.shape = shape
        self.setup_seconds: list[float] = []
        self.setup_answers: list = []
        self.rounds: list[Round] = []
        self.apps = 0  # apps the server has constructed
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._stderr = open(OUT_DIR / f"serve_server-{os.getpid()}.log", "w")
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_server.py"), str(seed), scale,
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            env=child_env(), text=True, cwd=str(BENCH_DIR),
        )

    @property
    def samples(self) -> list[dict]:
        return [sample for load in self.rounds for sample in load.samples]

    def _readline(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=IO_TIMEOUT_S)
            raise BenchError(f"the server exited with code {self.process.returncode}; "
                             f"see {self._stderr.name}")
        return json.loads(line)

    def _command(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def fresh_app(self) -> dict:
        """Have the server construct a fresh app; return its ``port`` and ``t0``."""
        if self.apps:
            self._command("next")
        self.apps += 1
        return self._readline()

    def run_setups(self, setups: int) -> None:
        """Time ``setups`` constructions, each up to its first answer."""
        first = self.inputs.pool[0]
        for _ in range(setups):
            ready = self.fresh_app()
            client = HttpClient(ready["port"])
            status, answer = client.request("POST", "/v1/query", {"request": first},
                                            f"s-{len(self.setup_seconds)}")
            self.setup_seconds.append(time.monotonic() - ready["t0"])
            client.close()
            if status != 200:
                raise GateError(f"set-up query answered {status}: {answer}")
            self.setup_answers.append(strip_timing(answer))
        if any(answer != self.setup_answers[0] for answer in self.setup_answers):
            raise GateError("the first answer differs between set-up attempts")

    def run_rounds(self, rounds: int, seconds: float) -> None:
        """``rounds`` rounds sharing ``seconds`` of load, each on a fresh app."""
        schedule = open_schedule(self.inputs, self.shape, seconds * OPEN_LOOP_SHARE / rounds)
        for _ in range(rounds):
            load = Round(self.inputs, self.shape, self.fresh_app()["port"])
            load.warmup()
            load.open_loop(schedule)
            load.capacity(seconds * (1.0 - OPEN_LOOP_SHARE) / rounds)
            self.rounds.append(load)

    def finish(self) -> dict:
        self._command("stop")
        result = self._readline()
        self.process.wait(timeout=IO_TIMEOUT_S)
        return result

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=IO_TIMEOUT_S)
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                stream.close()
        self._stderr.close()
        if os.path.getsize(self._stderr.name) == 0:
            os.remove(self._stderr.name)


def open_schedule(inputs: ServeInputs, shape: dict, seconds: float) -> list:
    """``(offset, op)`` of the open loop: queries at the nominal rate, writes
    and scrapes at their periods, each op fixed before any is sent."""
    rate = shape["rate"]
    entries = [(i / rate, "query") for i in range(int(seconds * rate))]
    entries += [(t * shape["write_every_s"], "write")
                for t in range(int(seconds / shape["write_every_s"]))]
    entries += [(t * shape["scrape_every_s"], "scrape")
                for t in range(int(seconds / shape["scrape_every_s"]))]
    entries.sort()
    queries = iter(inputs.queries[shape["warmup"]:])
    ticks = iter(inputs.ticks)
    schedule = []
    for offset, kind in entries:
        if kind == "query":
            schedule.append((offset, ("query", inputs.pool[next(queries)])))
        elif kind == "write":
            schedule.append((offset, ("write", next(ticks))))
        else:
            schedule.append((offset, ("scrape", None)))
    return schedule


class Round:
    """One round of load against one freshly constructed app."""

    def __init__(self, inputs: ServeInputs, shape: dict, port: int):
        self.inputs = inputs
        self.shape = shape
        self.port = port
        self.served: list[tuple[str, object, dict]] = []  # (kind, request payload, answer)
        self.samples: list[dict] = []
        self.lock = threading.Lock()
        self.capacity_elapsed = 0.0

    def send(self, client: HttpClient, op, phase: str, number, due: float | None) -> None:
        kind, payload = op
        request_id = f"{phase}-{number}"
        sent = time.perf_counter()
        connects = client.connects
        if kind == "query":
            status, answer = client.request("POST", "/v1/query", {"request": payload}, request_id)
        elif kind == "write":
            status, answer = client.request("PATCH", "/v1/facilities", {"updates": payload},
                                            request_id)
        else:
            status, answer = client.request("GET", "/v1/metrics", None, request_id)
        done = time.perf_counter()
        sample = {
            "phase": phase, "id": request_id, "number": number, "kind": kind, "status": status,
            "due": sent if due is None else due, "sent": sent, "done": done,
            "connects": client.connects - connects,
        }
        with self.lock:
            self.samples.append(sample)
            if kind != "scrape" and status == 200:
                self.served.append((kind, payload, answer))

    def warmup(self) -> None:
        client = HttpClient(self.port)
        try:
            self.send(client, ("query", self.inputs.pool[0]), "w", "first", None)
            for number, request in enumerate(self.inputs.subscriptions):
                status, answer = client.request("POST", "/v1/subscriptions", {"request": request},
                                                f"w-sub-{number}")
                if status != 201:
                    raise GateError(f"subscription answered {status}: {answer}")
                self.served.append(("subscribe", request, answer))
            for number in range(self.shape["warmup"]):
                query = self.inputs.pool[self.inputs.queries[number]]
                self.send(client, ("query", query), "w", number, None)
            # The first ticks build the subscriptions' maintenance state
            # (hundreds of ms); left in the open loop that would stall the
            # requests queued behind it and set the tail by itself.
            for number, tick in enumerate(self.inputs.warmup_ticks):
                self.send(client, ("write", tick), "w", f"tick-{number}", None)
        finally:
            client.close()

    def open_loop(self, schedule: list) -> None:
        """Requests on a fixed schedule; each timed from when it was due."""
        start = time.perf_counter() + 0.05
        cursor = itertools.count()

        def worker():
            client = HttpClient(self.port)
            try:
                while True:
                    number = next(cursor)
                    if number >= len(schedule):
                        return
                    offset, op = schedule[number]
                    due = start + offset
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    self.send(client, op, "o", number, due)
            finally:
                client.close()

        run_threads(worker)

    def capacity(self, seconds: float) -> None:
        """Every connection sends its next request as soon as one returns.

        Operation ``number`` is the same in every round: every ``every``-th
        a facility tick, the rest the query pool's next requests; a scrape
        goes out once per ``scrape_every_s`` besides.
        """
        deadline = time.perf_counter() + seconds
        every = capacity_write_every(self.shape)
        queries = self.shape["warmup"] + self.inputs.open_queries
        ticks = self.inputs.open_ticks
        next_number = [0]
        scrapes = itertools.count()
        next_scrape = [time.perf_counter() + self.shape["scrape_every_s"]]

        def worker():
            client = HttpClient(self.port)
            try:
                while time.perf_counter() < deadline:
                    with self.lock:
                        if next_number[0] >= MAX_QUERIES:
                            return
                        scrape = time.perf_counter() >= next_scrape[0]
                        if scrape:
                            next_scrape[0] += self.shape["scrape_every_s"]
                            number = f"scrape-{next(scrapes)}"
                        else:
                            number = next_number[0]
                            next_number[0] += 1
                    if scrape:
                        op = ("scrape", None)
                    elif number % every == every - 1:
                        op = ("write", self.inputs.ticks[ticks + number // every])
                    else:
                        position = queries + number - number // every
                        op = ("query", self.inputs.pool[self.inputs.queries[position]])
                    self.send(client, op, "c", number, None)
            finally:
                client.close()

        started = time.perf_counter()
        run_threads(worker)
        self.capacity_elapsed = time.perf_counter() - started


def capacity_write_every(shape: dict) -> int:
    """In the capacity phase, every this many operations is a facility tick."""
    return max(1, round(shape["rate"] * shape["write_every_s"]))


def run_threads(worker) -> None:
    errors = []

    def guarded():
        try:
            worker()
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            errors.append(error)

    threads = [threading.Thread(target=guarded) for _ in range(connections())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def strip_timing(payload):
    """Drop wall-clock fields; everything else must match bit for bit."""
    if isinstance(payload, dict):
        return {key: strip_timing(value) for key, value in payload.items()
                if key != "elapsed_seconds"}
    if isinstance(payload, list):
        return [strip_timing(item) for item in payload]
    return payload


# --------------------------------------------------------------------- #
# Gates
# --------------------------------------------------------------------- #
def replay_gate(inputs: ServeInputs, served, limit: int, oracle: int) -> dict:
    """Replay the served operations in ``seq`` order against an in-process
    Session; every payload must be identical.  The first ``oracle``
    queries, all answered before any write, also go to the oracle."""
    from repro.api import Session
    from repro.monitor.stream import tick_from_payload
    from repro.network.facilities import FacilitySet
    from repro.serve.payloads import query_response_to_payload, tick_response_to_payload
    from repro.service.requests import SkylineRequest, request_from_payload
    from oracle import check_answer

    ordered = sorted(served, key=lambda entry: entry[2]["seq"])
    seqs = [entry[2]["seq"] for entry in ordered]
    if seqs != list(range(len(seqs))):
        raise GateError("served seq stamps are not a dense total order")
    facilities = FacilitySet(inputs.graph, inputs.pristine)
    session = Session(inputs.graph, facilities)
    handle = None
    checked = 0
    oracled = 0
    writes_seen = False
    try:
        for kind, payload, answer in ordered[:limit]:
            if kind == "query":
                request = request_from_payload(payload)
                response = session.query(request)
                expected = {"seq": answer["seq"], **query_response_to_payload(response)}
                if oracled < oracle and not writes_seen:
                    check_answer(inputs.graph, FacilitySet(inputs.graph, inputs.pristine),
                                 request, response.result)
                    oracled += 1
            elif kind == "write":
                writes_seen = True
                if handle is None:
                    handle = session.monitor(())
                response = handle.tick(tick_from_payload(payload))
                expected = {"seq": answer["seq"],
                            "invalidated_services": session.invalidate_result_caches(),
                            **tick_response_to_payload(response)}
            else:
                request = request_from_payload(payload)
                sub = session.monitor([request])
                sid = sub.subscription_ids[0]
                signature = sub.service.result_signature(sid)
                facilities_out = [[fid, list(value) if isinstance(value, tuple) else value]
                                  for fid, value in sorted(signature.items())]
                expected = {"seq": answer["seq"], "subscription": sid,
                            "kind": "skyline" if isinstance(request, SkylineRequest) else "topk",
                            "size": len(facilities_out), "result": facilities_out}
            if strip_timing(expected) != strip_timing(answer):
                raise GateError(f"served {kind} at seq {answer['seq']} differs from the "
                                "in-process replay")
            checked += 1
    finally:
        session.close()
    if oracled < oracle:
        raise GateError(f"only {oracled} oracle samples answered before the first write")
    return {"replayed_identical": checked, "oracle_checked": oracled}


# --------------------------------------------------------------------- #
# Running the workload
# --------------------------------------------------------------------- #
def one_pass(inputs, shape, seed, scale, seconds, trace, setups, rounds) -> tuple[Pass, dict]:
    run = Pass(inputs, shape, seed, scale, trace)
    try:
        # Half the set-ups run before the load and half after it, so their
        # median does not rest on one moment of the host.
        run.run_setups(setups - setups // 2)
        run.run_rounds(rounds, seconds)
        run.run_setups(setups // 2)
        report = run.finish()
    finally:
        run.kill()
    return run, report


def pass_gates(inputs: ServeInputs, run: Pass, shape: dict) -> dict:
    """The replay gate on every round; the oracle on the first."""
    gates = {"replayed_identical": 0, "oracle_checked": 0}
    for number, load in enumerate(run.rounds):
        checked = replay_gate(inputs, load.served, shape["replay"],
                              shape["oracle"] if number == 0 else 0)
        for key, value in checked.items():
            gates[key] += value
    return gates


def fastest_latencies(run: Pass) -> list[float]:
    """Each open-loop request's latency in its fastest round.

    Every round sends the same requests on the same schedule to a fresh
    app; other tenants of a shared host only ever add time, in spells of
    a few seconds, so the fastest of rounds seconds apart drops them,
    while a cost the program adds is in every round.
    """
    rounds: dict[int, list[float]] = {}
    for sample in run.samples:
        if sample["phase"] == "o":
            rounds.setdefault(sample["number"], []).append(sample["done"] - sample["due"])
    return [min(latencies) for latencies in rounds.values()]


#: Capacity operations per slice; see ``capacity_throughput``.
SLICE = 100


def capacity_throughput(run: Pass) -> float:
    """Operations per second of the capacity phase, slice by slice.

    Operation ``number`` is the same in every round, so slice ``k``
    (operations ``k*SLICE`` up to the next slice) is the same work in
    every round; its time is its fastest round's, from its first send to
    its last answer.  Slices every round completed count.
    """
    slices = min(
        sum(1 for s in load.samples if s["phase"] == "c" and isinstance(s["number"], int))
        for load in run.rounds
    ) // SLICE
    if slices == 0:  # a miniature run: whole phases
        done = sum(1 for s in run.samples if s["phase"] == "c")
        return done / sum(load.capacity_elapsed for load in run.rounds)
    best = [float("inf")] * slices
    for load in run.rounds:
        spans: dict[int, list[float]] = {}
        for s in load.samples:
            if s["phase"] == "c" and isinstance(s["number"], int) and s["number"] < slices * SLICE:
                span = spans.setdefault(s["number"] // SLICE, [s["sent"], s["done"]])
                span[0] = min(span[0], s["sent"])
                span[1] = max(span[1], s["done"])
        for k, (first, last) in spans.items():
            best[k] = min(best[k], last - first)
    return slices * SLICE / sum(best)


def phase_metrics(run: Pass, report: dict) -> dict:
    """End-to-end metrics, with the open-loop generator's lateness beside them."""
    latencies = fastest_latencies(run)
    lags = [s["sent"] - s["due"] for s in run.samples if s["phase"] == "o"]
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "throughput_ops": capacity_throughput(run),
        "peak_rss_mib": report["peak_rss_mib"],
        "setup_s": median(run.setup_seconds),
        "bench.generator_lag_ms": sum(lags) * 1e3 / max(len(lags), 1),
    }


def failures(run: Pass) -> int:
    return sum(1 for s in run.samples if s["phase"] in ("o", "c") and s["status"] != 200)


def run_serve(seed: int, seconds: float, trace: bool, shape: dict, scale: str = "full") -> dict:
    from run import SETUPS, import_seconds

    rounds = 1 if trace else shape["rounds"]
    per_pass = seconds if not trace else seconds / 2
    inputs = ServeInputs(seed, shape, per_pass * OPEN_LOOP_SHARE / rounds)
    if not trace:
        run, report = one_pass(inputs, shape, seed, scale, seconds, False, SETUPS, rounds)
        gates = pass_gates(inputs, run, shape)
        values = phase_metrics(run, report)
        measured = [s for s in run.samples if s["phase"] in ("o", "c")]
        return {
            "values": values, "attempted": len(measured), "failed": failures(run),
            "samples": len(fastest_latencies(run)), "gates": gates,
            "fingerprints": inputs.fingerprints, "input_seconds": {"generate_s": inputs.generate_s},
        }
    plain, plain_report = one_pass(inputs, shape, seed, scale, per_pass, False, 1, 1)
    traced, traced_report = one_pass(inputs, shape, seed, scale, per_pass, True, 1, 1)
    gates = {"plain": pass_gates(inputs, plain, shape), "traced": pass_gates(inputs, traced, shape)}
    gates["span_check"] = traced_report["span_check"]
    gates["absent_targets"] = traced_report["absent"]
    values = dict(traced_report["layers"])
    dispatch = traced_report["dispatch"]
    samples = [s for s in traced.samples if s["phase"] == "o"]
    queries = [s for s in samples if s["kind"] == "query" and s["id"] in dispatch]
    scrapes = [s["done"] - s["sent"] for s in samples if s["kind"] == "scrape"]
    everything = [s for s in plain.samples + traced.samples if s["phase"] in ("o", "c")]
    rejected = sum(1 for s in everything if s["status"] in (429, 503))
    plain_e2e = phase_metrics(plain, plain_report)
    traced_e2e = phase_metrics(traced, traced_report)
    writes = [(s["done"] - s["due"]) * 1e3 for s in plain.samples
              if s["phase"] == "o" and s["kind"] == "write"]
    values.update({
        "serve.wire_ms": sum(s["done"] - s["sent"] - dispatch[s["id"]] for s in queries)
        * 1e3 / max(len(queries), 1),
        "serve.rejected_ratio": rejected / max(len(everything), 1),
        "serve.connections_per_request": sum(s["connects"] for s in everything) / max(len(everything), 1),
        "serve.metrics_scrape_ms": median(scrapes) * 1e3,
        "bench.generator_lag_ms": traced_e2e["bench.generator_lag_ms"],
        "bench.trace_overhead_pct":
            (traced_e2e["latency_p50_ms"] / plain_e2e["latency_p50_ms"] - 1.0) * 100.0,
        "bench.write_p50_ms": median(writes),
        "bench.failed_ratio": (failures(plain) + failures(traced)) / max(len(everything), 1),
        "process.import_s": import_seconds(),
    })
    return {
        "values": values, "attempted": len(everything),
        "failed": failures(plain) + failures(traced), "samples": len(samples),
        "gates": gates, "fingerprints": inputs.fingerprints,
        "input_seconds": {"generate_s": inputs.generate_s},
    }
