"""The serving process of ``serve_mixed``: a ServeApp behind an HttpServer.

Started by ``serve_load.py`` as its own process and driven over its
standard input, one command per line::

    python3 layerbench/serve_server.py <seed> <scale> <trace 0|1>

It builds the workload's inputs (untimed), then stamps the clock,
constructs ``Session`` + ``ServeApp`` + ``HttpServer`` and prints
``{"port": ..., "t0": ...}``.  The client sends its requests and answers
``next`` (tear down and construct a fresh one, as above) or ``stop``.  On
``stop`` the process prints its peak RSS and, when traced, the per-layer
summary of its spans.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

from common import OUT_DIR, import_repro, peak_rss_mib, percentile


def serve_layers(tracer) -> dict:
    """Per-layer metrics over the measured requests (ids starting ``o-``:
    the open-loop phase), plus each one's dispatch time for the client."""
    from layers import VERB_SPANS, counter_metrics, span_metrics
    from tracing import check_spans, self_times

    spans = tracer.spans
    own = self_times(spans)
    measured = {s.request for s in spans
                if s.name == "serve.dispatch" and str(s.request).startswith("o-")}
    verbs = {s.parent: s for s in spans
             if s.name in VERB_SPANS and s.up is not None and s.up.name == "serve.dispatch"}
    queries = [s for s in spans if s.name == "api.Session.query" and s.request in measured
               and s.attrs is not None]
    dispatch, dispatch_self, queue_wait = {}, [], []
    for span in spans:
        if span.name != "serve.dispatch" or span.request not in measured:
            continue
        dispatch[span.request] = span.duration
        verb = verbs.get(span.id)
        if verb is not None:
            queue_wait.append(verb.start - span.start)
            if verb.name == "api.Session.query":
                dispatch_self.append(own[span.id])
    layers = span_metrics(tracer, measured, len(queries))
    layers.update(counter_metrics([s.attrs for s in queries]))
    layers.update({
        "serve.dispatch_self_ms": sum(dispatch_self) * 1e3 / max(len(dispatch_self), 1),
        "serve.queue_wait_p50_ms": percentile(queue_wait, 50) * 1e3,
        "serve.queue_wait_p99_ms": percentile(queue_wait, 99) * 1e3,
    })
    return {"layers": layers, "dispatch": dispatch, "span_check": check_spans(spans),
            "absent": tracer.absent}


async def serve(graph, pristine) -> float:
    from repro.api import Session
    from repro.network.facilities import FacilitySet
    from repro.serve import HttpServer, ServeApp

    loop = asyncio.get_running_loop()
    command = "next"
    while command == "next":
        facilities = FacilitySet(graph, pristine)
        t0 = time.monotonic()
        app = ServeApp(Session(graph, facilities))
        server = HttpServer(app)
        await server.start()
        print(json.dumps({"port": server.port, "t0": t0}), flush=True)
        command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if command != "next":
            rss = peak_rss_mib()
        await server.aclose()
        await app.aclose()
    return rss


def main() -> int:
    seed, scale, trace = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    import_repro()
    from layers import TARGETS
    from tracing import Tracer
    from workloads import SHAPES, make_dataset

    workload = make_dataset(SHAPES[scale]["serve_mixed"])
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(TARGETS)
        tracer.install_context_propagation()
    rss = asyncio.run(serve(workload.graph, list(workload.facilities)))
    result = {"peak_rss_mib": rss}
    if tracer is not None:
        tracer.uninstall()
        result.update(serve_layers(tracer))
        tracer.write(OUT_DIR / f"spans-serve_mixed-seed{seed}.jsonl",
                     {"workload": "serve_mixed", "seed": seed})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
