"""The layers the traced run measures, and how their metrics are derived.

Layers are the package's modules.  Each :class:`~tracing.Target` names a
public function or method of one of them; the span names group targets by
layer (``serve.*``, ``api.*``, ``service.*``, ``monitor.*``, ``temporal.*``,
``core.*``, ``network.*``, ``storage.*``).  ``repro.parallel`` is left
unmeasured on purpose: sharding on two cores would measure the scheduler.

``SHOULD_MOVE`` records, before any change is measured, which end-to-end
metric each layer metric should move and on which workload.

Definitions (over the measured operations of the traced pass):

* ``*_self_ms``, ``core.expansion_ms``, ``storage.accessor_ms`` and
  ``storage.page_read_ms``: self time of that layer's spans, in ms per
  measured query, so the layers of one request add up to its wall time;
* ``serve.wire_ms``: client-side request time minus the server's
  ``ServeApp.dispatch`` span, per query; ``serve.queue_wait_*``: from
  dispatch entry to the session verb's entry (p50/p99 over requests);
* ``monitor.tick_ms``: median ``apply_tick`` span; ``temporal.snapshot_build_ms``:
  mean ``session_at`` span that built or rebuilt a snapshot;
* counters (``core.heap_pops``, ``network.logical_requests``,
  ``storage.page_reads``, ...) are per measured query; ratios carry their
  base in the name (hits over lookups, memo answers over queries);
* a layer a workload never enters reads 0, and a wrapped target missing
  from the program is listed under ``absent_targets`` in the report.
"""

from __future__ import annotations

from common import mean, median, ratio
from tracing import Target, totals_by_name


# --------------------------------------------------------------------- #
# Hooks: extra facts read at a span boundary (public attributes only)
# --------------------------------------------------------------------- #
def _request_id(tracer, span, args):
    request = args[1]
    header = getattr(request, "header", None)
    if header is not None:
        span.request = header("x-request-id")


def _query_counters(tracer, span, args):
    def after(response):
        if span.inside("api.Session.query"):
            return  # the temporal tier's inner snapshot query
        statistics = response.result.statistics
        span.attrs = {
            "heap_pops": statistics.heap_pops,
            "dominance_checks": statistics.dominance_checks,
            "logical_requests": response.io.total_requests,
            "page_reads": response.io.page_reads,
            "buffer_hits": response.io.buffer_hits,
            "memo": bool(response.served_from_memo),
        }

    return after


def _capture_service(tracer, span, args):
    tracer.capture("service", args[0])


def _cache_size(service) -> int:
    return service.cache.cached_nodes + service.cache.cached_edges


def _size_before_reset(tracer, span, args):
    span.attrs = {"entries": _cache_size(args[0])}


def _snapshot_lookup(tracer, span, args):
    executor = args[0]
    tracer.capture("temporal", executor)
    statistics = executor.statistics
    made_before = statistics.builds + statistics.rebuilds

    def after(_session):
        span.attrs = {"build": statistics.builds + statistics.rebuilds > made_before}

    return after


def _tick_counters(tracer, span, args):
    def after(report):
        span.attrs = {"recomputations": report.counters.recomputations}

    return after


EXPANSION = "core.expansion"
SEARCH_SPANS = ("core.skyline_search", "core.top_k_search", "core.skyline_run", "core.topk_run")
VERB_SPANS = ("api.Session.query", "api.Session.monitor", "api.MonitorHandle.tick")

TARGETS = (
    Target("repro.serve.app", "ServeApp.dispatch", "serve.dispatch", _request_id),
    Target("repro.api.session", "Session.query", "api.Session.query", _query_counters),
    Target("repro.api.session", "Session.monitor", "api.Session.monitor"),
    Target("repro.api.session", "MonitorHandle.tick", "api.MonitorHandle.tick"),
    Target("repro.service.service", "QueryService.execute", "service.QueryService.execute",
           _capture_service),
    Target("repro.service.service", "QueryService.reset_cache", "service.reset_cache",
           _size_before_reset),
    Target("repro.monitor.service", "MonitoringService.apply_tick", "monitor.apply_tick",
           _tick_counters),
    Target("repro.temporal.executor", "TemporalExecutor.query", "temporal.query"),
    Target("repro.temporal.executor", "TemporalExecutor.session_at", "temporal.session_at",
           _snapshot_lookup),
    Target("repro.core.engine", "MCNQueryEngine.skyline_search", "core.skyline_search"),
    Target("repro.core.engine", "MCNQueryEngine.top_k_search", "core.top_k_search"),
    Target("repro.core.skyline", "MCNSkylineSearch.run", "core.skyline_run"),
    Target("repro.core.topk", "MCNTopKSearch.run", "core.topk_run"),
    # Whichever expansion implementation runs.  Only ``next_facility`` is
    # wrapped: the top-k shrinking stage's single heap pops stay in the
    # search's self time, since a span per heap pop would cost more than
    # the pop.
    Target("repro.core.expansion", "NearestFacilityExpansion.next_facility", EXPANSION),
    Target("repro.core.kernel", "ExpansionKernel.next_facility", EXPANSION),
    Target("repro.core.vector", "VectorExpansionKernel.next_facility", EXPANSION),
    Target("repro.network.compiled", "CompiledGraph.from_accessor", "network.compile"),
    Target("repro.storage.catalog", "open_dataset", "storage.open_dataset"),
    Target("repro.storage.persist", "FileDisk.read", "storage.page_read"),
    Target("repro.storage.catalog", "PackedNetworkStorage.adjacency", "storage.accessor"),
    Target("repro.storage.catalog", "PackedNetworkStorage.edge_facilities", "storage.accessor"),
    Target("repro.storage.catalog", "PackedNetworkStorage.facility_edge", "storage.accessor"),
)

#: layer metric -> (end-to-end metric it should move, workload it should move it on)
SHOULD_MOVE = {
    "serve.wire_ms": ("latency_p50_ms, throughput_ops", "serve_mixed"),
    "serve.dispatch_self_ms": ("latency_p50_ms", "serve_mixed"),
    "serve.queue_wait_p50_ms": ("latency_p95_ms", "serve_mixed"),
    "serve.queue_wait_p99_ms": ("latency_p95_ms", "serve_mixed"),
    "serve.rejected_ratio": ("failed (attempted/failed counts)", "serve_mixed"),
    "serve.connections_per_request": ("throughput_ops", "serve_mixed"),
    "serve.metrics_scrape_ms": ("latency_p95_ms", "serve_mixed"),
    "process.import_s": ("setup_s", "serve_mixed"),
    "api.session_self_ms": ("latency_p50_ms (small)", "all"),
    "service.memo_hit_ratio": ("latency_p50_ms; 0 on pack_cold", "serve_mixed"),
    "service.cache_hit_ratio": ("latency_p50_ms, peak_rss_mib", "serve_mixed"),
    "service.cache_entries": ("latency_p50_ms, peak_rss_mib", "serve_mixed"),
    "service.execute_self_ms": ("latency_p50_ms", "serve_mixed"),
    "monitor.tick_ms": ("bench.write_p50_ms", "serve_mixed, temporal_rush"),
    "monitor.recomputations_per_tick": ("bench.write_p50_ms", "serve_mixed, temporal_rush"),
    "temporal.snapshot_build_ms": ("latency_p95_ms, latency_p50_ms", "temporal_rush"),
    "temporal.snapshot_hit_ratio": ("latency_p95_ms, latency_p50_ms", "temporal_rush"),
    "temporal.rebuilds": ("latency_p95_ms, latency_p50_ms", "temporal_rush"),
    "core.search_self_ms": ("latency_p50_ms", "pack_cold, temporal_rush"),
    "core.expansion_ms": ("latency_p50_ms, throughput_ops", "pack_cold, temporal_rush"),
    "core.heap_pops": ("none: a count, moves only with the algorithm", "all"),
    "core.dominance_checks": ("none: a count, moves only with the algorithm", "all"),
    "network.compile_s": ("setup_s", "pack_cold"),
    "network.logical_requests": ("latency_p50_ms", "pack_cold"),
    "storage.pack_open_s": ("setup_s", "pack_cold"),
    "storage.page_reads": ("latency_p50_ms", "pack_cold"),
    "storage.buffer_hit_ratio": ("latency_p50_ms", "pack_cold"),
    "storage.page_read_ms": ("latency_p50_ms", "pack_cold"),
    "storage.accessor_ms": ("latency_p50_ms", "pack_cold"),
    "storage.pack_build_s": ("none: benchmark input, work moved into the build shows here", "pack_cold"),
}


# --------------------------------------------------------------------- #
# Derivations
# --------------------------------------------------------------------- #
def cache_metrics(tracer) -> dict[str, float]:
    """Cross-query cache hit ratio over every service the run used, and the
    largest size one cache reached before it was reset or the run ended."""
    hits = misses = 0
    sizes = [s.attrs["entries"] for s in tracer.spans if s.name == "service.reset_cache"]
    for service in tracer.instances.get("service", {}).values():
        counters = vars(service.cache_statistics)
        hits += sum(value for key, value in counters.items() if key.endswith("_hits"))
        misses += sum(value for key, value in counters.items() if key.endswith("_misses"))
        sizes.append(_cache_size(service))
    return {"service.cache_hit_ratio": ratio(hits, hits + misses),
            "service.cache_entries": max(sizes, default=0)}


def temporal_metrics(tracer, spans) -> dict[str, float]:
    builds = hits = rebuilds = 0
    for executor in tracer.instances.get("temporal", {}).values():
        statistics = executor.statistics
        builds += statistics.builds
        hits += statistics.hits
        rebuilds += statistics.rebuilds
    build_ms = [s.duration * 1e3 for s in spans
                if s.name == "temporal.session_at" and s.attrs and s.attrs["build"]]
    return {
        "temporal.snapshot_build_ms": mean(build_ms),
        "temporal.snapshot_hit_ratio": ratio(hits, hits + builds),
        "temporal.rebuilds": rebuilds,
    }


def span_metrics(tracer, measured: set, ops: int) -> dict[str, float]:
    """Per-operation layer times (ms per measured operation) and set-up spans.

    ``measured`` holds the request ids of the measured operations; set-up
    spans (pack open, compile) are taken over the whole traced pass.
    """
    spans = tracer.spans
    totals = totals_by_name(spans, measured)

    def per_op(names, field):
        if isinstance(names, str):
            names = (names,)
        return sum(totals.get(name, {}).get(field, 0.0) for name in names) * 1e3 / max(ops, 1)

    ticks = [s for s in spans if s.name == "monitor.apply_tick" and s.request in measured]
    metrics = {
        "api.session_self_ms": per_op("api.Session.query", "self"),
        "service.execute_self_ms": per_op("service.QueryService.execute", "self"),
        "core.search_self_ms": per_op(SEARCH_SPANS, "self"),
        "core.expansion_ms": per_op(EXPANSION, "self"),
        "storage.page_read_ms": per_op("storage.page_read", "total"),
        "storage.accessor_ms": per_op("storage.accessor", "self"),
        "monitor.tick_ms": median([s.duration * 1e3 for s in ticks]),
        "monitor.recomputations_per_tick": mean([s.attrs["recomputations"] for s in ticks if s.attrs]),
        "network.compile_s": sum(s.duration for s in spans if s.name == "network.compile"),
        "storage.pack_open_s": median([s.duration for s in spans if s.name == "storage.open_dataset"]),
    }
    metrics.update(cache_metrics(tracer))
    metrics.update(temporal_metrics(tracer, spans))
    return metrics


def counter_metrics(queries) -> dict[str, float]:
    """Deterministic counters per measured query, from their counter dicts."""
    n = max(len(queries), 1)
    page_reads = sum(q["page_reads"] for q in queries)
    buffer_hits = sum(q["buffer_hits"] for q in queries)
    return {
        "core.heap_pops": sum(q["heap_pops"] for q in queries) / n,
        "core.dominance_checks": sum(q["dominance_checks"] for q in queries) / n,
        "network.logical_requests": sum(q["logical_requests"] for q in queries) / n,
        "storage.page_reads": page_reads / n,
        "storage.buffer_hit_ratio": ratio(buffer_hits, buffer_hits + page_reads),
        "service.memo_hit_ratio": sum(1 for q in queries if q["memo"]) / n,
    }
