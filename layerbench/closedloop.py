"""One closed-loop pass over an in-process workload, and the gates on it.

A pass is: set-ups (construct the session and get the first answer, timed
as ``setup_s``), an untimed warm-up, then the measured phase, in which one
caller sends the next operation as soon as the previous one returned, and
the rest of the set-ups.
Every pass starts from fresh inputs and runs the same operation sequence,
so answers and deterministic counters must agree operation by operation
between passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import time
from dataclasses import dataclass, field

from common import GateError, peak_rss_mib
from oracle import check_answer


@dataclass
class PassResult:
    setup_seconds: list[float]
    first_records: list  # the first answer of every set-up attempt
    records: dict[int, object]  # index -> Record, every operation of the pass
    measured: list  # Records of the complete measured epochs, in order
    executed: int  # measured-phase operations run, repeats included
    peak_rss_mib: float
    failed: int
    errors: list[str]  # the first few failures, for the report
    answers: dict[int, object] = field(default_factory=dict)  # index -> Response (oracle sample)


def _span(tracer, name, request):
    return tracer.root(name, request) if tracer is not None else contextlib.nullcontext()


def planned_epochs(shape: dict, seconds: float, repeats: int) -> int:
    """Epochs a pass of ``seconds`` runs: what fits at the workload's fixed
    nominal rate, so every commit measured does the same work."""
    return max(1, round(seconds / repeats * shape["nominal_ops_per_s"] / shape["epoch"]))


def run_pass(workload, epochs: int, *, setups: int = 1, tracer=None, keep: int = 0,
             repeats: int = 1) -> PassResult:
    """Run one pass; keep the full responses of the first ``keep`` operations.

    The measured phase is ``epochs`` epochs of ``shape["epoch"]``
    operations, each on a freshly opened session (opened untimed).  The
    package's cross-query caches grow with every query a session answers,
    so one long-lived session would make later operations cheaper the
    faster the machine ran the earlier ones; epochs keep every run at the
    same mix of cold and warm operations whatever its speed.

    The epochs run ``repeats`` times, each time on fresh sessions, so each
    repeat of an operation does the same work (``fastest_repeat`` checks
    that the answers and counters agree).  An operation's latency is its
    fastest repeat: other tenants of a shared host only ever add time, in
    spells that mostly last seconds, and the fastest of repeats that lie
    seconds apart drops most of it, while any cost the program itself adds
    is in every repeat.
    """
    warmup = workload.shape["warmup"]
    epoch = workload.shape["epoch"]
    answers = {}
    setup_seconds = []
    first_records = []

    def set_up(attempt: int):
        """Open a session and answer the first operation, timed as one set-up."""
        inputs = workload.fresh_inputs()
        gc.collect()
        with _span(tracer, "bench.setup", f"setup-{attempt}"):
            started = time.perf_counter()
            handle = workload.open(inputs)
            record, response = workload.execute(handle, 0)
            setup_seconds.append(time.perf_counter() - started)
        first_records.append(record)
        return handle, response

    # Half the set-ups run before the measured phase and half after it, so
    # their median does not rest on one moment of the host.
    handle = None
    for attempt in range(setups - setups // 2):
        if handle is not None:
            workload.close(handle)
        handle, response = set_up(attempt)
    if keep:
        answers[0] = response
    records = {0: first_records[-1]}
    for index in range(1, warmup + 1):
        with _span(tracer, "bench.warmup", index):
            record, response = workload.execute(handle, index)
        records[index] = record
        if index < keep:
            answers[index] = response
    workload.close(handle)
    runs: dict[int, list] = {}  # index -> its Record in every repeat that answered
    counts = {"executed": 0, "failed": 0}
    errors = []

    def run_epoch(start: int, stop: int, repeat: int) -> None:
        """Operations ``start..stop`` on a fresh session."""
        # Every epoch starts from a collected heap, so the collector runs at
        # the same operations in every repeat and its pauses count alike.
        gc.collect()
        handle = workload.open(workload.fresh_inputs())
        try:
            for position in range(start, stop):
                counts["executed"] += 1
                request = position if repeats == 1 else f"{position}.{repeat}"
                try:
                    with _span(tracer, "bench.op", request):
                        record, _response = workload.execute(handle, position)
                except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
                    counts["failed"] += 1
                    if len(errors) < 3:
                        errors.append(f"operation {position}: {type(error).__name__}: {error}")
                else:
                    runs.setdefault(position, []).append(record)
        finally:
            workload.close(handle)

    # Each repeat runs all the epochs before the next repeat starts, so an
    # operation's repeats lie a share of the run apart and a slow spell of
    # the host rarely covers all of them.
    first = warmup + 1
    ranges = [(start, min(start + epoch, len(workload.ops)))
              for start in range(first, first + epochs * epoch, epoch) if start < len(workload.ops)]
    for repeat in range(repeats):
        for start, stop in ranges:
            run_epoch(start, stop, repeat)
    for attempt in range(setups - setups // 2, setups):
        workload.close(set_up(attempt)[0])
    measured = []
    for start, stop in ranges:
        for position in range(start, stop):
            if position in runs:
                records[position] = fastest_repeat(position, runs[position])
                measured.append(records[position])
    executed, failed = counts["executed"], counts["failed"]
    rss = peak_rss_mib()
    return PassResult(setup_seconds, first_records, records, measured, executed, rss, failed,
                      errors, answers)


def fastest_repeat(index: int, repeats: list):
    """The first repeat's record with the fastest repeat's latency; every
    repeat must have answered identically with identical counters."""
    first = repeats[0]
    for other in repeats[1:]:
        if other.signature != first.signature or other.counters != first.counters:
            raise GateError(f"operation {index} answered differently between repeats")
    return dataclasses.replace(first, latency=min(record.latency for record in repeats))


def same_records(label: str, expected: dict, actual: dict, indices) -> int:
    """Require identical answers and counters at ``indices``; return how many."""
    compared = 0
    for index in indices:
        if index not in expected or index not in actual:
            continue
        want, got = expected[index], actual[index]
        if want.signature != got.signature:
            raise GateError(f"{label}: operation {index} answered differently between passes")
        if want.counters != got.counters:
            raise GateError(
                f"{label}: operation {index} counters differ between passes: "
                f"{want.counters} != {got.counters}"
            )
        compared += 1
    return compared


def check_setups(result: PassResult) -> None:
    first = result.first_records[0]
    for record in result.first_records[1:]:
        if record.signature != first.signature or record.counters != first.counters:
            raise GateError("the first answer differs between set-up attempts")


def replay_gate(workload, result: PassResult) -> int:
    """Re-run the set-up session's operations and the first operations of
    the first epoch, each from fresh inputs; compare with the pass."""
    first_epoch = workload.shape["warmup"] + 1
    compared = 0
    for indices in (range(first_epoch), range(first_epoch, first_epoch + workload.shape["replay"])):
        indices = [index for index in indices if index < len(workload.ops)]
        handle = workload.open(workload.fresh_inputs())
        replayed = {}
        try:
            for index in indices:
                replayed[index], _response = workload.execute(handle, index)
        finally:
            workload.close(handle)
        compared += same_records("replay", result.records, replayed, indices)
    return compared


def oracle_gate(workload, answers: dict) -> int:
    cases = workload.oracle_cases(workload.shape["oracle"])
    for index, graph, facilities in cases:
        if index not in answers:
            raise GateError(f"oracle sample operation {index} has no recorded answer")
        check_answer(graph, facilities, workload.ops[index].payload, answers[index].result)
    return len(cases)
