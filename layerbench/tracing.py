"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` wraps public functions and methods of the package's
modules in place (and restores them afterwards).  Each call becomes a span
with a name, start, end, parent and request id; spans are kept in memory
and written out when the run ends.  Nothing under ``src/`` changes: when a
target no longer exists (a later refactor renamed or removed it), the
layer is reported as absent instead of failing the run.

A layer's self time is its span's duration minus the durations of its
child spans.  :func:`check_spans` verifies that children nest inside their
parents and that the self times of a request's spans add up to its root
span's wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from common import GateError

#: The innermost open :class:`Span` of the current context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("layerbench_span", default=None)

#: Tolerance of the nesting and self-time checks, in seconds.
NEST_TOLERANCE_S = 1e-4
#: At most this many spans are written to the span file of one run.
MAX_WRITTEN_SPANS = 50_000


class Span:
    __slots__ = ("id", "parent", "up", "name", "start", "end", "request", "attrs")

    def __init__(self, span_id, up, name, start, request):
        self.id = span_id
        self.parent = 0 if up is None else up.id
        self.up = up
        self.name = name
        self.start = start
        self.end = start
        self.request = request
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def inside(self, name: str) -> bool:
        """Whether an enclosing span is called ``name``."""
        up = self.up
        while up is not None:
            if up.name == name:
                return True
            up = up.up
        return False

    def to_payload(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "request": self.request,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module`` + dotted ``qualname``."""

    module: str
    qualname: str
    span: str
    hook: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.installed: list[str] = []
        self.absent: list[str] = []
        self.instances: dict[str, dict[int, object]] = {}
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str, request=None) -> tuple[Span, contextvars.Token]:
        parent = _CURRENT.get()
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), parent, name, time.perf_counter(), request)
        return span, _CURRENT.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str, request):
        """A request's root span (the benchmark's own call into the program)."""
        span, token = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span, token)

    def capture(self, role: str, instance) -> None:
        self.instances.setdefault(role, {})[id(instance)] = instance

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #
    def install(self, targets) -> None:
        for target in targets:
            label = f"{target.module}.{target.qualname}"
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(label)
                continue
            owner_path, _, attr = target.qualname.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not hasattr(owner, attr):
                self.absent.append(label)
                continue
            raw = inspect.getattr_static(owner, attr)
            if owner is module:
                self._patch_function(raw, target)
            else:
                self._patch_method(owner, attr, raw, target)
            self.installed.append(label)

    def _patch_function(self, function, target: Target) -> None:
        # Modules that imported the function by name hold their own
        # reference: rebind every one of them.
        wrapped = self._wrap(function, target)
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, attr, function))
                    setattr(module, attr, wrapped)

    def _patch_method(self, owner, attr: str, raw, target: Target) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, target))
        else:
            replacement = self._wrap(raw, target)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install_context_propagation(self) -> None:
        """Carry the current span into executor threads (the serving tier
        runs every session call on one worker thread)."""
        original = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            return original(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        self._restore.append((ThreadPoolExecutor, "submit", original))
        ThreadPoolExecutor.submit = submit

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, function, target: Target):
        tracer = self
        hook = target.hook
        name = target.span
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer._open(name)
                after = hook(tracer, span, args) if hook is not None else None
                try:
                    result = await function(*args, **kwargs)
                    if after is not None:
                        after(result)
                    return result
                finally:
                    tracer._close(span, token)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span, token = tracer._open(name)
            after = hook(tracer, span, args) if hook is not None else None
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                tracer._close(span, token)

        return wrapper

    def write(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "spans": len(self.spans),
                                     "written": min(len(self.spans), MAX_WRITTEN_SPANS)}) + "\n")
            for span in self.spans[:MAX_WRITTEN_SPANS]:
                handle.write(json.dumps(span.to_payload()) + "\n")


# --------------------------------------------------------------------- #
# Derived quantities
# --------------------------------------------------------------------- #
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def check_spans(spans: list[Span]) -> dict:
    """Nesting and self-time self-check; raises :class:`GateError` on failure.

    * every child span lies inside its parent's interval (same clock, so the
      tolerance only absorbs the float rounding of the subtraction);
    * no span's self time is negative beyond the tolerance, so children of
      one span never overlap each other by more than it;
    * the self times of every request's spans sum to its root span's wall
      time within 1% (or the tolerance, when larger) — no span is lost.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    problems = []
    subtree_self: dict[int, float] = {}
    roots = []
    for span in spans:
        if span.parent == 0:
            roots.append(span)
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.name}#{span.id} has no recorded parent")
            continue
        if span.start < parent.start - NEST_TOLERANCE_S or span.end > parent.end + NEST_TOLERANCE_S:
            problems.append(
                f"span {span.name}#{span.id} [{span.start:.6f}, {span.end:.6f}] escapes "
                f"its parent {parent.name}#{parent.id} [{parent.start:.6f}, {parent.end:.6f}]"
            )
    for span in spans:
        if own[span.id] < -NEST_TOLERANCE_S:
            problems.append(f"span {span.name}#{span.id} has negative self time {own[span.id]:.6f}s")
        root = span
        while root.parent in by_id:
            root = by_id[root.parent]
        subtree_self[root.id] = subtree_self.get(root.id, 0.0) + own[span.id]
    worst = 0.0
    for root in roots:
        gap = abs(subtree_self.get(root.id, 0.0) - root.duration)
        worst = max(worst, gap)
        if gap > max(NEST_TOLERANCE_S, 0.01 * root.duration):
            problems.append(
                f"request {root.request}: self times sum to {subtree_self[root.id]:.6f}s, "
                f"root {root.name} took {root.duration:.6f}s"
            )
    if problems:
        raise GateError("trace self-check failed: " + "; ".join(problems[:5]))
    return {"spans": len(spans), "roots": len(roots), "worst_self_sum_gap_s": worst}


def totals_by_name(spans: list[Span], requests=None) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time.

    With ``requests`` given, only spans of those request ids count.
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        if requests is not None and span.request not in requests:
            continue
        entry = totals.setdefault(span.name, {"count": 0, "total": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["total"] += span.duration
        entry["self"] += own[span.id]
    return totals
