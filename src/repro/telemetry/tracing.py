"""Request tracing: trace ids, spans, and a JSONL event sink.

A :class:`Tracer` stamps a *trace id* on each top-level operation and
threads it through nested work via a ``contextvars`` context variable:
the HTTP handler opens an ``http_request`` span, the engine's batch
processor opens a ``batch`` span underneath it, and each model forward
opens a ``forward`` span underneath that — three records in the sink
sharing one ``trace_id``, parent-linked by ``span_id``.  Because the
context variable is per-thread (``ThreadingHTTPServer`` gives each
request its own thread), concurrent requests never cross-link.

Records are JSON lines in the :class:`EventSink`:

``{"kind": "span", "name", "trace_id", "span_id", "parent_id",
   "start_unix_ms", "duration_ms", "attrs": {...}}``
``{"kind": "event", "name", "trace_id", "unix_ms", ...fields}``

Spans can additionally capture **op-level** data (``capture_ops=True``):
for the span's duration a :class:`repro.perf.Profiler` aggregates
per-op call counts and wall time into ``attrs["ops"]``.  The profiler
chains to any previously installed hook, so an outer profiler keeps
seeing everything.

A tracer without a sink is disabled: ``span()`` yields a shared no-op
span and costs one attribute check plus a generator frame — cheap
enough to leave in every hot path unconditionally.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import threading
import time
import uuid
from typing import Dict, Iterator, Optional, Union

from ..perf.profiler import Profiler

__all__ = ["EventSink", "Span", "Tracer", "current_trace_id",
           "new_trace_id"]


def new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class EventSink:
    """Thread-safe JSONL appender (a path or an open file-like object)."""

    def __init__(self, target: Union[str, "object"]) -> None:
        if hasattr(target, "write"):
            self._handle = target
            self._owns = False
            self.path = getattr(target, "name", None)
        else:
            self._handle = open(target, "a", encoding="utf-8")
            self._owns = True
            self.path = str(target)
        self._lock = threading.Lock()

    def emit(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns:
                self._handle.close()

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs",
                 "start_unix_ms", "_start")

    def __init__(self, name: str, trace_id: str,
                 parent_id: Optional[str], attrs: Dict) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_trace_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_unix_ms = time.time() * 1e3
        self._start = time.perf_counter()

    def set(self, **attrs) -> None:
        """Attach attributes visible in the emitted record."""
        self.attrs.update(attrs)

    def to_record(self, duration_ms: float) -> Dict:
        return {"kind": "span", "name": self.name,
                "trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_unix_ms": self.start_unix_ms,
                "duration_ms": duration_ms, "attrs": self.attrs}


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = None

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()

_CURRENT: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro_telemetry_span", default=None)


def current_trace_id() -> Optional[str]:
    span = _CURRENT.get()
    return span.trace_id if span is not None else None


@contextlib.contextmanager
def _capture_ops(span: Span) -> Iterator[None]:
    """Aggregate tensor-op calls into ``span.attrs["ops"]`` while active."""
    profiler = Profiler()
    try:
        with profiler:
            yield
    finally:
        stats = profiler.report().stats
        if stats:
            span.attrs["ops"] = {
                stat.name: {"calls": stat.calls, "ms": stat.seconds * 1e3}
                for stat in sorted(stats, key=lambda stat: stat.name)}


class Tracer:
    """Emits spans/events to a sink; a ``None`` sink disables tracing."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink = sink

    @property
    def enabled(self) -> bool:
        return self.sink is not None

    @contextlib.contextmanager
    def span(self, name: str, capture_ops: bool = False,
             **attrs) -> Iterator[Union[Span, _NullSpan]]:
        """Open a span; nests under the context's current span (same
        trace id), or starts a fresh trace at the top level."""
        if self.sink is None:
            yield _NULL_SPAN
            return
        parent = _CURRENT.get()
        span = Span(name,
                    trace_id=(parent.trace_id if parent is not None
                              else new_trace_id()),
                    parent_id=(parent.span_id if parent is not None
                               else None),
                    attrs=dict(attrs))
        token = _CURRENT.set(span)
        try:
            if capture_ops:
                with _capture_ops(span):
                    yield span
            else:
                yield span
        except BaseException as error:
            span.attrs.setdefault("error", type(error).__name__)
            raise
        finally:
            _CURRENT.reset(token)
            duration_ms = (time.perf_counter() - span._start) * 1e3
            self.sink.emit(span.to_record(duration_ms))

    def event(self, name: str, **fields) -> None:
        """Emit a point-in-time record, stamped with the current trace id."""
        if self.sink is None:
            return
        record = {"kind": "event", "name": name,
                  "trace_id": current_trace_id(),
                  "unix_ms": time.time() * 1e3}
        record.update(fields)
        self.sink.emit(record)
