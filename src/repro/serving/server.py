"""A stdlib-only JSON HTTP front end for the inference engine.

No web framework — ``http.server.ThreadingHTTPServer`` is enough to make
the engine drivable as a real service (and testable end to end).  The
engine serializes access internally, so the threaded server is safe.

Endpoints
---------
``GET  /healthz``  **liveness**: the process is up and owns a bundle
``GET  /readyz``   **readiness**: willing to take traffic (503 while
                   draining — :meth:`ServingServer.set_ready`)
``GET  /stats``    engine counters (:meth:`InferenceEngine.stats`)
``GET  /metrics``  Prometheus text exposition — the engine's private
                   registry merged with the process-global one, so
                   trainer/tuner/profiler instruments ride along
``POST /predict``  ``{"node_ids": [..]}`` → predictions + label names
``POST /onboard``  ``{"node_type": .., "edges": {"src:name:dst": [..]},
                     "features": [..]?}`` → the new node's serving result

Every request is measured into ``http_requests_total{method,path,status}``
and ``http_request_seconds{path}`` (unknown paths collapse to
``path="<other>"`` to keep label cardinality bounded).  When the
engine's tracer is enabled, each request runs under an ``http_request``
root span — engine batch/forward spans nest beneath it, and the
response carries the trace id in ``X-Trace-Id``.  Structured access
logging (method, path, status, duration, trace id) is off by default
(``log_message`` stays silenced) and goes through a telemetry
:class:`~repro.telemetry.EventSink` when one is passed
(``repro serve --access-log``).
"""

from __future__ import annotations

import json
import signal
import threading
import time
import warnings
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

import numpy as np

from ..telemetry import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    EventSink,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from .admission import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    ShedError,
    deadline_scope,
)
from .engine import InferenceEngine

#: paths kept verbatim as metric label values; everything else becomes
#: "<other>" so a scanner probing random URLs cannot explode cardinality
_KNOWN_PATHS = ("/healthz", "/readyz", "/stats", "/metrics",
                "/predict", "/onboard")


@dataclass
class ServerConfig:
    """Robustness knobs for the HTTP front end.

    ``deadline_ms`` is the per-POST time budget (None disables it);
    expiry answers **504** from the next engine checkpoint.  Admission
    bounds apply to POSTs only — health/metrics stay answerable under
    overload, which is exactly when an orchestrator needs them.
    ``max_body_bytes`` rejects oversized payloads with **413** before a
    byte of the body is read.  Bodies must come with ``Content-Length``:
    a ``Transfer-Encoding`` request answers **501** and closes, so its
    unread body is never parsed as the next request.  The breaker
    settings guard ``/onboard`` (the state-mutating path): after
    ``breaker_failures`` consecutive onboard errors the endpoint fails
    fast with **503** until a ``breaker_cooldown_s`` probe succeeds.
    """

    deadline_ms: Optional[float] = None
    max_inflight: int = 8
    max_queue: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    breaker_failures: int = 3
    breaker_cooldown_s: float = 5.0
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")


class _PayloadTooLarge(ValueError):
    """Request body exceeds ``ServerConfig.max_body_bytes`` (HTTP 413)."""


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def make_handler(engine: InferenceEngine,
                 access_sink: Optional[EventSink] = None,
                 ready: Optional[threading.Event] = None,
                 config: Optional[ServerConfig] = None,
                 admission: Optional[AdmissionController] = None,
                 breaker: Optional[CircuitBreaker] = None):
    """Build a request-handler class bound to one engine instance."""
    config = config or ServerConfig()
    metrics = engine.metrics
    http_requests = metrics.counter(
        "http_requests_total", "HTTP requests served",
        labels=("method", "path", "status"))
    http_seconds = metrics.histogram(
        "http_request_seconds", "HTTP request wall time", labels=("path",))
    http_shed = metrics.counter(
        "http_requests_shed_total", "Requests refused admission",
        labels=("reason",))
    http_deadline = metrics.counter(
        "http_deadline_exceeded_total", "Requests that ran out of budget")
    http_errors = metrics.counter(
        "http_internal_errors_total",
        "Unexpected handler exceptions answered with 500")

    class ServingHandler(BaseHTTPRequestHandler):
        server_version = "repro-serving/1"

        # silence per-request stderr logging — structured access logging
        # goes through the telemetry event sink instead (off by default)
        def log_message(self, format, *args):  # noqa: A002
            pass

        def _reply(self, status: int, payload: dict,
                   extra_headers: Optional[dict] = None) -> None:
            body = json.dumps(payload, default=_json_default).encode()
            self._send(status, body, "application/json",
                       extra_headers=extra_headers)

        def _send(self, status: int, body: bytes, content_type: str,
                  extra_headers: Optional[dict] = None) -> None:
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self._trace_id:
                self.send_header("X-Trace-Id", self._trace_id)
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _read_json(self) -> dict:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except (TypeError, ValueError):
                raise ValueError("Content-Length must be an integer")
            if length > config.max_body_bytes:
                # refused before a byte of the body is read: the
                # connection is closed after the reply, so an attacker
                # cannot make the server buffer the oversized payload
                raise _PayloadTooLarge(
                    f"request body of {length} bytes exceeds the "
                    f"{config.max_body_bytes}-byte limit")
            if length <= 0:
                return {}
            body = self.rfile.read(length)
            if len(body) < length:
                raise ValueError(
                    f"request body truncated ({len(body)} of "
                    f"{length} bytes)")
            payload = json.loads(body.decode())
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _metrics_text(self) -> bytes:
            snapshots = [metrics.snapshot()]
            process_registry = get_registry()
            if process_registry is not metrics:
                snapshots.append(process_registry.snapshot())
            return render_prometheus(merge_snapshots(snapshots)).encode()

        # ------------------------------------------------------------------
        def _dispatch_get(self) -> None:
            if self.path == "/healthz":
                # liveness: the process is up and holds a bundle —
                # never gated on readiness, so an orchestrator can tell
                # "restart me" apart from "stop routing to me"
                self._reply(200, {
                    "status": "ok",
                    "check": "liveness",
                    "dataset": engine.bundle.dataset.name,
                    "model": engine.bundle.model_name,
                    "target_type": engine.bundle.target_type,
                })
            elif self.path == "/readyz":
                if ready is None or ready.is_set():
                    self._reply(200, {"status": "ready",
                                      "check": "readiness",
                                      "onboarded": engine.num_onboarded})
                else:
                    self._reply(503, {"status": "unready",
                                      "check": "readiness"})
            elif self.path == "/stats":
                self._reply(200, engine.stats())
            elif self.path == "/metrics":
                self._send(200, self._metrics_text(), METRICS_CONTENT_TYPE)
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def _dispatch_post(self) -> None:
            deadline = (None if config.deadline_ms is None
                        else Deadline.after_ms(config.deadline_ms))
            try:
                # admission before the body is read: a shed request
                # costs the server one header parse, nothing more
                queue_budget = (None if deadline is None
                                else max(deadline.remaining_s(), 0.0))
                with admission.admit(timeout_s=queue_budget), \
                        deadline_scope(deadline):
                    self._dispatch_post_admitted()
            except _PayloadTooLarge as error:
                self.close_connection = True
                self._reply(413, {"error": str(error)})
            except DeadlineExceeded as error:
                http_deadline.inc()
                self._reply(504, {"error": str(error)})
            except ShedError as error:  # includes CircuitOpenError
                http_shed.inc(reason=error.reason)
                self._reply(503, {"error": str(error)},
                            extra_headers={"Retry-After": str(max(
                                int(round(error.retry_after_s)), 1))})
            except (ValueError, KeyError, json.JSONDecodeError) as error:
                self._reply(400, {"error": str(error)})
            except RuntimeError as error:
                # e.g. a backbone that cannot be rebuilt inductively during
                # onboarding — the engine's state was rolled back, report it
                self._reply(500, {"error": str(error)})

        def _dispatch_post_admitted(self) -> None:
            payload = self._read_json()
            if self.path == "/predict":
                node_ids = payload.get("node_ids")
                if node_ids is None:
                    raise ValueError("missing 'node_ids'")
                results = engine.predict_batch(node_ids)
                self._reply(200, {
                    "node_ids": [entry["node_id"] for entry in results],
                    "predictions": [entry["prediction"]
                                    for entry in results],
                    "labels": [entry["label"] for entry in results],
                })
            elif self.path == "/onboard":
                node_type = payload.get("node_type")
                if node_type is None:
                    raise ValueError("missing 'node_type'")
                # breaker around the one state-mutating endpoint: once
                # onboarding writes are known-broken, fail fast instead
                # of grinding every request through the same error
                with breaker.guard():
                    result = engine.onboard(
                        node_type, payload.get("edges") or {},
                        raw_features=payload.get("features"))
                self._reply(200, result.to_json())
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def _handle(self, method: str) -> None:
            start = time.perf_counter()
            self._status = 500
            self._trace_id = None
            path_label = (self.path if self.path in _KNOWN_PATHS
                          else "<other>")
            with engine.tracer.span("http_request", method=method,
                                    path=self.path) as span:
                self._trace_id = span.trace_id
                try:
                    if self.headers.get("Transfer-Encoding") is not None:
                        self._reply(501, {"error": "Transfer-Encoding is "
                                                   "not supported"},
                                    extra_headers={"Connection": "close"})
                    elif method == "GET":
                        self._dispatch_get()
                    else:
                        self._dispatch_post()
                except (BrokenPipeError, ConnectionResetError):
                    # the client hung up mid-request; nothing to answer,
                    # and one dead socket must not take the thread down
                    self.close_connection = True
                except Exception as error:  # noqa: BLE001 — the backstop
                    # whatever escaped the typed handlers (including an
                    # injected fault) becomes a clean 500: a request may
                    # fail, the serving thread pool must not
                    http_errors.inc()
                    try:
                        self._reply(500, {
                            "error": f"internal error: "
                                     f"{type(error).__name__}: {error}"})
                    except OSError:
                        self.close_connection = True
                finally:
                    span.set(status=self._status)
            duration = time.perf_counter() - start
            http_requests.inc(method=method, path=path_label,
                              status=str(self._status))
            http_seconds.observe(duration, path=path_label)
            if access_sink is not None:
                access_sink.emit({
                    "kind": "access", "unix_ms": time.time() * 1e3,
                    "method": method, "path": self.path,
                    "status": self._status,
                    "duration_ms": duration * 1e3,
                    "trace_id": self._trace_id,
                })

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._handle("GET")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            self._handle("POST")

    return ServingHandler


class ServingServer:
    """Owns a ``ThreadingHTTPServer`` around one engine.

    ``port=0`` binds an ephemeral port (tests); :meth:`start_background`
    runs the accept loop in a daemon thread and returns the bound
    address.  ``access_sink`` enables structured access logging;
    ``config`` carries the robustness knobs (deadlines, admission
    bounds, body limit, breaker).  Readiness starts ``True``;
    :meth:`set_ready` flips ``/readyz`` (liveness is unaffected), and
    :meth:`shutdown` drains in order: stop accepting new POSTs (shed
    with 503), let in-flight requests finish (bounded by
    ``drain_timeout_s``), then close the socket.
    """

    def __init__(self, engine: InferenceEngine, host: str = "127.0.0.1",
                 port: int = 8080,
                 access_sink: Optional[EventSink] = None,
                 config: Optional[ServerConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown_s=self.config.breaker_cooldown_s)
        self._ready = threading.Event()
        self._ready.set()
        self.httpd = ThreadingHTTPServer(
            (host, port),
            make_handler(engine, access_sink=access_sink,
                         ready=self._ready, config=self.config,
                         admission=self.admission, breaker=self.breaker))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self, ready: bool) -> None:
        """Flip readiness (load-balancer drain) without touching liveness."""
        if ready:
            self._ready.set()
        else:
            self._ready.clear()

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` (or Ctrl-C)."""
        self.httpd.serve_forever()

    def start_background(self) -> "ServingServer":
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Graceful stop: drain, flush in-flight work, close, verify.

        Order matters — readiness flips first (load balancers stop
        routing), admission drains (new POSTs shed with 503 while
        in-flight ones finish, bounded by ``drain_timeout_s``), the
        accept loop stops, and only then does the socket close.  A
        serve thread still alive after its join window is a leak, not a
        detail: it holds the port and the engine — so it raises.
        """
        self.set_ready(False)
        self.admission.drain()
        drained = self.admission.wait_idle(
            timeout_s=self.config.drain_timeout_s)
        if not drained:
            warnings.warn(
                f"shutdown proceeded with {self.admission.inflight} "
                f"request(s) still in flight after "
                f"{self.config.drain_timeout_s}s drain window",
                RuntimeWarning, stacklevel=2)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                raise RuntimeError(
                    "serving thread is still alive 5s after shutdown — "
                    "the accept loop did not exit; the port and engine "
                    "are leaked")
            self._thread = None

    def register_sigterm_drain(self) -> None:
        """Install a SIGTERM handler that drains and exits cleanly.

        ``httpd.shutdown`` deadlocks when called from the thread running
        ``serve_forever`` — a signal handler runs on the main thread,
        which in the foreground CLI *is* that thread — so the handler
        only spawns a drainer thread and returns; ``serve_forever``
        unblocks once the drainer calls shutdown.  Only callable from
        the main thread (a Python signal.signal constraint).
        """
        def _drain(signum, frame):  # noqa: ARG001 (signal API)
            threading.Thread(target=self.shutdown,
                             name="sigterm-drain", daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)


__all__ = ["ServerConfig", "ServingServer", "make_handler"]
