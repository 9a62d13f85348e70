"""Async coalescing HTTP front for the preforked serving tier.

One asyncio accept loop owns every client connection *and* every worker
pipe, so there is no cross-thread synchronization anywhere on the hot
path.  The flow:

* a ``POST /predict`` is admitted (or shed — bounded queue, 503 +
  ``Retry-After``), stamped with its deadline, and parked in a pending
  deque;
* one **dispatch task per worker** drains up to ``max_batch`` queries
  from the deque into a single worker round-trip — concurrent in-flight
  requests share one pipe message and one engine lookup.  While a
  worker answers, newly arriving requests pile up for the *next* batch
  instead of waiting in per-request lockstep;
* expired entries are answered **504** at dispatch time (their queue
  wait consumed the budget; the work never starts), so queue growth is
  bounded twice — by count at the door and by time at dispatch;
* a worker that dies mid-batch (EOF on its pipe) gets its entries
  transparently requeued for a sibling while the tier forks a
  replacement — callers see a retried answer, not an error;
* ``/onboard`` serializes through the single writer (worker 0), then
  broadcasts the overlay delta to the readers before the 200 reply —
  every worker serves the new node once the client hears about it
  (read-your-writes through any worker);
* ``/metrics`` pulls per-worker registry snapshots over the pipes and
  merges them with the front's own registry via
  :func:`~repro.telemetry.merge_snapshots` — one scrape, N+1 shards;
* SIGTERM (foreground mode) flips ``/readyz`` to 503, drains the
  pending queue bounded by ``drain_timeout_s``, then shuts workers
  down — the PR 8 drain discipline, moved in front of the fork pool.

HTTP parsing is a minimal hand-rolled HTTP/1.1 (request line, headers,
``Content-Length`` bodies, keep-alive; a ``Content-Length`` that is not a
non-negative integer answers 400 and closes, a ``Transfer-Encoding``
request 501 and closes) — the stdlib's blocking server cannot sit on an
asyncio loop, and the tier's protocol needs nothing more.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..faults import fault_site
from ..telemetry import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    render_prometheus,
)
from .admission import Deadline, ShedError

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 501: "Not Implemented",
            503: "Service Unavailable", 504: "Gateway Timeout"}

_KNOWN_PATHS = ("/healthz", "/readyz", "/stats", "/metrics",
                "/predict", "/onboard")


class WorkerDied(RuntimeError):
    """The worker behind a pipe is gone (EOF, reset, hang, desync)."""

    def __init__(self, handle, where: str = "") -> None:
        super().__init__(
            f"tier worker {handle.index} (pid {handle.pid}) died"
            + (f" during {where}" if where else ""))
        self.handle = handle


@dataclass
class FrontendConfig:
    """Knobs of the async front."""

    #: per-request budget; None disables deadlines (benchmarks only)
    deadline_ms: Optional[float] = 2000.0
    #: pending predict QUERIES (not requests) admitted before shedding
    max_queue: int = 256
    #: queries per worker micro-batch (one pipe round-trip)
    max_batch: int = 64
    #: request body cap (413 beyond it)
    max_body_bytes: int = 1 << 20
    #: one worker round-trip's patience before declaring it dead
    call_timeout_s: float = 120.0
    #: graceful-drain budget at shutdown
    drain_timeout_s: float = 5.0
    #: asyncio stream limit for worker pipes (snapshots can be chunky)
    stream_limit: int = 1 << 25

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive when set")
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")


class _Entry:
    """One admitted /predict request parked for dispatch."""

    __slots__ = ("ids", "future", "deadline")

    def __init__(self, ids: List[int], future: asyncio.Future,
                 deadline: Optional[Deadline]) -> None:
        self.ids = ids
        self.future = future
        self.deadline = deadline


class TierFrontend:
    """The asyncio edge of a :class:`~repro.serving.ServingTier`."""

    def __init__(self, tier, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[FrontendConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.tier = tier
        self.config = config or FrontendConfig()
        self._host = host
        self._port = port
        self.registry = registry or MetricsRegistry()
        m = self.registry
        self._m_requests = m.counter(
            "http_requests_total", "HTTP requests served",
            labels=("method", "path", "status"))
        self._m_seconds = m.histogram(
            "http_request_seconds", "HTTP request wall time",
            labels=("path",))
        self._m_shed = m.counter(
            "http_requests_shed_total", "Requests shed by admission",
            labels=("reason",))
        self._m_deadline = m.counter(
            "http_deadline_exceeded_total", "Requests past deadline")
        self._m_errors = m.counter(
            "http_internal_errors_total", "Handler crashes (HTTP 500)")
        self._m_batches = m.counter(
            "tier_batches_total", "Micro-batches dispatched to workers")
        self._m_batch_queries = m.histogram(
            "tier_batch_queries", "Queries per dispatched micro-batch",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        self._m_queue_depth = m.gauge(
            "tier_queue_depth", "Pending queries at enqueue",
            aggregation="max")
        self._m_deaths = m.counter(
            "tier_worker_deaths_total", "Workers lost mid-service")
        self._m_respawns = m.counter(
            "tier_worker_respawns_total", "Replacement workers forked")
        self._m_requeued = m.counter(
            "tier_requeued_queries_total",
            "Queries transparently requeued after a worker death")
        self._m_broadcasts = m.counter(
            "tier_overlay_broadcasts_total",
            "Overlay deltas delivered to readers")
        self._m_workers = m.gauge(
            "tier_workers_alive", "Live workers", aggregation="last")

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._handles: List = []
        self._dispatch_tasks: List[asyncio.Task] = []
        self._respawn_locks: Dict[int, asyncio.Lock] = {}
        self._pending: Deque[_Entry] = deque()
        self._queued_queries = 0
        self._wake: Optional[asyncio.Event] = None
        self._writer_lock: Optional[asyncio.Lock] = None
        self._draining = False
        self._closing = False
        self._shut = False
        self._shutdown_done: Optional[asyncio.Event] = None
        self._respawns_used = 0
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _startup(self) -> None:
        self._wake = asyncio.Event()
        self._writer_lock = asyncio.Lock()
        for index in range(self.tier.config.workers):
            handle = await self._boot_worker(index)
            self._handles.append(handle)
            self._respawn_locks[index] = asyncio.Lock()
        self._m_workers.set(float(len(self._handles)))
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port)
        self._address = self._server.sockets[0].getsockname()[:2]
        self._dispatch_tasks = [
            asyncio.ensure_future(self._dispatch_loop(slot))
            for slot in range(len(self._handles))]

    async def _boot_worker(self, index: int, generation: int = 0):
        """Fork + connect + await the ready handshake."""
        handle = self.tier.spawn_worker(index, generation=generation)
        sock = handle.sock
        handle.sock = None  # asyncio owns it now
        try:
            reader, writer = await asyncio.open_connection(
                sock=sock, limit=self.config.stream_limit)
        except OSError as error:
            self.tier.reap(handle)
            raise WorkerDied(handle, "connect") from error
        handle.reader, handle.writer = reader, writer
        handle.lock = asyncio.Lock()
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.config.call_timeout_s)
            ready = json.loads(line) if line else {}
        except (asyncio.TimeoutError, OSError,
                json.JSONDecodeError) as error:
            self._close_pipe(handle)
            self.tier.reap(handle)
            raise WorkerDied(handle, "boot") from error
        if not ready.get("ok") or ready.get("op") != "ready":
            self._close_pipe(handle)
            self.tier.reap(handle)
            raise WorkerDied(handle, "boot handshake")
        return handle

    def start_background(self) -> "TierFrontend":
        """Run the loop on a daemon thread; returns once serving."""
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="tier-frontend")
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._startup())
        except BaseException as error:  # surface to start_background
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._close_loop(loop)

    def _finished_shutdown(self) -> bool:
        return (self._shut and self._shutdown_done is not None
                and self._shutdown_done.is_set())

    def _close_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        if not self._finished_shutdown():
            loop.run_until_complete(self._shutdown_async())
        # duplicate _terminate tasks (double SIGTERM) may still be
        # parked on the done-event; retire them before closing
        leftovers = [task for task in asyncio.all_tasks(loop)
                     if not task.done()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            loop.run_until_complete(
                asyncio.gather(*leftovers, return_exceptions=True))
        loop.close()

    def serve_forever(self) -> None:
        """Run the loop in the calling thread (the CLI path)."""
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(self._startup())
        self._started.set()

        def _drain() -> None:
            asyncio.ensure_future(self._terminate())

        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signal.SIGTERM, _drain)
            loop.add_signal_handler(signal.SIGINT, _drain)
        try:
            loop.run_forever()
        finally:
            self._close_loop(loop)

    async def _terminate(self) -> None:
        await self._shutdown_async()
        asyncio.get_event_loop().stop()

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Thread-safe full stop (drain → workers down → loop stopped)."""
        loop, thread = self._loop, self._thread
        if loop is None or not loop.is_running():
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown_async(), loop)
        with contextlib.suppress(Exception):
            future.result(timeout=timeout_s)
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=timeout_s)

    async def _shutdown_async(self) -> None:
        if self._shut:
            # a concurrent caller (double SIGTERM, shutdown() racing the
            # signal handler) must WAIT for the first pass to finish,
            # not return early and stop the loop under it
            if self._shutdown_done is not None:
                await self._shutdown_done.wait()
            return
        self._shut = True
        self._shutdown_done = asyncio.Event()
        try:
            self._draining = True  # /readyz flips 503; new work is shed
            drain_until = time.monotonic() + self.config.drain_timeout_s
            while self._pending and time.monotonic() < drain_until:
                await asyncio.sleep(0.02)
            while self._pending:  # past the budget: shed what is left
                entry = self._pending.popleft()
                self._resolve(entry, "shed", "draining")
            self._closing = True
            if self._wake is not None:
                self._wake.set()
            if self._dispatch_tasks:
                done = asyncio.gather(*self._dispatch_tasks,
                                      return_exceptions=True)
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(done, timeout=5.0)
                for task in self._dispatch_tasks:
                    task.cancel()
            for handle in list(self._handles):
                if handle is None or handle.dead:
                    continue
                with contextlib.suppress(Exception):
                    await asyncio.wait_for(
                        self._call(handle, {"op": "shutdown"}), timeout=2.0)
                self._close_pipe(handle)
                self.tier.reap(handle)
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            self._m_workers.set(0.0)
        finally:
            self._shutdown_done.set()

    # ------------------------------------------------------------------
    # Worker pipe RPC
    # ------------------------------------------------------------------
    @staticmethod
    def _close_pipe(handle) -> None:
        if handle.writer is not None:
            with contextlib.suppress(Exception):
                handle.writer.close()

    async def _call(self, handle, message: Dict) -> Dict:
        """One request/reply on a worker pipe (one in flight per worker)."""
        if handle.dead or handle.lock is None:
            raise WorkerDied(handle, message.get("op", "?"))
        async with handle.lock:
            if handle.dead:
                raise WorkerDied(handle, message.get("op", "?"))
            handle.seq += 1
            message = dict(message, id=handle.seq)
            try:
                handle.writer.write(
                    json.dumps(message, separators=(",", ":")).encode()
                    + b"\n")
                await handle.writer.drain()
                line = await asyncio.wait_for(
                    handle.reader.readline(),
                    timeout=self.config.call_timeout_s)
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.TimeoutError, asyncio.IncompleteReadError
                    ) as error:
                raise WorkerDied(handle, message["op"]) from error
            if not line:
                raise WorkerDied(handle, message["op"])
            try:
                reply = json.loads(line)
            except json.JSONDecodeError as error:
                raise WorkerDied(handle, message["op"]) from error
            if reply.get("id") != message["id"]:  # protocol desync
                raise WorkerDied(handle, message["op"])
            return reply

    async def _on_worker_death(self, slot: int, handle, where: str) -> None:
        """Account a death; fork a replacement unless disabled/exhausted."""
        lock = self._respawn_locks.get(slot)
        if lock is None:
            return
        async with lock:
            if self._handles[slot] is not handle:
                return  # a racing path already replaced it
            handle.dead = True
            self._m_deaths.inc()
            self._close_pipe(handle)
            self.tier.reap(handle)
            self._handles[slot] = None
            self._m_workers.set(float(self._alive_count()))
            if (self._closing or not self.tier.config.respawn):
                return
            generation = handle.generation
            while self._respawns_used < self.tier.config.max_respawns:
                self._respawns_used += 1
                generation += 1
                try:
                    replacement = await self._boot_worker(
                        slot, generation=generation)
                except Exception:
                    continue  # e.g. an armed fork/boot fault; try again
                self._handles[slot] = replacement
                self._m_respawns.inc()
                self._m_workers.set(float(self._alive_count()))
                return

    def _alive_count(self) -> int:
        return sum(1 for handle in self._handles
                   if handle is not None and not handle.dead)

    # ------------------------------------------------------------------
    # Coalescing dispatch
    # ------------------------------------------------------------------
    def _resolve(self, entry: _Entry, outcome: str, detail) -> None:
        if not entry.future.done():
            entry.future.set_result((outcome, detail))

    def _expired(self, entry: _Entry) -> bool:
        if entry.deadline is not None and entry.deadline.expired():
            self._m_deadline.inc()
            self._resolve(entry, "deadline",
                          "deadline exceeded while queued")
            return True
        return False

    def _enqueue(self, entry: _Entry) -> None:
        if self._draining:
            raise ShedError("draining")
        if self._queued_queries + len(entry.ids) > self.config.max_queue:
            raise ShedError("queue-full")
        self._pending.append(entry)
        self._queued_queries += len(entry.ids)
        self._m_queue_depth.set(float(self._queued_queries))
        self._wake.set()

    def _requeue(self, entries: List[_Entry]) -> None:
        """Put a dead worker's batch back at the FRONT of the queue —
        admission was already paid, so the bound does not re-apply."""
        for entry in reversed(entries):
            if entry.future.done():
                continue
            self._pending.appendleft(entry)
            self._queued_queries += len(entry.ids)
            self._m_requeued.inc(len(entry.ids))
        self._wake.set()

    async def _take_batch(self) -> Optional[List[_Entry]]:
        """Drain up to ``max_batch`` queries; None when closing + empty."""
        while True:
            batch: List[_Entry] = []
            taken = 0
            while self._pending:
                entry = self._pending[0]
                if batch and taken + len(entry.ids) > self.config.max_batch:
                    break
                self._pending.popleft()
                self._queued_queries -= len(entry.ids)
                if self._expired(entry):
                    continue
                batch.append(entry)
                taken += len(entry.ids)
                if taken >= self.config.max_batch:
                    break
            if batch:
                return batch
            if self._closing:
                return None
            self._wake.clear()
            await self._wake.wait()

    async def _dispatch_loop(self, slot: int) -> None:
        """One per worker: feed it micro-batches until shutdown."""
        while True:
            batch = await self._take_batch()
            if batch is None:
                return
            handle = self._handles[slot]
            if handle is None or handle.dead:
                self._requeue(batch)
                return  # the slot is gone for good; siblings take over
            try:
                reply = await self._call(
                    handle,
                    {"op": "predict",
                     "entries": [entry.ids for entry in batch]})
            except WorkerDied:
                await self._on_worker_death(slot, handle, "predict")
                self._requeue(batch)
                if self._handles[slot] is None:
                    return
                continue
            self._m_batches.inc()
            self._m_batch_queries.observe(
                float(sum(len(entry.ids) for entry in batch)))
            if not reply.get("ok"):
                detail = reply.get("error", "worker error")
                outcome = ("bad-request" if reply.get("kind") == "value"
                           else "internal")
                for entry in batch:
                    self._resolve(entry, outcome, detail)
                continue
            for entry, result in zip(batch, reply["results"]):
                if result.get("ok"):
                    self._resolve(entry, "ok", result["rows"])
                else:
                    self._resolve(entry, "bad-request",
                                  result.get("error", "bad request"))

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    async def _predict(self, payload: Dict) -> Tuple[int, Dict]:
        node_ids = payload.get("node_ids")
        if node_ids is None and "node_id" in payload:
            node_ids = [payload["node_id"]]
        if not isinstance(node_ids, list) or not node_ids:
            return 400, {"error": "missing 'node_ids'"}
        deadline = (None if self.config.deadline_ms is None
                    else Deadline.after_ms(self.config.deadline_ms))
        # ids travel as sent: the worker's engine is the one validator
        entry = _Entry(node_ids, asyncio.get_event_loop().create_future(),
                       deadline)
        try:
            self._enqueue(entry)
        except ShedError as error:
            self._m_shed.inc(reason=error.reason)
            return 503, {"error": str(error), "reason": error.reason,
                         "retry_after_s": error.retry_after_s}
        outcome, detail = await entry.future
        if outcome == "ok":
            return 200, {"node_ids": [row["node_id"] for row in detail],
                         "predictions": [row["prediction"]
                                         for row in detail],
                         "labels": [row["label"] for row in detail]}
        if outcome == "bad-request":
            return 400, {"error": detail}
        if outcome == "deadline":
            return 504, {"error": detail}
        if outcome == "shed":
            self._m_shed.inc(reason=detail)
            return 503, {"error": f"request shed: {detail}",
                         "reason": detail, "retry_after_s": 1.0}
        self._m_errors.inc()
        return 500, {"error": detail}

    async def _onboard(self, payload: Dict) -> Tuple[int, Dict]:
        if self._draining:
            self._m_shed.inc(reason="draining")
            return 503, {"error": "request shed: draining",
                         "reason": "draining", "retry_after_s": 1.0}
        node_type = payload.get("node_type")
        if not node_type:
            return 400, {"error": "missing 'node_type'"}
        request = {"node_type": node_type,
                   "edges": payload.get("edges") or {},
                   "raw_features": payload.get("raw_features")}
        async with self._writer_lock:
            writer = self._handles[0]
            if writer is None or writer.dead:
                self._m_shed.inc(reason="writer-down")
                return 503, {"error": "onboarding writer unavailable",
                             "reason": "writer-down", "retry_after_s": 1.0}
            try:
                reply = await self._call(writer,
                                         {"op": "onboard", **request})
            except WorkerDied:
                await self._on_worker_death(0, writer, "onboard")
                self._m_shed.inc(reason="writer-respawn")
                return 503, {"error": "writer died mid-onboard; the "
                                      "respawned writer recovered from "
                                      "the WAL — retry",
                             "reason": "writer-respawn",
                             "retry_after_s": 1.0}
            if not reply.get("ok"):
                if reply.get("kind") == "value":
                    return 400, {"error": reply.get("error")}
                self._m_errors.inc()
                return 500, {"error": reply.get("error")}
            # log BEFORE broadcasting: a reader respawned mid-broadcast
            # inherits the delta at fork time instead of missing it
            self.tier.record_onboard(request, reply["delta"])
            await self._broadcast(reply["delta"])
            return 200, reply["result"]

    async def _broadcast(self, delta: Dict) -> None:
        """Install the writer's delta on every reader; a reader that
        fails the broadcast is respawned (and catches up at fork)."""
        for slot in range(1, len(self._handles)):
            handle = self._handles[slot]
            if handle is None or handle.dead:
                continue
            try:
                fault_site("tier.broadcast", key=str(slot))
                reply = await self._call(handle,
                                         {"op": "overlay", "delta": delta})
                if not reply.get("ok"):
                    raise WorkerDied(handle, "overlay")
            except WorkerDied:
                await self._on_worker_death(slot, handle, "broadcast")
            except Exception:  # injected broadcast fault
                await self._on_worker_death(slot, handle, "broadcast")
            else:
                self._m_broadcasts.inc()

    async def _stats(self) -> Tuple[int, Dict]:
        workers = []
        for slot in range(len(self._handles)):
            handle = self._handles[slot]
            if handle is None or handle.dead:
                workers.append({"error": "worker down", "slot": slot})
                continue
            try:
                reply = await self._call(handle, {"op": "stats"})
                workers.append(reply.get("stats")
                               if reply.get("ok")
                               else {"error": reply.get("error")})
            except WorkerDied:
                await self._on_worker_death(slot, handle, "stats")
                workers.append({"error": "worker died", "slot": slot})
        tier = self.tier.stats()
        tier.update({
            "alive": self._alive_count(),
            "deaths": int(self._m_deaths.total()),
            "respawns": int(self._m_respawns.total()),
            "draining": self._draining,
        })
        return 200, {
            "tier": tier,
            "frontend": {
                "queued_queries": self._queued_queries,
                "batches": int(self._m_batches.total()),
                "shed": int(self._m_shed.total()),
                "deadline_exceeded": int(self._m_deadline.total()),
                "requeued": int(self._m_requeued.total()),
                "broadcasts": int(self._m_broadcasts.total()),
            },
            "workers": workers,
        }

    async def _metrics(self) -> Tuple[int, bytes, str]:
        snapshots = [self.registry.snapshot(), get_registry().snapshot()]
        for slot in range(len(self._handles)):
            handle = self._handles[slot]
            if handle is None or handle.dead:
                continue
            try:
                reply = await self._call(handle, {"op": "snapshot"})
                if reply.get("ok"):
                    snapshots.append(reply["snapshot"])
            except WorkerDied:
                await self._on_worker_death(slot, handle, "snapshot")
        text = render_prometheus(merge_snapshots(snapshots))
        return 200, text.encode(), METRICS_CONTENT_TYPE

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, bytes, str, Dict[str, str]]:
        extra: Dict[str, str] = {}
        if path == "/metrics" and method == "GET":
            status, payload, content_type = await self._metrics()
            return status, payload, content_type, extra
        if method == "GET":
            if path == "/healthz":
                status, reply = 200, {"status": "ok",
                                      "workers": self._alive_count()}
            elif path == "/readyz":
                ready = not self._draining and self._alive_count() > 0
                status = 200 if ready else 503
                reply = {"status": "ok" if ready else "draining"}
            elif path == "/stats":
                status, reply = await self._stats()
            elif path in _KNOWN_PATHS:
                status, reply = 405, {"error": f"POST {path}"}
            else:
                status, reply = 404, {"error": f"unknown path {path}"}
        elif method == "POST":
            if path not in ("/predict", "/onboard"):
                status, reply = ((405, {"error": f"GET {path}"})
                                 if path in _KNOWN_PATHS
                                 else (404, {"error": f"unknown path "
                                                      f"{path}"}))
            else:
                try:
                    payload = json.loads(body.decode() or "{}")
                    if not isinstance(payload, dict):
                        raise ValueError("body must be a JSON object")
                except (ValueError, UnicodeDecodeError) as error:
                    payload = None
                    status, reply = 400, {"error": f"bad JSON body: "
                                                   f"{error}"}
                if payload is not None:
                    if path == "/predict":
                        status, reply = await self._predict(payload)
                    else:
                        status, reply = await self._onboard(payload)
        else:
            status, reply = 405, {"error": f"method {method} not allowed"}
        if status == 503 and isinstance(reply, dict):
            extra["Retry-After"] = str(
                max(1, int(reply.get("retry_after_s", 1.0))))
        return status, json.dumps(reply).encode(), "application/json", extra

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                if request_line in (b"\r\n", b"\n"):
                    continue
                try:
                    method, target, version = (
                        request_line.decode("latin-1").split())
                except ValueError:
                    break  # unparseable request line; hang up
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                raw_length = headers.get("content-length", "0")
                path = target.split("?", 1)[0]
                started = time.perf_counter()
                # a refused body is never read, so the connection closes
                if "transfer-encoding" in headers:
                    status, body, content_type, extra = (
                        501, json.dumps({"error": "Transfer-Encoding is "
                                                  "not supported"}).encode(),
                        "application/json", {"Connection": "close"})
                elif not raw_length.isdecimal():
                    status, body, content_type, extra = (
                        400, json.dumps({"error": "Content-Length must be "
                                                  "a non-negative integer"}
                                        ).encode(),
                        "application/json", {"Connection": "close"})
                elif int(raw_length) > self.config.max_body_bytes:
                    status, body, content_type, extra = (
                        413, json.dumps(
                            {"error": "request body too large"}).encode(),
                        "application/json", {"Connection": "close"})
                else:
                    length = int(raw_length)
                    payload = (await reader.readexactly(length)
                               if length else b"")
                    try:
                        status, body, content_type, extra = (
                            await self._route(method, path, payload))
                    except Exception as error:
                        self._m_errors.inc()
                        status, content_type, extra = (
                            500, "application/json", {})
                        body = json.dumps(
                            {"error": f"{type(error).__name__}: "
                                      f"{error}"}).encode()
                label = path if path in _KNOWN_PATHS else "other"
                self._m_requests.inc(method=method, path=label,
                                     status=str(status))
                self._m_seconds.observe(
                    time.perf_counter() - started, path=label)
                keep_alive = (version == "HTTP/1.1"
                              and headers.get("connection", "").lower()
                              != "close"
                              and extra.get("Connection") != "close")
                head = [f"HTTP/1.1 {status} "
                        f"{_REASONS.get(status, 'Unknown')}",
                        f"Content-Type: {content_type}",
                        f"Content-Length: {len(body)}",
                        "Connection: "
                        + ("keep-alive" if keep_alive else "close")]
                head += [f"{name}: {value}" for name, value in extra.items()
                         if name != "Connection"]
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode()
                             + body)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError, asyncio.LimitOverrunError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("frontend not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"


__all__ = ["FrontendConfig", "TierFrontend", "WorkerDied"]
