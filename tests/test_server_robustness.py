"""ServingServer under hostile traffic, overload, and injected faults.

The recurring assertion shape: abuse the server, then prove ``/healthz``
still answers 200 — one bad request (or one bad client) must never take
the serving thread pool down.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro.faults import FaultPlan, FaultRule, armed
from repro.serving import (
    InferenceEngine,
    ModelBundle,
    ServerConfig,
    ServingServer,
)
from repro.telemetry import parse_prometheus


@pytest.fixture()
def engine(tiny_bundle):
    return InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                           dataset=tiny_bundle["dataset"])


def _server(engine, **config_kwargs):
    config = ServerConfig(**config_kwargs)
    return ServingServer(engine, port=0, config=config).start_background()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload, headers=None):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error


def _raw(server, data: bytes, shutdown_write=True) -> bytes:
    """Ship raw bytes at the server socket, return whatever comes back."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        sock.settimeout(10)
        chunks = []
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
        return b"".join(chunks)


def _assert_alive(server):
    status, payload = _get(server, "/healthz")
    assert status == 200 and payload["status"] == "ok"


class TestMalformedTraffic:
    @pytest.fixture()
    def server(self, engine):
        server = _server(engine)
        yield server
        server.shutdown()

    def test_invalid_json_body_is_400(self, server):
        reply = _raw(server,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 9\r\n\r\n{\"node_id")
        assert b"400" in reply.split(b"\r\n", 1)[0]
        _assert_alive(server)

    def test_truncated_body_is_400_not_a_hang(self, server):
        # Content-Length promises 50 bytes, the client sends 10 and
        # half-closes: the read comes up short and must answer, not block
        reply = _raw(server,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: 50\r\n\r\n0123456789")
        assert b"400" in reply.split(b"\r\n", 1)[0]
        _assert_alive(server)

    def test_client_disconnect_mid_request_is_survived(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 5000\r\n\r\npartial")
            # hard close with the body unsent (RST, not FIN-drain)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        _assert_alive(server)

    def test_unsupported_method_is_501(self, server):
        reply = _raw(server, b"PUT /predict HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 0\r\n\r\n")
        assert b"501" in reply.split(b"\r\n", 1)[0]
        _assert_alive(server)

    def test_chunked_body_is_501_and_closes(self, server):
        # unsupported chunked framing: if the server ignored the header,
        # the chunk bytes and the GET behind them would be answered as
        # further requests on the same socket
        reply = _raw(server,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n"
                     b"11\r\n{\"node_ids\": [0]}\r\n0\r\n\r\n"
                     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.count(b"HTTP/1.") == 1
        head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert b" 501 " in head[0]
        assert b"Connection: close" in head
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=10) as response:
            samples = parse_prometheus(response.read().decode())["samples"]
        assert sum(value for (name, labels), value in samples.items()
                   if name == "http_requests_total"
                   and ("status", "501") in labels) == 1.0
        _assert_alive(server)

    def test_garbage_request_line_is_rejected(self, server):
        reply = _raw(server, b"\x00\x01GARBAGE\r\n\r\n")
        status_line = reply.split(b"\r\n", 1)[0] if reply else b""
        assert b"200" not in status_line
        _assert_alive(server)

    def test_unknown_paths_are_404(self, server):
        status, payload, _ = _post(server, "/train", {})
        assert status == 404 and "unknown path" in payload["error"]
        _assert_alive(server)

    def test_non_object_json_is_400(self, server):
        status, payload, _ = _post(server, "/predict", [1, 2, 3])
        assert status == 400 and "JSON object" in payload["error"]
        _assert_alive(server)


class TestBodyLimit:
    def test_oversized_body_is_413(self, engine):
        server = _server(engine, max_body_bytes=256)
        try:
            status, payload, _ = _post(
                server, "/predict", {"node_ids": list(range(200))})
            assert status == 413
            assert "exceeds" in payload["error"]
            # within the limit still works
            status, payload, _ = _post(server, "/predict", {"node_ids": [0]})
            assert status == 200
            _assert_alive(server)
        finally:
            server.shutdown()

    def test_oversized_body_is_refused_unread(self, engine):
        # the 413 must come back even if the client never sends the
        # body — proof the server rejects on the header alone
        server = _server(engine, max_body_bytes=256)
        try:
            reply = _raw(server,
                         b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 10000000\r\n\r\n",
                         shutdown_write=False)
            assert b"413" in reply.split(b"\r\n", 1)[0]
            _assert_alive(server)
        finally:
            server.shutdown()


class TestDeadlines:
    def test_expired_deadline_is_504(self, engine):
        # 5 ms budget + 150 ms injected latency at the flush site: the
        # deadline is gone by the forward checkpoint, every time
        delay = FaultPlan([FaultRule(site="engine.flush", action="delay",
                                     latency_ms=150)])
        server = _server(engine, deadline_ms=5.0)
        try:
            with armed(delay, export_env=False):
                status, payload, _ = _post(server, "/predict",
                                           {"node_ids": [0]})
            assert status == 504
            assert "deadline" in payload["error"]
            _assert_alive(server)
            # without the latency the same request fits its budget
            status, _, _ = _post(server, "/predict", {"node_ids": [0]})
            assert status == 200
        finally:
            server.shutdown()


class TestLoadShedding:
    def test_overload_sheds_503_with_retry_after(self, engine):
        delay = FaultPlan([FaultRule(site="engine.flush", action="delay",
                                     latency_ms=400, max_hits=1)])
        server = _server(engine, max_inflight=1, max_queue=0)
        statuses, retry_after = [], []
        lock = threading.Lock()

        def fire(node_id):
            status, _, response = _post(server, "/predict",
                                        {"node_ids": [node_id]})
            with lock:
                statuses.append(status)
                if status == 503:
                    retry_after.append(response.headers.get("Retry-After"))

        try:
            with armed(delay, export_env=False):
                threads = [threading.Thread(target=fire, args=(i,))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert statuses.count(200) >= 1          # someone got served
            assert statuses.count(503) >= 1          # someone was shed
            assert all(value and int(value) >= 1 for value in retry_after)
            # health stays answerable while POSTs are saturated
            _assert_alive(server)
            shed = engine.metrics.snapshot().get("http_requests_shed_total")
            assert shed is not None
            assert sum(shed["samples"].values()) >= 1
        finally:
            server.shutdown()


class TestCircuitBreaker:
    def test_onboard_breaker_opens_after_repeated_failures(self, engine):
        boom = FaultPlan([FaultRule(site="onboard.apply", action="raise",
                                    message="disk on fire")])
        server = _server(engine, breaker_failures=2, breaker_cooldown_s=60)
        payload = {"node_type": "nope", "edges": {}}
        try:
            with armed(boom, export_env=False):
                first = [_post(server, "/onboard", payload)[0]
                         for _ in range(2)]
                assert first == [500, 500]           # real failures surface
                status, body, response = _post(server, "/onboard", payload)
                assert status == 503                 # breaker now open
                assert "circuit-open" in body["error"]
                assert int(response.headers["Retry-After"]) >= 1
            # the breaker guards /onboard only — /predict is unaffected
            status, _, _ = _post(server, "/predict", {"node_ids": [0]})
            assert status == 200
            _assert_alive(server)
        finally:
            server.shutdown()


class TestShutdown:
    def test_shutdown_reports_dead_thread_and_sheds_late_posts(self, engine):
        server = _server(engine)
        _assert_alive(server)
        server.shutdown()
        # the serve thread is joined and verified dead — shutdown() would
        # have raised otherwise; the socket is closed
        assert server._thread is None
        with pytest.raises((ConnectionRefusedError, OSError)):
            _get(server, "/healthz")

    def test_drained_server_sheds_posts_before_socket_close(self, engine):
        server = _server(engine)
        try:
            server.admission.drain()
            status, payload, _ = _post(server, "/predict", {"node_ids": [0]})
            assert status == 503 and "draining" in payload["error"]
            # liveness still answers during the drain window
            _assert_alive(server)
        finally:
            server.shutdown()

    def test_sigterm_drain_stops_accepting_then_exits(self, engine):
        # in-process analogue of the SIGTERM path: the drainer thread
        # calls shutdown() while the accept loop is running
        server = _server(engine)
        _assert_alive(server)
        drainer = threading.Thread(target=server.shutdown)
        drainer.start()
        drainer.join(timeout=10)
        assert not drainer.is_alive()
        with pytest.raises((ConnectionRefusedError, OSError)):
            _get(server, "/healthz")
