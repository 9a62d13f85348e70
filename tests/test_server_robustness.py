"""ServingServer under hostile traffic, overload, and injected faults.

The recurring assertion shape: abuse the server, then prove ``/healthz``
still answers 200 — one bad request (or one bad client) must never take
the serving thread pool down.  Connections are persistent, so framing
tests also count the responses a socket gets: a request whose body the
server did not read must never yield a second, smuggled response.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule, armed
from repro.serving import (
    InferenceEngine,
    ModelBundle,
    ServerConfig,
    ServingServer,
)
from repro.serving import server as server_module
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
        except (socket.timeout, ConnectionResetError):
            # a server closing with request bytes unread may reset the
            # socket after its reply; what arrived before still counts
            pass
        return b"".join(chunks)


def _responses(data: bytes):
    """Split a socket transcript into ``(status, headers, body)`` replies."""
    stream = io.BytesIO(data)
    replies = []
    while True:
        status_line = stream.readline()
        if not status_line:
            return replies
        headers = http.client.parse_headers(stream)
        body = stream.read(int(headers["Content-Length"]))
        replies.append((int(status_line.split()[1]), headers, body))


def _http_status_count(server, status):
    with urllib.request.urlopen(server.url + "/metrics",
                                timeout=10) as response:
        samples = parse_prometheus(response.read().decode())["samples"]
    return sum(value for (name, labels), value in samples.items()
               if name == "http_requests_total"
               and ("status", status) in labels)


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
        assert _http_status_count(server, "501") == 1.0
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


class TestFraming:
    """One response per request on a persistent connection.

    Each probe pipelines a second request behind one the server refuses
    or answers without reading its body.  Were the unread bytes left on
    the reused socket, they would be parsed as a further request and
    answered; the server must close instead.
    """

    @pytest.fixture()
    def server(self, engine):
        server = _server(engine)
        yield server
        server.shutdown()

    @pytest.mark.parametrize("header", [
        b"Content-Length: -5",
        b"Content-Length: +5",
        b"Content-Length:\r\n 5",      # folded: the value is " 5"
        b"Content-Length: abc",
        b"Content-Length: 5\r\nContent-Length: 6",
    ], ids=["-5", "+5", "folded-5", "abc", "two-lengths"])
    def test_bad_content_length_is_400_and_closes(self, server, header):
        reply = _raw(server,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n" + header
                     + b"\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        replies = _responses(reply)
        assert [status for status, _, _ in replies] == [400]
        assert replies[0][1]["Connection"] == "close"
        assert "Content-Length" in json.loads(replies[0][2])["error"]
        assert _http_status_count(server, "400") == 1.0
        _assert_alive(server)

    @pytest.mark.parametrize("path,status", [("/healthz", 200),
                                             ("/nope", 404)])
    def test_get_with_a_body_is_answered_once_and_closes(self, server,
                                                          path, status):
        smuggled = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        reply = _raw(server,
                     b"GET " + path.encode() + b" HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: %d\r\n\r\n" % len(smuggled)
                     + smuggled)
        replies = _responses(reply)
        assert [code for code, _, _ in replies] == [status]
        assert replies[0][1]["Connection"] == "close"

    @pytest.mark.parametrize("request_bytes,status", [
        # refused on the header: the 300 body bytes and the GET behind
        # them stay unread
        (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 300\r\n\r\n" + b" " * 300
         + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 413),
        # the body ends before its Content-Length (the client half-closes)
        (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 50\r\n\r\n{\"node_ids\": [0]}", 400),
    ], ids=["oversized", "truncated"])
    def test_unread_body_reply_closes(self, engine, request_bytes, status):
        server = _server(engine, max_body_bytes=256)
        try:
            replies = _responses(_raw(server, request_bytes))
            assert [code for code, _, _ in replies] == [status]
            assert replies[0][1]["Connection"] == "close"
            _assert_alive(server)
        finally:
            server.shutdown()

    def test_shed_post_with_a_pipelined_request_gets_one_response(
            self, engine):
        hold = FaultPlan([FaultRule(site="engine.flush", action="delay",
                                    latency_ms=1000, max_hits=1)])
        server = _server(engine, max_inflight=1, max_queue=0)
        try:
            with armed(hold, export_env=False):
                holder = threading.Thread(
                    target=_post, args=(server, "/predict",
                                        {"node_ids": [0]}))
                holder.start()
                deadline = time.monotonic() + 10
                while (server.admission.inflight < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                body = b'{"node_ids": [1]}'
                reply = _raw(server,
                             b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body
                             + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                holder.join(timeout=10)
            replies = _responses(reply)
            assert [status for status, _, _ in replies] == [503]
            assert replies[0][1]["Connection"] == "close"
            assert "queue-full" in json.loads(replies[0][2])["error"]
        finally:
            server.shutdown()


class TestKeepAlive:
    def test_concurrent_keep_alive_clients_match_the_engine(self, engine):
        n = engine.dataset.graph.num_nodes_of(engine.bundle.target_type)
        batches = [[[int(i) for i in np.random.default_rng(
            8 * client + request).integers(0, n, size=5)]
            for request in range(4)] for client in range(8)]

        def answer(ids):
            results = engine.predict_batch(ids)
            return {"node_ids": ids,
                    "predictions": [e["prediction"] for e in results],
                    "labels": [e["label"] for e in results]}

        expected = [[answer(ids) for ids in client] for client in batches]
        server = _server(engine)
        answers = [[] for _ in batches]
        sockets = [set() for _ in batches]

        def client(slot):
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for ids in batches[slot]:
                    conn.request("POST", "/predict",
                                 json.dumps({"node_ids": ids}),
                                 {"Content-Type": "application/json"})
                    reply = conn.getresponse()
                    answers[slot].append((reply.status,
                                          json.loads(reply.read())))
                    sockets[slot].add(id(conn.sock))
            finally:
                conn.close()

        try:
            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            server.shutdown()
        for slot, want in enumerate(expected):
            assert answers[slot] == [(200, body) for body in want]
            assert len(sockets[slot]) == 1  # every request on one socket

    def test_pipelined_requests_are_answered_in_order(self, engine):
        server = _server(engine)
        try:
            requests = b""
            for ids in ([3], [0, 1], [2]):
                body = json.dumps({"node_ids": ids}).encode()
                requests += (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body)
            replies = _responses(_raw(server, requests))
        finally:
            server.shutdown()
        assert [status for status, _, _ in replies] == [200, 200, 200]
        assert [json.loads(body)["node_ids"] for _, _, body in replies] == [
            [3], [0, 1], [2]]
        assert all(headers["Connection"] is None
                   for _, headers, _ in replies)


class TestIdleTimeout:
    def test_silent_connections_are_closed_and_counted(self, engine,
                                                       monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        server = _server(engine)

        def timeouts():
            series = engine.metrics.snapshot()["http_idle_timeouts_total"]
            return sum(series["samples"].values())

        try:
            # headers that never finish: closed without a reply
            assert _raw(server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
                        shutdown_write=False) == b""
            assert timeouts() == 1
            # a served request, then silence on the kept-alive socket
            replies = _responses(_raw(
                server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                shutdown_write=False))
            assert [status for status, _, _ in replies] == [200]
            assert timeouts() == 2
            # a body that stops part-way: 408, then closed
            replies = _responses(_raw(
                server, b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: 20\r\n\r\n{\"node",
                shutdown_write=False))
            assert [status for status, _, _ in replies] == [408]
            assert replies[0][1]["Connection"] == "close"
            assert timeouts() == 3
            _assert_alive(server)
        finally:
            server.shutdown()


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

    def test_unready_server_closes_kept_alive_connections(self, engine):
        server = _server(engine)
        try:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.getheader("Connection") is None  # kept alive
            server.set_ready(False)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            assert reply.status == 200
            assert reply.getheader("Connection") == "close"
            conn.close()
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
