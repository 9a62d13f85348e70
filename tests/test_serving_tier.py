"""The serving tier as deployed: ``repro serve`` in its own process.

Everything here starts REAL ``python -m repro serve`` processes on the
tiny bundle and talks to them exclusively over HTTP, like a client
would: parity, error mapping, framing on the wire, admission limits,
onboarding, crash recovery from the onboarding WAL and the ``serve``
flags that configure logging, tracing and deadlines.  The oracle is
always the single-process path: ``tiny_bundle["reference"]`` for base
predictions, a local :class:`InferenceEngine` for onboarding parity.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serving import InferenceEngine, ModelBundle
from repro.telemetry import parse_prometheus

SRC = Path(__file__).resolve().parents[1] / "src"

# generous per-step budget: these tests run on arbitrarily slow CI
TIMEOUT_S = 120


class _Served:
    """One ``repro serve`` process and the address it listens on."""

    def __init__(self, process, url, banner, log):
        self.process = process
        self.url = url
        host, port = url[len("http://"):].rsplit(":", 1)
        self.address = (host, int(port))
        #: what the process printed up to and including its address
        self.banner = banner
        self._log = log

    def stderr(self) -> str:
        self._log.seek(0)
        return self._log.read().decode(errors="replace")

    def drain(self) -> int:
        """SIGTERM the process and return its exit code."""
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=TIMEOUT_S)


@contextlib.contextmanager
def _serve(bundle_path, *args):
    """Start ``repro serve --port 0``, yield it, SIGTERM-drain it."""
    log = tempfile.TemporaryFile()
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--bundle",
         str(bundle_path), "--port", "0", *map(str, args)],
        stdout=subprocess.PIPE, stderr=log,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    # a process that never prints its address must not hang the suite
    watchdog = threading.Timer(TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        url, banner = None, []
        for line in process.stdout:
            banner.append(line.decode())
            match = re.search(rb"at (http://\S+:\d+) ", line)
            if match:
                url = match.group(1).decode()
                break
        watchdog.cancel()
        if url is None:
            log.seek(0)
            raise AssertionError(log.read().decode(errors="replace"))
        yield _Served(process, url, "".join(banner), log)
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        log.close()


def _post(url, path, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request,
                                    timeout=TIMEOUT_S) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url, path):
    try:
        with urllib.request.urlopen(url + path,
                                    timeout=TIMEOUT_S) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _raw(address, data: bytes) -> bytes:
    """Ship raw bytes at the server, return everything until it closes."""
    with socket.create_connection(address, timeout=TIMEOUT_S) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            # a server closing with request bytes unread may reset the
            # socket after its reply; what arrived before still counts
            pass
        return b"".join(chunks)


def _status_count(url, status: str) -> float:
    samples = parse_prometheus(_get(url, "/metrics")[1].decode())["samples"]
    return sum(value for (name, labels), value in samples.items()
               if name == "http_requests_total"
               and ("status", status) in labels)


def _predictions(url, node_ids):
    status, body, _ = _post(url, "/predict",
                            {"node_ids": [int(i) for i in node_ids]})
    assert status == 200, body
    assert body["node_ids"] == [int(i) for i in node_ids]
    return body["predictions"]


def _onboard_movie(url, dataset, actor_ids, fill):
    raw_dim = dataset.features["movie"].shape[1]
    status, body, _ = _post(url, "/onboard", {
        "node_type": "movie",
        "edges": {"movie:stars:actor": [int(i) for i in actor_ids]},
        "features": [fill] * raw_dim})
    return status, body


class TestTierServing:
    @pytest.fixture(scope="class")
    def tier(self, tiny_bundle):
        """One read-only process shared by the class (nothing onboards)."""
        with _serve(tiny_bundle["path"]) as served:
            yield served

    def test_parity_with_single_process_reference(self, tiny_bundle, tier):
        reference = tiny_bundle["reference"]
        served = _predictions(tier.url, range(len(reference)))
        np.testing.assert_array_equal(np.asarray(served), reference)

    def test_concurrent_clients_all_get_correct_answers(self, tiny_bundle,
                                                        tier):
        reference = tiny_bundle["reference"]
        ids = [[[int(i) for i in np.random.default_rng(
            8 * client + request).integers(0, len(reference), size=5)]
            for request in range(4)] for client in range(8)]
        results = [[] for _ in ids]

        def client(slot):
            # each client keeps one connection alive for all its requests
            conn = http.client.HTTPConnection(*tier.address,
                                              timeout=TIMEOUT_S)
            try:
                for batch in ids[slot]:
                    conn.request("POST", "/predict",
                                 json.dumps({"node_ids": batch}),
                                 {"Content-Type": "application/json"})
                    reply = conn.getresponse()
                    results[slot].append(
                        (reply.status, json.loads(reply.read())))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(len(ids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S)
        for slot, batches in enumerate(ids):
            assert [(status, body["predictions"])
                    for status, body in results[slot]] == [
                (200, [int(reference[i]) for i in batch])
                for batch in batches]

    def test_http_error_mapping(self, tier):
        url = tier.url
        assert _get(url, "/healthz")[0] == 200
        assert _get(url, "/readyz")[0] == 200
        assert _get(url, "/nope")[0] == 404
        assert _get(url, "/predict")[0] == 404  # no GET route there
        status, body, _ = _post(url, "/predict", {"node_ids": []})
        assert (status, body["predictions"]) == (200, [])
        status, body, _ = _post(url, "/predict", {})
        assert status == 400
        assert "node_ids" in body["error"]
        status, body, _ = _post(url, "/predict", {"node_ids": [10 ** 9]})
        assert status == 400
        assert "out of range" in body["error"]
        # still serving after every error
        assert _predictions(url, [0]) is not None

    def test_non_integer_ids_are_400(self, tiny_bundle, tier):
        for ids in ([1.75], [True], ["1"], [[1]], [None]):
            status, body, _ = _post(tier.url, "/predict", {"node_ids": ids})
            assert status == 400, ids
            assert "integers" in body["error"]
        assert _predictions(tier.url, [1]) == [
            int(tiny_bundle["reference"][1])]

    @pytest.mark.parametrize("length", [b"-5", b"abc"])
    def test_bad_content_length_is_400_and_closes(self, tier, length):
        before = _status_count(tier.url, "400")
        # the GET pipelined behind the bad request must not be answered
        reply = _raw(tier.address,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n"
                     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.count(b"HTTP/1.") == 1
        head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0] == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in head
        assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]
        assert _status_count(tier.url, "400") == before + 1

    def test_chunked_body_is_501_and_closes(self, tier):
        before = _status_count(tier.url, "501")
        # the chunk bytes and the GET behind them must not be answered
        # as further requests on the same socket
        reply = _raw(tier.address,
                     b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n"
                     b"11\r\n{\"node_ids\": [0]}\r\n0\r\n\r\n"
                     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert reply.count(b"HTTP/1.") == 1
        head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0] == b"HTTP/1.1 501 Not Implemented"
        assert b"Connection: close" in head
        assert _status_count(tier.url, "501") == before + 1

    def test_metrics_count_the_requests_served(self, tier):
        def predict_counts():
            status, text = _get(tier.url, "/metrics")
            assert status == 200
            samples = parse_prometheus(text.decode())["samples"]
            return [sum(value for (name, labels), value in samples.items()
                        if name == wanted and ("path", "/predict") in labels
                        and ("status", "400") not in labels)
                    for wanted in ("http_requests_total",
                                   "http_request_seconds_count")]

        before = predict_counts()
        _predictions(tier.url, [0, 1, 2])
        _predictions(tier.url, [3])
        after = predict_counts()
        assert [b - a for a, b in zip(before, after)] == [2.0, 2.0]

    def test_oversized_body_is_rejected(self, tiny_bundle):
        with _serve(tiny_bundle["path"], "--max-body-bytes", 256) as tier:
            status, body, _ = _post(tier.url, "/predict",
                                    {"node_ids": list(range(1000))})
            assert status == 413
            assert _predictions(tier.url, [0]) == [
                int(tiny_bundle["reference"][0])]

    def test_queue_full_sheds_with_retry_after(self, tiny_bundle):
        # the first answer is held for a second; with one request in
        # flight and no queue, the others arriving meanwhile are shed
        hold = json.dumps({"seed": 0, "rules": [{
            "site": "engine.flush", "action": "delay",
            "latency_ms": 1000, "max_hits": 1}]})
        with _serve(tiny_bundle["path"], "--max-inflight", 1,
                    "--max-queue", 0, "--fault-plan", hold) as tier:
            replies = []
            lock = threading.Lock()

            def fire(node_id):
                reply = _post(tier.url, "/predict", {"node_ids": [node_id]})
                with lock:
                    replies.append(reply)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT_S)
            shed = [(body, headers) for status, body, headers in replies
                    if status == 503]
            assert len(replies) == 6
            assert len(shed) >= 1
            assert all("queue-full" in body["error"] for body, _ in shed)
            assert all(int(headers["Retry-After"]) >= 1
                       for _, headers in shed)
            assert any(status == 200 for status, _, _ in replies)
            # a request within the bound still succeeds
            assert _predictions(tier.url, [0, 1]) == [
                int(tiny_bundle["reference"][0]),
                int(tiny_bundle["reference"][1])]


class TestOnboarding:
    def test_read_your_writes_through_every_worker(self, tiny_bundle):
        """Every connection — each served by its own handler thread —
        reads a new node as soon as its onboard returns."""
        dataset = tiny_bundle["dataset"]
        reference = tiny_bundle["reference"]
        with _serve(tiny_bundle["path"]) as tier:
            before = _predictions(tier.url, range(len(reference)))
            status, onboarded = _onboard_movie(tier.url, dataset,
                                               [0, 1], 0.25)
            assert status == 200, onboarded
            new_id = onboarded["node_id"]
            assert new_id == len(reference)
            connections = [http.client.HTTPConnection(*tier.address,
                                                      timeout=TIMEOUT_S)
                           for _ in range(4)]
            try:
                for conn in connections:
                    conn.request("POST", "/predict",
                                 json.dumps({"node_ids": [new_id]}),
                                 {"Content-Type": "application/json"})
                for conn in connections:
                    reply = conn.getresponse()
                    assert reply.status == 200
                    assert json.loads(reply.read())["predictions"] == [
                        onboarded["prediction"]]
            finally:
                for conn in connections:
                    conn.close()
            # and the base predictions never moved
            assert _predictions(tier.url, range(len(reference))) == before

    def test_onboard_matches_single_process_engine(self, tiny_bundle):
        dataset = tiny_bundle["dataset"]
        raw_dim = dataset.features["movie"].shape[1]
        local = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                dataset=dataset)
        expected = local.onboard("movie", {"movie:stars:actor": [0, 1]},
                                 raw_features=np.full(raw_dim, 0.25))
        local.close()
        with _serve(tiny_bundle["path"]) as tier:
            status, onboarded = _onboard_movie(tier.url, dataset,
                                               [0, 1], 0.25)
            assert status == 200
            assert onboarded["prediction"] == expected.prediction
            assert onboarded["label"] == expected.label
            assert onboarded["node_id"] == expected.local_id
            served = _predictions(tier.url, [onboarded["node_id"]])
            assert served == [expected.prediction]

    def test_onboard_validation_errors_are_client_errors(self, tiny_bundle):
        with _serve(tiny_bundle["path"]) as tier:
            status, body, _ = _post(tier.url, "/onboard", {})
            assert status == 400
            status, body, _ = _post(tier.url, "/onboard",
                                    {"node_type": "movie",
                                     "edges": {"movie:stars:actor": [0]}})
            assert status == 400  # attributed type needs raw features
            assert "raw feature" in body["error"]
            # the writer is unharmed
            assert _predictions(tier.url, [0]) is not None
            assert json.loads(_get(tier.url, "/readyz")[1])[
                "onboarded"] == 0


class TestRecovery:
    def test_writer_death_recovers_from_wal(self, tiny_bundle, tmp_path):
        """SIGKILL the serving process mid-life: a fresh one on the same
        WAL replays every onboard the dead one acknowledged."""
        dataset = tiny_bundle["dataset"]
        wal = tmp_path / "onboard.wal"
        with _serve(tiny_bundle["path"], "--wal", wal) as tier:
            status, first = _onboard_movie(tier.url, dataset, [0], 0.25)
            assert status == 200
            tier.process.kill()
            assert tier.process.wait(timeout=TIMEOUT_S) == -signal.SIGKILL
        with _serve(tiny_bundle["path"], "--wal", wal) as tier:
            assert "replayed 1 onboard(s)" in tier.banner
            assert _predictions(tier.url, [first["node_id"]]) == [
                first["prediction"]]
            # sequential local ids prove nothing was lost or doubled
            status, second = _onboard_movie(tier.url, dataset, [1], 0.75)
            assert status == 200
            assert second["node_id"] == first["node_id"] + 1
            served = _predictions(
                tier.url, [first["node_id"], second["node_id"]])
            assert served == [first["prediction"], second["prediction"]]

    def test_sigterm_drains_and_a_restart_replays_the_wal(self, tiny_bundle,
                                                           tmp_path):
        dataset = tiny_bundle["dataset"]
        wal = tmp_path / "onboard.wal"
        with _serve(tiny_bundle["path"], "--wal", wal) as tier:
            results = [_onboard_movie(tier.url, dataset, [i], 0.1 * i)
                       for i in range(3)]
            assert [status for status, _ in results] == [200] * 3
            assert tier.drain() == 0
        onboarded = [body for _, body in results]
        with _serve(tiny_bundle["path"], "--wal", wal) as tier:
            assert "replayed 3 onboard(s)" in tier.banner
            assert json.loads(_get(tier.url, "/readyz")[1])[
                "onboarded"] == 3
            assert _predictions(
                tier.url, [body["node_id"] for body in onboarded]) == [
                body["prediction"] for body in onboarded]


class TestServeOptions:
    """``repro serve`` flags reach the server they configure."""

    def test_access_log_records_every_request(self, tiny_bundle):
        with _serve(tiny_bundle["path"], "--access-log") as tier:
            assert _get(tier.url, "/healthz")[0] == 200
            assert _predictions(tier.url, [0]) is not None
            assert _get(tier.url, "/nope")[0] == 404
            assert tier.drain() == 0
            records = [json.loads(line)
                       for line in tier.stderr().splitlines()
                       if line.startswith("{")]
        assert [(r["kind"], r["method"], r["path"], r["status"])
                for r in records] == [
            ("access", "GET", "/healthz", 200),
            ("access", "POST", "/predict", 200),
            ("access", "GET", "/nope", 404)]
        assert all(r["duration_ms"] >= 0 for r in records)

    def test_telemetry_out_traces_every_request(self, tiny_bundle,
                                                tmp_path):
        trace = tmp_path / "trace.jsonl"
        with _serve(tiny_bundle["path"], "--telemetry-out", trace) as tier:
            trace_ids = []
            for ids in ([0], [1, 2]):
                request = urllib.request.Request(
                    tier.url + "/predict",
                    data=json.dumps({"node_ids": ids}).encode())
                with urllib.request.urlopen(
                        request, timeout=TIMEOUT_S) as response:
                    trace_ids.append(response.headers["X-Trace-Id"])
            assert tier.drain() == 0
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        roots = [span for span in spans if span["name"] == "http_request"]
        assert [span["trace_id"] for span in roots] == trace_ids
        assert all(span["parent_id"] is None for span in roots)
        assert [span["attrs"]["status"] for span in roots] == [200, 200]
        assert len(set(trace_ids)) == 2

    def test_deadline_flag_answers_504(self, tiny_bundle):
        # 50 ms budget + 500 ms injected latency at the flush site: the
        # deadline is gone by the forward checkpoint
        delay = json.dumps({"seed": 0, "rules": [{
            "site": "engine.flush", "action": "delay",
            "latency_ms": 500, "max_hits": 1}]})
        with _serve(tiny_bundle["path"], "--deadline-ms", 50,
                    "--fault-plan", delay) as tier:
            status, body, _ = _post(tier.url, "/predict", {"node_ids": [0]})
            assert status == 504
            assert "deadline" in body["error"]
            assert _get(tier.url, "/healthz")[0] == 200
            # without the latency the same request fits its budget
            assert _predictions(tier.url, [0]) == [
                int(tiny_bundle["reference"][0])]
