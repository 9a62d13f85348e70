"""The preforked serving tier: parity, coalescing, writes, recovery.

Everything here runs REAL worker processes forked from a template
engine over the mmap-backed tiny bundle — the tests talk to the tier
exclusively through its HTTP front, like a client would.  The oracle is
always the single-process path: ``tiny_bundle["reference"]`` for base
predictions, a local :class:`InferenceEngine` for onboarding parity.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule, armed
from repro.serving import (
    FrontendConfig,
    InferenceEngine,
    ModelBundle,
    ServingTier,
    TierConfig,
)
from repro.telemetry import parse_prometheus

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the serving tier needs the fork start method")

# generous per-request budget: these tests run on arbitrarily slow CI
DEADLINE_MS = 60_000.0


@contextlib.contextmanager
def _tier(bundle_path, *, workers=2, wal_path=None, mmap=True,
          frontend=None):
    tier = ServingTier(
        bundle_path,
        TierConfig(workers=workers, mmap=mmap, wal_path=wal_path),
        frontend_config=frontend or FrontendConfig(deadline_ms=DEADLINE_MS))
    tier.start_background()
    try:
        yield tier
    finally:
        tier.shutdown()


def _post(url, path, payload, timeout=120):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url, path, timeout=120):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _raw(address, data: bytes) -> bytes:
    """Ship raw bytes at the front, return everything until it closes."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


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
        "raw_features": [fill] * raw_dim})
    return status, body


class TestTierServing:
    def test_parity_with_single_process_reference(self, tiny_bundle):
        reference = tiny_bundle["reference"]
        with _tier(tiny_bundle["path"]) as tier:
            served = _predictions(tier.url, range(len(reference)))
        np.testing.assert_array_equal(np.asarray(served), reference)

    def test_concurrent_clients_all_get_correct_answers(self, tiny_bundle):
        reference = tiny_bundle["reference"]
        ids = [[int(i) for i in np.random.default_rng(worker).integers(
            0, len(reference), size=5)] for worker in range(8)]
        results = [None] * len(ids)
        with _tier(tiny_bundle["path"]) as tier:
            def query(slot):
                results[slot] = _predictions(tier.url, ids[slot])
            threads = [threading.Thread(target=query, args=(slot,))
                       for slot in range(len(ids))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        for slot, batch in enumerate(ids):
            assert results[slot] == [int(reference[i]) for i in batch]

    def test_http_error_mapping(self, tiny_bundle):
        with _tier(tiny_bundle["path"]) as tier:
            url = tier.url
            assert _get(url, "/healthz")[0] == 200
            assert _get(url, "/readyz")[0] == 200
            assert _get(url, "/nope")[0] == 404
            assert _get(url, "/predict")[0] == 405  # GET on a POST path
            status, body, _ = _post(url, "/predict", {"node_ids": []})
            assert status == 400
            status, body, _ = _post(url, "/predict",
                                    {"node_ids": [10 ** 9]})
            assert status == 400
            assert "out of range" in body["error"]
            # still serving after every error
            assert _predictions(url, [0]) is not None

    def test_non_integer_ids_are_400(self, tiny_bundle):
        with _tier(tiny_bundle["path"], workers=1) as tier:
            for ids in ([1.75], [True], ["1"], [[1]], [None]):
                status, body, _ = _post(tier.url, "/predict",
                                        {"node_ids": ids})
                assert status == 400, ids
                assert "integers" in body["error"]
            # a bad entry coalesced with good ones fails alone
            assert _predictions(tier.url, [1]) == [
                int(tiny_bundle["reference"][1])]

    @pytest.mark.parametrize("length", [b"-5", b"abc"])
    def test_bad_content_length_is_400_and_closes(self, tiny_bundle,
                                                   length):
        with _tier(tiny_bundle["path"], workers=1) as tier:
            reply = _raw(tier.address,
                         b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n")
            head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
            assert head[0] == b"HTTP/1.1 400 Bad Request"
            assert b"Connection: close" in head
            assert b"Content-Length" in reply.split(b"\r\n\r\n", 1)[1]
            status, text = _get(tier.url, "/metrics")
        samples = parse_prometheus(text.decode())["samples"]
        assert sum(value for (name, labels), value in samples.items()
                   if name == "http_requests_total"
                   and ("status", "400") in labels) == 1.0

    def test_chunked_body_is_501_and_closes(self, tiny_bundle):
        # the chunk bytes and the GET behind them must not be answered
        # as further requests on the same socket
        with _tier(tiny_bundle["path"], workers=1) as tier:
            reply = _raw(tier.address,
                         b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         b"11\r\n{\"node_ids\": [0]}\r\n0\r\n\r\n"
                         b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert reply.count(b"HTTP/1.") == 1
            head = reply.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
            assert head[0] == b"HTTP/1.1 501 Not Implemented"
            assert b"Connection: close" in head
            status, text = _get(tier.url, "/metrics")
        samples = parse_prometheus(text.decode())["samples"]
        assert sum(value for (name, labels), value in samples.items()
                   if name == "http_requests_total"
                   and ("status", "501") in labels) == 1.0

    def test_oversized_body_is_rejected(self, tiny_bundle):
        frontend = FrontendConfig(deadline_ms=DEADLINE_MS,
                                  max_body_bytes=256)
        with _tier(tiny_bundle["path"], frontend=frontend) as tier:
            status, body, _ = _post(tier.url, "/predict",
                                    {"node_ids": list(range(1000))})
            assert status == 413

    def test_queue_full_sheds_with_retry_after(self, tiny_bundle):
        frontend = FrontendConfig(deadline_ms=DEADLINE_MS, max_queue=2)
        with _tier(tiny_bundle["path"], workers=1,
                   frontend=frontend) as tier:
            status, body, headers = _post(tier.url, "/predict",
                                          {"node_ids": [0, 1, 2]})
            assert status == 503
            assert body["reason"] == "queue-full"
            assert "Retry-After" in headers
            # a request within the bound still succeeds
            assert _predictions(tier.url, [0, 1]) == [
                int(tiny_bundle["reference"][0]),
                int(tiny_bundle["reference"][1])]

    def test_metrics_aggregates_worker_shards(self, tiny_bundle):
        with _tier(tiny_bundle["path"]) as tier:
            _predictions(tier.url, [0, 1, 2])
            _predictions(tier.url, [3])
            status, text = _get(tier.url, "/metrics")
            assert status == 200
            parsed = parse_prometheus(text.decode())
        samples = parsed["samples"]
        engine_queries = sum(
            value for (name, _), value in samples.items()
            if name == "engine_queries_total")
        assert engine_queries >= 4  # worker shards made it to the front
        assert samples[("tier_workers_alive", ())] == 2.0
        assert samples[("tier_batches_total", ())] >= 2.0
        http_ok = sum(
            value for (name, labels), value in samples.items()
            if name == "http_requests_total"
            and ("status", "200") in labels)
        assert http_ok >= 2.0

    def test_stats_reports_tier_shape(self, tiny_bundle):
        with _tier(tiny_bundle["path"]) as tier:
            status, text = _get(tier.url, "/stats")
            assert status == 200
            stats = json.loads(text)
        assert stats["tier"]["workers"] == 2
        assert stats["tier"]["writer_index"] == 0
        assert stats["tier"]["alive"] == 2
        assert len(stats["tier"]["pids"]) == 2
        assert len(set(stats["tier"]["pids"])) == 2  # real distinct procs
        roles = [worker.get("role") for worker in stats["workers"]]
        assert roles == ["writer", "reader"]


class TestCoalescing:
    def test_take_batch_coalesces_and_respects_max_batch(self):
        """Unit-level: the dispatch queue's batching rules, no processes."""
        from repro.serving.admission import Deadline
        from repro.serving.frontend import _Entry, TierFrontend

        class _StubTier:
            config = TierConfig(workers=1)

        front = TierFrontend(_StubTier(),
                             config=FrontendConfig(max_batch=4))

        async def scenario():
            import asyncio

            front._wake = asyncio.Event()
            loop = asyncio.get_event_loop()
            entries = [
                _Entry([0, 1, 2], loop.create_future(), None),
                _Entry([3, 4], loop.create_future(), None),
                _Entry([5], loop.create_future(), None),
                _Entry([6], loop.create_future(),
                       Deadline.after_ms(0.0)),  # expired in the queue
                _Entry([7], loop.create_future(), None),
            ]
            for entry in entries:
                front._enqueue(entry)
            batches = [await front._take_batch(),
                       await front._take_batch()]
            return entries, batches

        import asyncio

        entries, batches = asyncio.run(scenario())
        # [0,1,2] rides alone (adding [3,4] would exceed max_batch=4);
        # the expired entry is dropped at dispatch-pop, not shipped
        assert [[e.ids for e in batch] for batch in batches] == [
            [[0, 1, 2]], [[3, 4], [5], [7]]]
        assert entries[3].future.done()
        outcome, _ = entries[3].future.result()
        assert outcome == "deadline"  # answered 504 at dispatch-pop

    def test_slow_worker_coalesces_concurrent_requests(self, tiny_bundle):
        """Integration: with ONE worker slowed by an injected delay,
        requests that arrive while a batch is in flight must ride the
        next micro-batch together instead of going one-by-one."""
        plan = FaultPlan([FaultRule(site="tier.worker.loop",
                                    action="delay", latency_ms=400.0,
                                    keys=("predict",), max_hits=2)],
                         seed=3)
        queries = 8
        with armed(plan):
            with _tier(tiny_bundle["path"], workers=1) as tier:
                threads = [threading.Thread(
                    target=_predictions, args=(tier.url, [slot]))
                    for slot in range(queries)]
                for thread in threads:
                    thread.start()
                    time.sleep(0.02)  # all land inside the first delay
                for thread in threads:
                    thread.join(timeout=120)
                status, text = _get(tier.url, "/metrics")
        samples = parse_prometheus(text.decode())["samples"]
        batches = samples[("tier_batches_total", ())]
        assert samples[("tier_batch_queries_count", ())] == batches
        assert batches < queries  # strictly fewer batches than queries
        assert samples[("tier_batch_queries_sum", ())] == queries


class TestOnboarding:
    def test_read_your_writes_through_every_worker(self, tiny_bundle):
        dataset = tiny_bundle["dataset"]
        reference = tiny_bundle["reference"]
        with _tier(tiny_bundle["path"], workers=2) as tier:
            before = _predictions(tier.url, range(len(reference)))
            status, onboarded = _onboard_movie(tier.url, dataset,
                                               [0, 1], 0.25)
            assert status == 200, onboarded
            new_id = onboarded["node_id"]
            assert new_id == len(reference)
            # every worker serves the new node immediately — far more
            # probes than workers, so each worker answers at least once
            for _ in range(2 * tier.config.workers):
                assert _predictions(tier.url, [new_id]) == [
                    onboarded["prediction"]]
            # and the base predictions never moved
            after = _predictions(tier.url, range(len(reference)))
            assert after == before

    def test_onboard_matches_single_process_engine(self, tiny_bundle):
        dataset = tiny_bundle["dataset"]
        raw_dim = dataset.features["movie"].shape[1]
        local = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                dataset=dataset)
        expected = local.onboard("movie", {"movie:stars:actor": [0, 1]},
                                 raw_features=np.full(raw_dim, 0.25))
        local.close()
        with _tier(tiny_bundle["path"], workers=2) as tier:
            status, onboarded = _onboard_movie(tier.url, dataset,
                                               [0, 1], 0.25)
            assert status == 200
            assert onboarded["prediction"] == expected.prediction
            assert onboarded["label"] == expected.label
            assert onboarded["node_id"] == expected.local_id
            served = _predictions(tier.url, [onboarded["node_id"]])
            assert served == [expected.prediction]

    def test_onboard_validation_errors_are_client_errors(self, tiny_bundle):
        with _tier(tiny_bundle["path"]) as tier:
            status, body, _ = _post(tier.url, "/onboard", {})
            assert status == 400
            status, body, _ = _post(tier.url, "/onboard",
                                    {"node_type": "movie",
                                     "edges": {"movie:stars:actor": [0]}})
            assert status == 400  # attributed type needs raw features
            assert "raw feature" in body["error"]
            # the writer is unharmed
            assert _predictions(tier.url, [0]) is not None


class TestRecovery:
    @staticmethod
    def _wait_alive(url, want, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            stats = json.loads(_get(url, "/stats")[1])
            if stats["tier"]["alive"] >= want:
                return stats
            time.sleep(0.1)
        raise AssertionError(f"tier never returned to {want} workers")

    def test_reader_death_is_transparent_to_clients(self, tiny_bundle,
                                                    tmp_path):
        dataset = tiny_bundle["dataset"]
        reference = tiny_bundle["reference"]
        wal = tmp_path / "onboard.wal"
        with _tier(tiny_bundle["path"], workers=2,
                   wal_path=wal) as tier:
            status, onboarded = _onboard_movie(tier.url, dataset,
                                               [0, 2], 0.5)
            assert status == 200
            new_id = onboarded["node_id"]
            every_id = list(range(len(reference))) + [new_id]
            leaderboard = _predictions(tier.url, every_id)

            reader_pid = json.loads(
                _get(tier.url, "/stats")[1])["tier"]["pids"][1]
            os.kill(reader_pid, signal.SIGKILL)
            # clients keep getting answers THROUGH the death window —
            # in-flight batches requeue to the surviving worker
            for _ in range(6):
                assert _predictions(tier.url, [new_id, 0]) == [
                    onboarded["prediction"], int(reference[0])]
            stats = self._wait_alive(tier.url, 2)
            assert stats["tier"]["deaths"] >= 1
            assert stats["tier"]["respawns"] >= 1
            assert reader_pid not in stats["tier"]["pids"]
            # the respawned reader inherited the overlay from the WAL:
            # the full leaderboard (base + onboarded) is unchanged
            for _ in range(4):
                assert _predictions(tier.url, every_id) == leaderboard

    def test_writer_death_recovers_from_wal(self, tiny_bundle, tmp_path):
        dataset = tiny_bundle["dataset"]
        wal = tmp_path / "onboard.wal"
        with _tier(tiny_bundle["path"], workers=2,
                   wal_path=wal) as tier:
            status, first = _onboard_movie(tier.url, dataset, [0], 0.25)
            assert status == 200

            writer_pid = json.loads(
                _get(tier.url, "/stats")[1])["tier"]["pids"][0]
            os.kill(writer_pid, signal.SIGKILL)
            # the onboard that catches the death gets an honest 503;
            # the retry lands on the respawned writer, which replayed
            # the WAL (sequential local ids prove nothing was lost)
            deadline = time.monotonic() + 60.0
            while True:
                status, second = _onboard_movie(tier.url, dataset,
                                                [1], 0.75)
                if status == 200:
                    break
                assert status == 503
                assert time.monotonic() < deadline
                time.sleep(0.2)
            assert second["node_id"] == first["node_id"] + 1
            served = _predictions(
                tier.url, [first["node_id"], second["node_id"]])
            assert served == [first["prediction"], second["prediction"]]

    def test_respawn_can_be_disabled(self, tiny_bundle):
        tier = ServingTier(
            tiny_bundle["path"],
            TierConfig(workers=2, respawn=False),
            frontend_config=FrontendConfig(deadline_ms=DEADLINE_MS))
        tier.start_background()
        try:
            reader_pid = json.loads(
                _get(tier.url, "/stats")[1])["tier"]["pids"][1]
            os.kill(reader_pid, signal.SIGKILL)
            # traffic still flows on the survivor; capacity just drops
            for _ in range(4):
                assert _predictions(tier.url, [0]) is not None
            stats = json.loads(_get(tier.url, "/stats")[1])
            assert stats["tier"]["alive"] == 1
            assert stats["tier"]["respawns"] == 0
        finally:
            tier.shutdown()

    def test_fork_fault_on_respawn_retries_within_budget(self, tiny_bundle):
        """A respawn attempt that fails AT FORK (injected) consumes
        respawn budget but the front keeps retrying until one sticks.
        ``after=2`` spares the two boot-time forks; the parent-side
        visit counter makes the THIRD fork — the first respawn — fail."""
        plan = FaultPlan([FaultRule(site="tier.fork", action="raise",
                                    after=2, max_hits=1)],
                         seed=5)
        with armed(plan, export_env=False):
            with _tier(tiny_bundle["path"], workers=2) as tier:
                reader_pid = json.loads(
                    _get(tier.url, "/stats")[1])["tier"]["pids"][1]
                os.kill(reader_pid, signal.SIGKILL)
                for _ in range(4):
                    assert _predictions(tier.url, [0]) is not None
                stats = TestRecovery._wait_alive(tier.url, 2)
        # the first respawn hit the fork fault, the second made it
        assert stats["tier"]["deaths"] >= 1
        assert stats["tier"]["respawns"] >= 1
        assert stats["tier"]["spawned_total"] == 3


class TestEagerMode:
    def test_tier_works_without_mmap(self, tiny_bundle):
        reference = tiny_bundle["reference"]
        with _tier(tiny_bundle["path"], mmap=False) as tier:
            served = _predictions(tier.url, range(len(reference)))
        np.testing.assert_array_equal(np.asarray(served), reference)
