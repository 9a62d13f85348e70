"""Tests for ``repro.telemetry`` and its integration across the stack.

Covers the ISSUE-7 acceptance criteria: exact counters under thread
hammering, shard-merge == single-process histograms, valid Prometheus
exposition from ``/metrics`` covering engine + onboarding + trainer
metrics, a traced request producing an http → batch → forward span
chain under one trace id, and ``stats()`` staying JSON-compatible
while growing p50/p95/p99.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import telemetry
from repro.serving import InferenceEngine, ModelBundle, ServingServer
from repro.telemetry import (
    EventSink,
    MetricError,
    MetricsRegistry,
    Tracer,
    merge_snapshots,
    parse_prometheus,
    percentile_from_buckets,
    render_prometheus,
)


@pytest.fixture()
def fresh_registry():
    """Swap in a clean global registry so counts are exact per test."""
    previous = telemetry.set_registry(MetricsRegistry())
    yield telemetry.get_registry()
    telemetry.set_registry(previous)


@pytest.fixture()
def engine(tiny_bundle):
    return InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                           dataset=tiny_bundle["dataset"])


def _traced_engine(tiny_bundle):
    buffer = io.StringIO()
    tracer = Tracer(EventSink(buffer))
    engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                             dataset=tiny_bundle["dataset"], tracer=tracer)
    return engine, buffer


def observations(registry, name: str) -> int:
    """Observations of histogram ``name`` over every label combination,
    read from the registry's snapshot."""
    samples = registry.snapshot()[name]["samples"]
    return sum(sample["count"] for sample in samples.values())


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labels=("kind",))
        counter.inc(kind="a")
        counter.inc(2.5, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 2.5
        assert counter.total() == 3.5

    def test_counter_rejects_decrease_and_wrong_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("kind",))
        with pytest.raises(MetricError):
            counter.inc(-1, kind="a")
        with pytest.raises(MetricError):
            counter.inc(wrong="a")
        with pytest.raises(MetricError):
            counter.inc()

    def test_acquisition_is_idempotent_but_spec_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", labels=("kind",))
        assert registry.counter("c_total", labels=("kind",)) is first
        with pytest.raises(MetricError):
            registry.counter("c_total", labels=("other",))
        with pytest.raises(MetricError):
            registry.gauge("c_total")
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(0.5, 0.1))  # not increasing
        registry.histogram("h2", buckets=(0.1, 0.5))
        with pytest.raises(MetricError):
            registry.histogram("h2", buckets=(0.1, 0.9))

    def test_gauge_aggregations(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth", aggregation="sum")
        depth.set(4)
        depth.inc(-1)
        assert depth.value() == 3
        with pytest.raises(MetricError):
            registry.gauge("g2", aggregation="median")

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        # rank interpolation: p50 falls in the (1, 2] bucket
        assert 1.0 <= hist.percentile(0.5) <= 2.0
        # the overflow bucket reports the last finite bound
        hist.observe(100.0, count=50)
        assert hist.percentile(0.99) == 4.0
        assert observations(registry, "h") == 54
        assert percentile_from_buckets((1.0,), [0, 0], 0.5) == 0.0

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("kind",)).inc(kind="x")
        registry.histogram("h").observe(0.1)
        json.dumps(registry.snapshot())


class TestSnapshotMerge:
    def test_merge_of_shards_equals_single_process(self):
        """The multi-worker aggregation contract, property-style."""
        rng = np.random.default_rng(7)
        for _ in range(5):
            values = rng.gamma(1.0, 0.01, size=400)
            kinds = rng.choice(["hit", "miss"], size=400)
            single = MetricsRegistry()
            shards = [MetricsRegistry() for _ in range(4)]
            owner = rng.integers(0, 4, size=400)
            for registry in [single] + shards:
                registry.histogram("lat", labels=("cache",))
                registry.counter("n_total", labels=("cache",))
            for value, kind, shard in zip(values, kinds, owner):
                for registry in (single, shards[shard]):
                    registry.get("lat").observe(value, cache=kind)
                    registry.get("n_total").inc(cache=kind)
            merged = merge_snapshots([s.snapshot() for s in shards])
            expected = single.snapshot()
            for label in ("hit", "miss"):
                key = json.dumps([label])
                got = merged["lat"]["samples"][key]
                want = expected["lat"]["samples"][key]
                assert got["counts"] == want["counts"]
                assert got["count"] == want["count"]
                assert got["sum"] == pytest.approx(want["sum"])
                assert (merged["n_total"]["samples"][key]
                        == expected["n_total"]["samples"][key])
            # rendering the merge is identical up to float noise in sums
            assert (parse_prometheus(render_prometheus(merged))["samples"]
                    .keys()
                    == parse_prometheus(render_prometheus(expected))
                    ["samples"].keys())

    def test_merge_rejects_conflicting_shapes(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.histogram("h", buckets=(0.1, 0.5))
        b.histogram("h", buckets=(0.1, 0.9))
        a.get("h").observe(0.2)
        b.get("h").observe(0.2)
        with pytest.raises(MetricError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_gauge_merge_follows_aggregation(self):
        shards = []
        for value in (3.0, 7.0, 5.0):
            registry = MetricsRegistry()
            registry.gauge("depth", aggregation="sum").set(value)
            registry.gauge("peak", aggregation="max").set(value)
            shards.append(registry.snapshot())
        merged = merge_snapshots(shards)
        assert merged["depth"]["samples"]["[]"] == 15.0
        assert merged["peak"]["samples"]["[]"] == 7.0


class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels=("k",)).inc(
            3, k='we"ird\\la\nbel')
        registry.gauge("g", "a gauge").set(2.5)
        registry.histogram("h", "a histogram", buckets=(0.1, 1.0)).observe(
            0.5, count=4)
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        samples = parsed["samples"]
        assert samples[("c_total", (("k", 'we"ird\\la\nbel'),))] == 3
        assert samples[("g", ())] == 2.5
        assert samples[("h_bucket", (("le", "1"),))] == 4
        assert samples[("h_count", ())] == 4
        assert parsed["meta"]["h"]["type"] == "histogram"

    def test_parser_rejects_garbage(self):
        with pytest.raises(MetricError):
            parse_prometheus("this is { not a metric")


class TestTracing:
    def test_span_nesting_and_trace_propagation(self):
        buffer = io.StringIO()
        tracer = Tracer(EventSink(buffer))
        with tracer.span("outer", a=1) as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            tracer.event("marker", x=2)
        records = [json.loads(line) for line in
                   buffer.getvalue().splitlines()]
        kinds = [record["kind"] for record in records]
        assert kinds == ["span", "event", "span"]
        assert len({record["trace_id"] for record in records}) == 1
        assert records[-1]["name"] == "outer"
        assert records[-1]["attrs"] == {"a": 1}

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(None)
        with tracer.span("anything") as span:
            span.set(ignored=True)
            assert span.trace_id is None
        tracer.event("nothing")

    def test_span_records_errors(self):
        buffer = io.StringIO()
        tracer = Tracer(EventSink(buffer))
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("boom")
        record = json.loads(buffer.getvalue())
        assert record["attrs"]["error"] == "RuntimeError"


# ----------------------------------------------------------------------
class TestConcurrency:
    def test_counters_exact_under_thread_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("worker",))
        hist = registry.histogram("h")

        def hammer(worker: int) -> None:
            for _ in range(2000):
                counter.inc(worker=str(worker))
                hist.observe(0.001)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == 8 * 2000
        assert observations(registry, "h") == 8 * 2000

    def test_engine_hammer_no_lost_increments(self, engine):
        """predict + predict_batch + stats from N threads: exact counts."""
        num_threads, rounds, ids_per_call = 6, 25, 3
        errors = []

        def hammer(worker: int) -> None:
            rng = np.random.default_rng(worker)
            try:
                for _ in range(rounds):
                    ids = rng.integers(0, 8, size=ids_per_call)
                    engine.predict(ids)
                    engine.predict_batch([int(rng.integers(0, 8))])
                    engine.stats()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        expected = num_threads * rounds * (ids_per_call + 1)
        stats = engine.stats()
        assert stats["queries"] == expected
        assert stats["cache"]["hits"] == expected
        assert engine._m_queries.total() == expected
        assert observations(engine.metrics, "engine_batch_seconds") == \
            2 * num_threads * rounds
        assert stats["forward_passes"] == 1
        # the exposition of the hammered registry still parses cleanly
        parsed = parse_prometheus(engine.metrics.render())
        assert parsed["samples"][("engine_queries_total",
                                  (("kind", "predict"),))] == expected


# ----------------------------------------------------------------------
class TestEngineTelemetry:
    def test_stats_keeps_legacy_keys_and_adds_percentiles(self, engine):
        engine.predict([0, 1, 2])
        engine.predict([0, 1, 2])
        stats = engine.stats()
        json.dumps(stats)
        for key in ("bundle", "uptime_seconds", "queries", "batches",
                    "forward_passes", "onboarded", "cache", "latency"):
            assert key in stats
        latency = stats["latency"]
        for key in ("total_batch_seconds", "mean_query_ms",
                    "queries_per_second", "p50_ms", "p95_ms", "p99_ms"):
            assert key in latency
        assert stats["queries"] == 6
        assert stats["forward_passes"] == 1
        assert stats["cache"] == {"hits": 6, "misses": 0}
        assert latency["p99_ms"] >= latency["p50_ms"] >= 0.0

    def test_batch_with_duplicates_counts_every_request(self, engine):
        engine.predict([3, 3, 3])
        assert engine.stats()["queries"] == 3
        assert engine.stats()["forward_passes"] == 1

    def test_load_forward_then_one_batch_span_per_call(self, tiny_bundle):
        engine, buffer = _traced_engine(tiny_bundle)
        records = [json.loads(line) for line in
                   buffer.getvalue().splitlines()]
        assert [record["name"] for record in records] == ["forward"]
        forward = records[0]
        assert forward["attrs"]["kind"] == "table"
        # the forward span captured op-level data via repro.tensor._profile
        assert forward["attrs"]["ops"]
        engine.predict([0])
        engine.predict([1, 2])
        records = [json.loads(line) for line in
                   buffer.getvalue().splitlines()][1:]
        assert [record["name"] for record in records] == ["batch", "batch"]
        assert [record["attrs"]["queries"] for record in records] == [1, 2]


# ----------------------------------------------------------------------
class TestServingServerTelemetry:
    @pytest.fixture()
    def server(self, tiny_bundle):
        buffer = io.StringIO()
        sink = EventSink(buffer)
        engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"],
                                 tracer=Tracer(sink))
        server = ServingServer(engine, port=0,
                               access_sink=sink).start_background()
        server.trace_buffer = buffer
        yield server
        server.shutdown()

    @staticmethod
    def _get(server, path):
        try:
            with urllib.request.urlopen(server.url + path) as reply:
                return reply.status, reply.read().decode(), dict(
                    reply.headers)
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode(), dict(error.headers)

    @staticmethod
    def _post(server, path, payload):
        request = urllib.request.Request(
            server.url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as reply:
            return reply.status, json.loads(reply.read())

    @staticmethod
    def _records(server):
        """Sink records; a request's root span and access record are
        written before its response, so no wait is needed."""
        return [json.loads(line) for line in
                server.trace_buffer.getvalue().splitlines()]

    def test_liveness_vs_readiness_split(self, server):
        status, body, _ = self._get(server, "/healthz")
        assert status == 200 and json.loads(body)["check"] == "liveness"
        status, body, _ = self._get(server, "/readyz")
        assert status == 200 and json.loads(body)["status"] == "ready"
        server.set_ready(False)
        status, body, _ = self._get(server, "/readyz")
        assert status == 503 and json.loads(body)["status"] == "unready"
        # liveness is NOT gated on readiness
        status, _, _ = self._get(server, "/healthz")
        assert status == 200
        server.set_ready(True)
        assert self._get(server, "/readyz")[0] == 200

    def test_metrics_endpoint_covers_the_stack(self, server, fresh_registry,
                                               tiny_bundle):
        # engine traffic + onboarding + a training run in-process
        self._post(server, "/predict", {"node_ids": [0, 1]})
        self._post(server, "/onboard",
                   {"node_type": "actor",
                    "edges": {"movie:stars:actor": [0, 1]}})
        from repro.completion import HandcraftedFeatures
        from repro.models import build_model
        from repro.training import NodeClassificationTrainer, TrainConfig

        dataset = tiny_bundle["dataset"]
        trainer = NodeClassificationTrainer(
            build_model("gcn", dataset, hidden_dim=8, out_dim=8),
            HandcraftedFeatures(dataset, 8), dataset,
            TrainConfig(epochs=2, patience=5))
        trainer.train()

        status, text, headers = self._get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = parse_prometheus(text)["samples"]
        names = {name for name, _ in samples}
        # engine queries, lookups, the load-time forward
        assert {"engine_queries_total", "engine_batches_total",
                "engine_forward_passes_total",
                "engine_batch_seconds_bucket"} <= names
        assert not {"engine_cache_requests_total",
                    "engine_query_seconds_bucket",
                    "engine_pending_queries"} & names
        # onboarding
        assert samples[("onboard_nodes_total",
                        (("node_type", "actor"),))] == 1
        # trainer epochs (global registry, merged into the scrape)
        assert samples[("train_epochs_total",
                        (("trainer", "full_graph"),))] == 2
        # http front end
        assert ("http_requests_total" in names
                and "http_request_seconds_count" in names)

    def test_traced_http_request_full_span_chain(self, server):
        status, _ = self._post(server, "/predict", {"node_ids": [2]})
        assert status == 200
        records = [record for record in self._records(server)
                   if record.get("kind") == "span"]
        chain = {record["name"]: record for record in records}
        # the load-time forward is its own trace; the request's is
        # http_request → batch
        assert set(chain) == {"http_request", "batch", "forward"}
        assert chain["forward"]["parent_id"] is None
        assert chain["forward"]["trace_id"] != chain["batch"]["trace_id"]
        assert chain["batch"]["trace_id"] == chain["http_request"]["trace_id"]
        assert chain["batch"]["parent_id"] == chain["http_request"]["span_id"]
        assert chain["http_request"]["attrs"]["status"] == 200

    def test_access_log_records_and_trace_header(self, server):
        status, body, headers = self._get(server, "/stats")
        assert status == 200
        assert "X-Trace-Id" in headers
        access = [record for record in self._records(server)
                  if record.get("kind") == "access"]
        assert access, "access sink got no records"
        entry = access[-1]
        assert entry["method"] == "GET"
        assert entry["path"] == "/stats"
        assert entry["status"] == 200
        assert entry["duration_ms"] >= 0
        assert entry["trace_id"] == headers["X-Trace-Id"]

    def test_unknown_paths_collapse_in_metric_labels(self, server):
        assert self._get(server, "/nope-123")[0] == 404
        assert self._get(server, "/nope-456")[0] == 404
        counter = server.engine.metrics.get("http_requests_total")
        assert counter.value(method="GET", path="<other>",
                             status="404") == 2

    def test_request_is_accounted_before_its_reply(self, tiny_bundle):
        class SlowSink(EventSink):
            def emit(self, record):
                time.sleep(0.05)  # a slow trace file delays the reply
                super().emit(record)

        buffer = io.StringIO()
        sink = SlowSink(buffer)
        engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"],
                                 tracer=Tracer(sink))
        server = ServingServer(engine, port=0,
                               access_sink=sink).start_background()
        server.trace_buffer = buffer
        try:
            assert self._post(server, "/predict", {"node_ids": [0]})[0] == 200
            # everything about the request exists once the client has
            # read its answer
            records = self._records(server)
            assert any(record.get("name") == "http_request"
                       for record in records)
            assert any(record.get("kind") == "access" for record in records)
            counter = engine.metrics.get("http_requests_total")
            assert counter.value(method="POST", path="/predict",
                                 status="200") == 1
            assert observations(engine.metrics, "http_request_seconds") == 1
        finally:
            server.shutdown()

    def test_access_log_off_by_default(self, tiny_bundle):
        engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"])
        server = ServingServer(engine, port=0).start_background()
        try:
            assert self._get(server, "/healthz")[0] == 200
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
class TestProfilerTelemetry:
    def test_profiler_publishes_tensor_op_metrics(self, fresh_registry):
        from repro.perf import Profiler
        from repro.tensor import Tensor

        with Profiler(registry=fresh_registry):
            (Tensor(np.ones((4, 4))) @ Tensor(np.ones((4, 4)))).sum()
        seconds = fresh_registry.get("tensor_op_seconds_total")
        calls = fresh_registry.get("tensor_op_calls_total")
        assert seconds is not None and calls is not None
        assert calls.total() >= 2  # matmul + sum at least
        assert seconds.total() > 0

    def test_report_to_json_shape(self):
        from repro.perf import Profiler
        from repro.tensor import Tensor

        with Profiler() as prof:
            Tensor(np.ones((2, 2))).sum()
        payload = prof.report().to_json()
        json.dumps(payload)
        assert payload["total_calls"] >= 1
        assert payload["ops"][0]["op"]


# ----------------------------------------------------------------------
class TestSchedulerTelemetry:
    def test_trial_and_journal_counters(self, fresh_registry, tmp_path):
        from repro.autotune import (DatasetRef, TrialScheduler, TuneTask,
                                    build_strategy)

        task = TuneTask(dataset=DatasetRef("imdb", "tiny", 0),
                        model_name="gcn", hidden_dim=16, out_dim=16,
                        num_slots=4, max_budget=2)
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, seed=0,
                                  num_trials=2)
        journal = tmp_path / "tune.jsonl"
        TrialScheduler(task, strategy, journal=str(journal)).run()
        trials = fresh_registry.get("tune_trials_total")
        records = fresh_registry.get("tune_journal_records_total")
        assert trials.value(status="executed") == 2
        assert records.value(kind="header") == 1
        assert records.value(kind="trial") == 2
        assert records.value(kind="footer") == 1
        assert observations(fresh_registry, "tune_trial_seconds") == 2
