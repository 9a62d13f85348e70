#!/usr/bin/env python
"""End-to-end serving smoke: train → bundle → serve → traffic → scrape.

What CI's ``serve-smoke`` job (``make serve-smoke``) runs.  The script

1. trains a tiny GCN on the tiny IMDB spec and exports a model bundle,
2. starts :class:`repro.serving.ServingServer` with tracing and access
   logging wired into a JSONL event sink,
3. drives real HTTP traffic: predictions (twice), an onboard, the
   health/readiness probes, and a readiness drain/restore cycle,
4. scrapes ``/metrics`` to ``SERVE_metrics.txt`` and leaves the span +
   access records in ``SERVE_trace.jsonl`` (both uploaded as CI
   artifacts),
5. validates the scrape with :func:`repro.telemetry.parse_prometheus`
   and checks the trace file: one load-time ``forward`` span (the
   engine's answer table) with per-op timings, and an
   ``http_request → batch`` chain under one trace id per prediction.

Exits non-zero on any failed check, so the job is a real gate rather
than a log producer.
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.completion import FixedAssignmentFeatures, SearchSpace  # noqa: E402
from repro.datasets import get_dataset  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.serving import (  # noqa: E402
    DatasetSpec,
    InferenceEngine,
    ServingServer,
    build_bundle,
)
from repro.telemetry import (  # noqa: E402
    EventSink,
    Tracer,
    parse_prometheus,
)
from repro.training import NodeClassificationTrainer, TrainConfig, set_seed  # noqa: E402

HIDDEN_DIM = 32
EPOCHS = 3
NUM_QUERIES = 12
METRICS_OUT = REPO / "SERVE_metrics.txt"
TRACE_OUT = REPO / "SERVE_trace.jsonl"

_failures: list = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def export_bundle(tmp_dir: Path) -> Path:
    set_seed(0)
    dataset = get_dataset("imdb", scale="tiny", seed=0)
    space = SearchSpace()
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, len(space),
                              size=dataset.missing_global_ids.shape[0])
    features = FixedAssignmentFeatures(dataset, HIDDEN_DIM, assignment,
                                       space=space)
    model = build_model("gcn", dataset, hidden_dim=HIDDEN_DIM,
                        out_dim=HIDDEN_DIM)
    NodeClassificationTrainer(model, features, dataset,
                              TrainConfig(epochs=EPOCHS, patience=10)).train()
    bundle = build_bundle(dataset, DatasetSpec("imdb", "tiny", 0), "gcn",
                          model, features, hidden_dim=HIDDEN_DIM,
                          out_dim=HIDDEN_DIM)
    return bundle.save(tmp_dir / "serve_smoke_bundle.npz")


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as reply:
            return reply.status, reply.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as reply:
        return reply.status, json.loads(reply.read())


def drive_traffic(server: ServingServer) -> None:
    print("traffic:")
    status, body = get(server.url + "/healthz")
    check(status == 200 and json.loads(body)["check"] == "liveness",
          "/healthz answers the liveness probe")
    status, body = get(server.url + "/readyz")
    check(status == 200 and json.loads(body)["status"] == "ready",
          "/readyz reports ready")

    ids = list(range(NUM_QUERIES))
    status, payload = post(server.url + "/predict", {"node_ids": ids})
    check(status == 200 and len(payload["predictions"]) == NUM_QUERIES,
          f"/predict answers {NUM_QUERIES} queries")
    status, again = post(server.url + "/predict", {"node_ids": ids})
    check(status == 200 and again["predictions"] == payload["predictions"],
          "a repeated /predict gives the same answers")

    status, onboarded = post(server.url + "/onboard", {
        "node_type": "actor",
        "edges": {"movie:stars:actor": [0, 1]},
    })
    check(status == 200 and onboarded["node_type"] == "actor",
          "/onboard adds a node online")

    server.set_ready(False)
    status, _ = get(server.url + "/readyz")
    check(status == 503, "/readyz flips to 503 while draining")
    status, _ = get(server.url + "/healthz")
    check(status == 200, "/healthz stays alive while draining")
    server.set_ready(True)
    check(get(server.url + "/readyz")[0] == 200,
          "/readyz recovers after the drain")

    status, stats = get(server.url + "/stats")
    stats = json.loads(stats)
    check(status == 200 and stats["queries"] >= 2 * NUM_QUERIES,
          "/stats sees the traffic")
    check(all(key in stats["latency"]
              for key in ("p50_ms", "p95_ms", "p99_ms")),
          "/stats reports latency percentiles")


def validate_scrape(text: str) -> None:
    print("scrape:")
    parsed = parse_prometheus(text)  # raises MetricError on bad format
    names = {name for name, _ in parsed["samples"]}
    check(bool(parsed["samples"]), "scrape parses as Prometheus 0.0.4 text")
    for family in ("engine_queries_total", "engine_batches_total",
                   "engine_forward_passes_total",
                   "engine_batch_seconds_bucket", "http_requests_total",
                   "http_request_seconds_count", "onboard_nodes_total",
                   "train_epochs_total"):
        check(family in names, f"scrape covers {family}")
    forwards = parsed["samples"].get(
        ("engine_forward_passes_total", (("kind", "table"),)), 0)
    check(forwards == 1, "the engine ran exactly one forward (at load)")


def validate_trace(path: Path) -> None:
    print("trace:")
    records = [json.loads(line) for line in
               path.read_text().splitlines() if line.strip()]
    spans = [record for record in records if record["kind"] == "span"]
    access = [record for record in records if record["kind"] == "access"]
    check(bool(access), "access log records were emitted")
    check(all(entry["trace_id"] for entry in access),
          "every access record carries a trace id")

    # the table is built by one forward at load, outside any request
    forwards = [span for span in spans if span["name"] == "forward"]
    check(len(forwards) == 1 and forwards[0]["parent_id"] is None,
          "exactly one forward span, at load")
    check(bool(forwards and forwards[0].get("attrs", {}).get("ops")),
          "the load-time forward captured per-op timings")

    # every /predict chains http_request → batch under one trace id
    by_id = {span["span_id"]: span for span in spans}
    chains = 0
    for span in spans:
        if span["name"] != "batch":
            continue
        root = by_id.get(span["parent_id"])
        if (root is not None and root["name"] == "http_request"
                and root["trace_id"] == span["trace_id"]):
            chains += 1
    check(chains == 2,
          "each traced /predict chains http_request → batch under one "
          "trace id")

    # a slow write can be explained by the size of its forward
    onboards = [span for span in spans if span["name"] == "onboard"]
    check(len(onboards) == 1
          and onboards[0]["attrs"].get("view_nodes", 0) > 0
          and onboards[0]["attrs"].get("view_edges", 0) > 0,
          "the onboard span reports the size of its receptive field")


def main() -> int:
    TRACE_OUT.unlink(missing_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        print("exporting bundle (tiny IMDB, gcn)...")
        bundle_path = export_bundle(Path(tmp))
        sink = EventSink(str(TRACE_OUT))
        engine = InferenceEngine.from_path(bundle_path, tracer=Tracer(sink))
        server = ServingServer(engine, port=0,
                               access_sink=sink).start_background()
        print(f"serving on {server.url}")
        try:
            drive_traffic(server)
            status, text = get(server.url + "/metrics")
            check(status == 200, "/metrics scrape succeeds")
            METRICS_OUT.write_text(text)
            validate_scrape(text)
        finally:
            server.shutdown()
            sink.close()
    validate_trace(TRACE_OUT)
    print(f"artifacts: {METRICS_OUT.name}, {TRACE_OUT.name}")
    if _failures:
        print(f"\nserve-smoke FAILED ({len(_failures)} checks):")
        for message in _failures:
            print(f"  - {message}")
        return 1
    print("\nserve-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
