#!/usr/bin/env python
"""Chaos smoke: deterministic fault injection against the live stack.

What CI's ``chaos-smoke`` job (``make chaos-smoke``) runs.  Every fault
comes from a seeded :class:`repro.faults.FaultPlan`, so a failing run
replays identically.  Three phases, each leaving accounting records in
``CHAOS_report.jsonl``:

1. **serving under fire** — a live :class:`ServingServer` with a plan
   that raises at the entry of ~35% of the engine's lookup calls (the
   ``engine.flush`` site).  A
   retrying client drives predictions and proves the contract: *no
   request is ever lost without an explicit 5xx* — every attempt gets a
   definite answer, failed attempts recover on retry, and the process
   stays alive and consistent throughout.
2. **torn artifacts** — the same plan machinery corrupts the bytes of a
   bundle as they are written; loading the damaged file must raise
   :class:`BundleIntegrityError` (a torn artifact is *rejected*, never
   served), while a clean rewrite round-trips.
3. **trial-worker chaos** — an autotune search with ``kill`` faults
   shooting worker processes mid-trial must self-heal to the *identical
   leaderboard* as an undisturbed run, and resuming from its journal
   must replay every verdict without re-executing anything.

Exits non-zero on any failed check, so the job is a real gate.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.completion import FixedAssignmentFeatures, SearchSpace  # noqa: E402
from repro.faults import FaultPlan, FaultRule, armed  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.serving import (  # noqa: E402
    BundleIntegrityError,
    DatasetSpec,
    InferenceEngine,
    ModelBundle,
    ServerConfig,
    ServingServer,
    build_bundle,
)
from repro.training import NodeClassificationTrainer, TrainConfig, set_seed  # noqa: E402

HIDDEN_DIM = 32
EPOCHS = 3
NUM_REQUESTS = 40
MAX_ATTEMPTS = 10
FLUSH_FAILURE_RATE = 0.35
CHAOS_SEED = 11
REPORT_OUT = REPO / "CHAOS_report.jsonl"

_failures: list = []
_records: list = []


def check(condition: bool, message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        _failures.append(message)


def record(kind: str, **fields) -> None:
    _records.append({"kind": kind, **fields})


def export_bundle(tmp_dir: Path) -> Path:
    from repro.datasets import get_dataset

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
    return bundle.save(tmp_dir / "chaos_bundle.npz")


def post(url: str, payload: dict):
    """POST returning (status, body-dict); HTTP errors are answers too."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as reply:
        return reply.status, json.loads(reply.read())


# ---------------------------------------------------------------------------
# Phase 1: serving under fire
# ---------------------------------------------------------------------------
def phase_serving(bundle_path: Path) -> float:
    print("phase 1: serving under injected flush failures")
    plan = FaultPlan(
        [FaultRule(site="engine.flush", action="raise",
                   probability=FLUSH_FAILURE_RATE,
                   message="injected flush chaos")],
        seed=CHAOS_SEED)
    engine = InferenceEngine.from_path(bundle_path)
    server = ServingServer(engine, port=0,
                           config=ServerConfig(max_inflight=4)
                           ).start_background()
    reference = None
    failed_once = recovered = lost = answered_5xx = 0
    try:
        with armed(plan, export_env=False):
            for index in range(NUM_REQUESTS):
                node_id = index % 8
                attempts = 0
                final_status = None
                for attempts in range(1, MAX_ATTEMPTS + 1):
                    status, body = post(server.url + "/predict",
                                        {"node_ids": [node_id]})
                    final_status = status
                    if status == 200:
                        break
                    # the contract under test: a failed attempt is an
                    # explicit server-side error, never a hang or a
                    # silent drop
                    answered_5xx += 1
                    if status < 500:
                        break
                if attempts > 1:
                    failed_once += 1
                if final_status == 200 and attempts > 1:
                    recovered += 1
                if final_status != 200:
                    lost += 1
                record("request", index=index, node_id=node_id,
                       attempts=attempts, final_status=final_status)
        counters = plan.counters()["engine.flush#0"]
        print(f"  injected {counters['hits']} failures over "
              f"{counters['visits']} lookups; {failed_once} requests "
              f"needed retries, {recovered} recovered")
        check(counters["hits"] >= 3,
              "the plan actually injected flush failures")
        check(lost == 0,
              f"every request eventually succeeded ({lost} lost)")
        check(failed_once > 0 and recovered == failed_once,
              "every initially-failed request recovered via retry")
        status, body = get(server.url + "/healthz")
        check(status == 200 and body["status"] == "ok",
              "/healthz alive after the fault storm")
        # the engine still serves clean traffic once the plan is gone
        status, _ = post(server.url + "/predict",
                         {"node_ids": list(range(8))})
        check(status == 200, "fault-free traffic serves after disarm")
    finally:
        server.shutdown()
        engine.close()
    rate = (recovered / failed_once) if failed_once else 1.0
    record("phase", phase="serving", failed_once=failed_once,
           recovered=recovered, lost=lost, answered_5xx=answered_5xx,
           recovered_rate=rate)
    return rate


# ---------------------------------------------------------------------------
# Phase 2: torn artifacts
# ---------------------------------------------------------------------------
def phase_artifacts(bundle_path: Path, tmp_dir: Path) -> None:
    print("phase 2: corrupted bundle writes are rejected at load")
    bundle = ModelBundle.load(bundle_path)
    torn_path = tmp_dir / "torn_bundle.npz"
    corrupt = FaultPlan(
        [FaultRule(site="io.atomic_write", action="corrupt")],
        seed=CHAOS_SEED)
    with armed(corrupt, export_env=False):
        bundle.save(torn_path)
    rejected = False
    try:
        ModelBundle.load(torn_path)
    except BundleIntegrityError as error:
        rejected = True
        print(f"  rejected as expected: {str(error)[:72]}...")
    check(rejected, "a corrupted bundle write fails load with "
                    "BundleIntegrityError")
    # the same save path round-trips bit-exact once the fault is gone
    clean_path = tmp_dir / "clean_bundle.npz"
    bundle.save(clean_path)
    reloaded = ModelBundle.load(clean_path)
    check(reloaded.model_name == bundle.model_name,
          "a clean write of the same bundle still round-trips")
    record("phase", phase="artifacts", rejected=rejected)


# ---------------------------------------------------------------------------
# Phase 3: trial-worker chaos
# ---------------------------------------------------------------------------
def phase_autotune(tmp_dir: Path) -> None:
    print("phase 3: killed trial workers self-heal to the same result")
    if "fork" not in multiprocessing.get_all_start_methods():
        print("  skipped: no fork start method on this platform")
        record("phase", phase="autotune", skipped=True)
        return

    from repro.autotune import DatasetRef, TrialScheduler, TuneTask, build_strategy

    task = TuneTask(dataset=DatasetRef("imdb", "tiny", 0), model_name="gcn",
                    hidden_dim=16, out_dim=16, num_slots=4, max_budget=4)

    def run(journal=None, resume=False):
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, seed=3,
                                  num_trials=4)
        return TrialScheduler(task, strategy, workers=2, mp_context="fork",
                              journal=journal, resume=resume,
                              max_trial_retries=2,
                              retry_backoff_s=0.01).run()

    baseline = run()
    journal_path = tmp_dir / "chaos_tune.jsonl"
    kills = FaultPlan([FaultRule(site="worker.trial", action="kill",
                                 keys=("1:0", "3:0"))], seed=CHAOS_SEED)
    with armed(kills):  # exported: the pool workers inherit the plan
        chaotic = run(journal=journal_path)
    print(f"  worker deaths: {chaotic.stats.worker_deaths}, "
          f"retries: {chaotic.stats.retried}, "
          f"quarantined: {chaotic.stats.quarantined}")
    check(chaotic.stats.worker_deaths >= 2,
          "the kill rules actually shot workers")
    check(chaotic.stats.quarantined == 0,
          "transient deaths retried instead of quarantining")
    want = [(r.trial_id, r.score) for r in baseline.leaderboard()]
    got = [(r.trial_id, r.score) for r in chaotic.leaderboard()]
    check(want == got,
          "the self-healed leaderboard is identical to the undisturbed one")

    resumed = run(journal=journal_path, resume=True)
    check(resumed.stats.executed == 0 and resumed.stats.replayed >= 4,
          "resume replays the chaotic run's journal without re-executing")
    resumed_board = [(r.trial_id, r.score) for r in resumed.leaderboard()]
    check(resumed_board == want, "the resumed leaderboard matches too")
    record("phase", phase="autotune",
           worker_deaths=chaotic.stats.worker_deaths,
           retried=chaotic.stats.retried,
           leaderboard_identical=want == got)


def main() -> int:
    REPORT_OUT.unlink(missing_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        print("exporting bundle (tiny IMDB, gcn)...")
        bundle_path = export_bundle(tmp_dir)
        rate = phase_serving(bundle_path)
        phase_artifacts(bundle_path, tmp_dir)
        phase_autotune(tmp_dir)
    record("summary", recovered_rate=rate, checks_failed=len(_failures))
    with REPORT_OUT.open("w", encoding="utf-8") as handle:
        for entry in _records:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"artifacts: {REPORT_OUT.name}")
    if _failures:
        print(f"\nchaos-smoke FAILED ({len(_failures)} checks):")
        for message in _failures:
            print(f"  - {message}")
        return 1
    print(f"\nchaos-smoke passed (recovered-request rate: {rate:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
