"""repro.faults + the robustness layers it proves.

Covers the fault-plan substrate (deterministic decisions, env
propagation, corrupt/delay/raise actions), the durable-write utilities,
bundle integrity checking, admission/deadline/breaker primitives, the
onboarding WAL, and the self-healing trial scheduler.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.faults import (
    PLAN_ENV_VAR,
    FaultInjected,
    FaultPlan,
    FaultRule,
    armed,
    fault_site,
    is_armed,
    plan_from_env,
)
from repro.io import JsonlAppender, atomic_write_bytes, read_jsonl


def plan(*rules, seed=0):
    return FaultPlan(rules, seed=seed)


class TestFaultPlan:
    def test_disarmed_site_is_identity(self):
        assert not is_armed()
        payload = b"bytes through"
        assert fault_site("engine.flush", payload=payload) is payload

    def test_raise_action_and_scoped_arming(self):
        with armed(plan(FaultRule(site="x", action="raise"))):
            assert is_armed()
            with pytest.raises(FaultInjected, match="injected fault"):
                fault_site("x")
            # other sites are untouched
            assert fault_site("y", payload=1) == 1
        assert not is_armed()

    def test_probability_stream_is_seed_deterministic(self):
        def fires(seed):
            p = plan(FaultRule(site="s", action="raise", probability=0.5),
                     seed=seed)
            out = []
            for _ in range(64):
                try:
                    p.visit("s")
                    out.append(False)
                except FaultInjected:
                    out.append(True)
            return out

        first, second = fires(seed=42), fires(seed=42)
        assert first == second
        assert fires(seed=43) != first        # seed actually matters
        assert 8 < sum(first) < 56            # roughly half fire

    def test_after_and_max_hits_window(self):
        p = plan(FaultRule(site="s", action="raise", after=2, max_hits=2))
        outcomes = []
        for _ in range(6):
            try:
                p.visit("s")
                outcomes.append("ok")
            except FaultInjected:
                outcomes.append("boom")
        assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]

    def test_keyed_rule_only_fires_on_matching_keys(self):
        p = plan(FaultRule(site="w", action="raise", keys=("3:0",)))
        p.visit("w", key="3:1")          # retry attempt — survives
        p.visit("w", key="4:0")          # different trial — survives
        p.visit("w")                     # unkeyed visit — survives
        with pytest.raises(FaultInjected):
            p.visit("w", key="3:0")

    def test_corrupt_is_deterministic_and_bounded(self):
        rule = FaultRule(site="io", action="corrupt")
        original = bytes(range(64))
        a = plan(rule, seed=9).visit("io", payload=original, key="k")
        b = plan(rule, seed=9).visit("io", payload=original, key="k")
        assert a == b and a != original
        flipped = sum(x != y for x, y in zip(a, original))
        assert 1 <= flipped <= 8

    def test_json_and_env_round_trip(self):
        original = plan(
            FaultRule(site="a", action="delay", latency_ms=5.0,
                      probability=0.25, after=1, max_hits=3),
            FaultRule(site="b", action="kill", keys=("1:0", "2:0")),
            seed=77)
        clone = FaultPlan.from_json(original.to_json())
        assert clone.to_dict() == original.to_dict()
        with armed(original):
            assert os.environ[PLAN_ENV_VAR] == original.to_json()
            from_env = plan_from_env()
            assert from_env.to_dict() == original.to_dict()
        assert PLAN_ENV_VAR not in os.environ

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="s", action="explode")

    def test_counters_account_visits_and_hits(self):
        p = plan(FaultRule(site="s", action="raise", after=1))
        p.visit("s")
        with pytest.raises(FaultInjected):
            p.visit("s")
        counts = p.counters()["s#0"]
        assert counts == {"visits": 2, "hits": 1}


class TestDurableIO:
    def test_atomic_write_replaces_and_leaves_no_residue(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"v1")
        atomic_write_bytes(target, b"v2")
        assert target.read_bytes() == b"v2"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_atomic_write_failure_cleans_tmp(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")
        with armed(plan(FaultRule(site="io.atomic_write", action="raise"))):
            with pytest.raises(FaultInjected):
                atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"          # old file intact
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_jsonl_appender_seals_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with JsonlAppender(path) as log:
            log.write({"kind": "a", "n": 1})
        # simulate a kill mid-write: torn final line, no newline
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "b", "n"')
        with JsonlAppender(path) as log:
            log.write({"kind": "c", "n": 3})
        records = read_jsonl(path)
        assert [r["kind"] for r in records] == ["a", "c"]

    def test_read_jsonl_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []


class TestBundleIntegrity:
    @pytest.mark.parametrize("corruption_seed", [1, 2, 3, 4, 5])
    def test_corrupted_bundle_never_loads(self, tiny_bundle, tmp_path,
                                          corruption_seed):
        from repro.serving import BundleIntegrityError, ModelBundle

        bundle = ModelBundle.load(tiny_bundle["path"])
        path = tmp_path / "corrupt.npz"
        with armed(plan(FaultRule(site="io.atomic_write", action="corrupt"),
                        seed=corruption_seed)):
            bundle.save(path)
        # the write went through (rename can't catch bit rot) ...
        assert path.exists()
        # ... but the load refuses to serve the torn artifact
        with pytest.raises((BundleIntegrityError, ValueError)):
            ModelBundle.load(path)

    def test_clean_round_trip_untouched(self, tiny_bundle, tmp_path):
        from repro.serving import ModelBundle

        bundle = ModelBundle.load(tiny_bundle["path"])
        path = tmp_path / "clean.npz"
        bundle.save(path)
        clone = ModelBundle.load(path)
        np.testing.assert_array_equal(clone.assignment, bundle.assignment)


class TestAdmission:
    def test_deadline_expiry_and_scope(self):
        from repro.serving import Deadline, DeadlineExceeded
        from repro.serving.admission import check_deadline, deadline_scope

        ticks = iter([0.0, 0.0, 0.2])
        deadline = Deadline.after_ms(100, clock=lambda: next(ticks))
        with deadline_scope(deadline):
            check_deadline()                 # 0.0 < 0.1 — fine
            with pytest.raises(DeadlineExceeded, match="at forward"):
                check_deadline("forward")    # 0.2 > 0.1 — expired
        check_deadline()                     # no ambient deadline again

    def test_admission_sheds_beyond_queue(self):
        from repro.serving import AdmissionController, ShedError

        gate = AdmissionController(max_inflight=1, max_queue=0)
        with gate.admit():
            assert gate.inflight == 1
            with pytest.raises(ShedError, match="queue-full"):
                with gate.admit():
                    pass
        assert gate.inflight == 0
        with gate.admit():                   # slot freed — admitted again
            pass

    def test_queue_timeout_sheds(self):
        from repro.serving import AdmissionController, ShedError

        gate = AdmissionController(max_inflight=1, max_queue=4)
        with gate.admit():
            with pytest.raises(ShedError, match="queue-timeout"):
                with gate.admit(timeout_s=0.01):
                    pass

    def test_draining_sheds_new_arrivals(self):
        from repro.serving import AdmissionController, ShedError

        gate = AdmissionController(max_inflight=2, max_queue=2)
        gate.drain()
        with pytest.raises(ShedError, match="draining"):
            with gate.admit():
                pass
        assert gate.wait_idle(timeout_s=0.1)

    def test_circuit_breaker_transitions(self):
        from repro.serving import CircuitBreaker, CircuitOpenError

        clock = {"now": 0.0}
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0,
                                 clock=lambda: clock["now"])

        def call(fail):
            with breaker.guard():
                if fail:
                    raise RuntimeError("downstream broken")

        call(fail=False)
        assert breaker.state == "closed"
        for _ in range(2):
            with pytest.raises(RuntimeError):
                call(fail=True)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            call(fail=False)
        assert excinfo.value.retry_after_s == pytest.approx(10.0)
        clock["now"] = 11.0                  # cooldown elapsed → half-open
        assert breaker.state == "half-open"
        with pytest.raises(RuntimeError):
            call(fail=True)                  # failed probe re-opens
        assert breaker.state == "open"
        clock["now"] = 25.0
        call(fail=False)                     # successful probe closes
        assert breaker.state == "closed"


class TestOnboardWAL:
    def _onboard_request(self, engine):
        graph = engine.dataset.graph
        target = engine.bundle.target_type
        relation = next(rel for rel in graph.relations
                        if target in (rel[0], rel[2]))
        other = relation[2] if relation[0] == target else relation[0]
        node_type = other if engine.dataset.features[other] is None else target
        # onboard an attribute-less node so the completion path runs too
        for rel in graph.relations:
            if node_type in (rel[0], rel[2]):
                peer = rel[2] if rel[0] == node_type else rel[0]
                return (node_type,
                        {":".join(rel): [0, 1 % graph.num_nodes_of(peer)]})
        raise AssertionError("no relation touches the chosen type")

    def test_wal_replay_rebuilds_identical_overlay(self, tiny_bundle,
                                                   tmp_path):
        from repro.serving import InferenceEngine, ModelBundle

        wal_path = tmp_path / "onboard.wal"
        first = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                dataset=tiny_bundle["dataset"])
        assert first.attach_wal(wal_path) == 0
        node_type, edges = self._onboard_request(first)
        result = first.onboard(node_type, edges)
        first.close()
        assert read_jsonl(wal_path)          # durably logged

        # "crash": a brand-new engine process loads the same bundle and
        # replays the WAL — the overlay must be bit-identical
        second = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"])
        assert second.attach_wal(wal_path) == 1
        replayed = second._onboarding.result(node_type, result.local_id)
        assert replayed.cluster == result.cluster
        assert replayed.op_name == result.op_name
        assert replayed.prediction == result.prediction
        if result.embedding is not None:
            np.testing.assert_allclose(replayed.embedding, result.embedding)
        assert second.num_onboarded == 1
        second.close()

    def test_replay_is_not_reappended(self, tiny_bundle, tmp_path):
        from repro.serving import InferenceEngine, ModelBundle

        wal_path = tmp_path / "onboard.wal"
        first = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                dataset=tiny_bundle["dataset"])
        first.attach_wal(wal_path)
        node_type, edges = self._onboard_request(first)
        first.onboard(node_type, edges)
        first.close()
        before = len(read_jsonl(wal_path))
        second = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"])
        second.attach_wal(wal_path)
        second.close()
        assert len(read_jsonl(wal_path)) == before

    def test_double_attach_rejected(self, tiny_bundle, tmp_path):
        from repro.serving import InferenceEngine, ModelBundle

        engine = InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                                 dataset=tiny_bundle["dataset"])
        engine.attach_wal(tmp_path / "a.wal")
        with pytest.raises(ValueError, match="already has a WAL"):
            engine.attach_wal(tmp_path / "b.wal")
        engine.close()


def _tiny_task(**overrides):
    from repro.autotune import DatasetRef, TuneTask

    defaults = dict(dataset=DatasetRef("imdb", "tiny", 0), model_name="gcn",
                    hidden_dim=16, out_dim=16, num_slots=4, max_budget=4)
    defaults.update(overrides)
    return TuneTask(**defaults)


def _run_tune(journal=None, resume=False, workers=2, retries=2,
              trials=4, timeout=None):
    from repro.autotune import TrialScheduler, build_strategy

    task = _tiny_task()
    strategy = build_strategy("random", num_slots=task.num_slots,
                              num_ops=task.num_ops,
                              max_budget=task.max_budget, seed=3,
                              num_trials=trials)
    scheduler = TrialScheduler(task, strategy, workers=workers,
                               mp_context="fork", journal=journal,
                               resume=resume, max_trial_retries=retries,
                               retry_backoff_s=0.01,
                               trial_timeout_s=timeout)
    return scheduler.run()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill injection relies on fork inheriting the armed plan")


@needs_fork
class TestSelfHealingScheduler:
    def test_killed_workers_retry_to_identical_leaderboard(self):
        baseline = _run_tune()
        kill_plan = plan(FaultRule(site="worker.trial", action="kill",
                                   keys=("1:0", "3:0")))
        with armed(kill_plan):
            healed = _run_tune()
        assert healed.stats.worker_deaths >= 2
        assert healed.stats.retried >= 2
        assert healed.stats.quarantined == 0
        want = [(r.trial_id, r.score) for r in baseline.leaderboard()]
        got = [(r.trial_id, r.score) for r in healed.leaderboard()]
        assert got == want                   # deaths invisible in the result

    def test_poison_trial_quarantined_and_resume_replays_it(self, tmp_path):
        from repro.autotune import TrialJournal

        journal = tmp_path / "quarantine.jsonl"
        poison = plan(FaultRule(site="worker.trial", action="kill",
                                keys=("1:0", "1:1", "1:2")))
        with armed(poison):
            report = _run_tune(journal=journal, retries=2)
        assert report.stats.quarantined == 1
        sick = next(r for r in report.results if r.trial_id == 1)
        assert sick.status == "quarantined" and sick.failed
        assert 1 not in {r.trial_id for r in report.leaderboard()}
        # the verdict is journaled: resume replays it, never re-executes
        journaled = {entry["trial"]["trial_id"]: entry["result"]["status"]
                     for entry in TrialJournal.read(journal)[1]}
        assert journaled[1] == "quarantined"
        resumed = _run_tune(journal=journal, resume=True)
        assert resumed.stats.replayed == 4 and resumed.stats.executed == 0
        want = [(r.trial_id, r.score) for r in report.leaderboard()]
        got = [(r.trial_id, r.score) for r in resumed.leaderboard()]
        assert got == want

    def test_no_retries_preserves_transient_death_semantics(self):
        kill_plan = plan(FaultRule(site="worker.trial", action="kill",
                                   keys=("2:0",)))
        with armed(kill_plan):
            report = _run_tune(retries=0)
        dead = [r for r in report.results if r.status == "worker_died"]
        assert dead and report.stats.retried == 0

    def test_hung_trial_times_out_without_stalling_the_run(self):
        hang = plan(FaultRule(site="worker.trial", action="delay",
                              latency_ms=8_000, keys=("0:0",)))
        with armed(hang):
            report = _run_tune(trials=2, timeout=3.0, retries=0)
        assert report.stats.timeouts == 1
        hung = next(r for r in report.results if r.trial_id == 0)
        assert hung.failed and "timeout" in hung.error
        survivor = next(r for r in report.results if r.trial_id == 1)
        assert not survivor.failed
