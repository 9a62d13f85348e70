"""Tests for repro.runs: timelines, stoppers, run registry, HTML reports."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotune import (
    AllStopper,
    AnyStopper,
    DatasetRef,
    MaxTrialsStopper,
    ProgressThresholdStopper,
    TargetScoreStopper,
    Trial,
    TrialJournal,
    TrialResult,
    TrialScheduler,
    TuneTask,
    build_strategy,
)
from repro.experiments.reporting import render_run_diff, render_runs_index
from repro.runs import (
    MetricTimeline,
    RunRecord,
    RunRegistry,
    fingerprint_diff,
    render_report,
    write_report,
)
from repro.training.metrics import alpha_entropy


def tiny_task(**overrides) -> TuneTask:
    defaults = dict(dataset=DatasetRef("imdb", "tiny", 0), model_name="gcn",
                    hidden_dim=16, out_dim=16, num_slots=4, max_budget=4)
    defaults.update(overrides)
    return TuneTask(**defaults)


def told(trial_id: int, score, failed: bool = False) -> tuple:
    trial = Trial(trial_id=trial_id, budget=4, seed=trial_id)
    result = TrialResult(trial_id=trial_id,
                         score=None if failed else float(score),
                         status="failed" if failed else "completed")
    return trial, result


def write_synthetic_journal(path, seed=0, trials=3, stopped=None,
                            with_timelines=True):
    """A hand-built journal: fixed scores, no training involved."""
    fingerprint = {
        "task": {"dataset": {"name": "imdb", "scale": "tiny", "seed": seed},
                 "model_name": "gcn", "num_slots": 4, "max_budget": 4,
                 "hidden_dim": 16},
        "strategy": {"strategy": "random", "seed": seed,
                     "num_trials": trials},
    }
    journal = TrialJournal(path)
    journal.open(fingerprint)
    for trial_id in range(trials):
        score = round(0.3 + 0.1 * ((trial_id * 7 + seed) % 5), 4)
        trial = Trial(trial_id=trial_id, budget=4, seed=100 + trial_id,
                      ops=[trial_id % 4] * 4, rung=0)
        result = TrialResult(trial_id=trial_id, score=score,
                             macro_f1=score - 0.05, micro_f1=score + 0.01,
                             budget_used=4, seconds=1.5, seed=trial.seed,
                             rung=0, ops=trial.ops)
        journal.append_trial(trial.to_dict(), result.to_dict())
        if with_timelines:
            timeline = MetricTimeline(trial_id=trial_id)
            timeline.add_curve("retrain/val_macro_f1",
                               [score - 0.2, score - 0.1, score])
            timeline.add_curve("retrain/train_loss", [1.0, 0.7, 0.5])
            timeline.add_event("rung", rung=0, budget=4, budget_used=4,
                               parent_id=None)
            journal.append_timeline(timeline.to_dict())
    journal.append_footer({"stats": {"executed": trials, "replayed": 0,
                                     "failed": 0, "batches": 1,
                                     "worker_deaths": 0},
                           "stopped": stopped})
    journal.close()
    return fingerprint


class TestAlphaEntropy:
    def test_uniform_rows_hit_log_num_ops(self):
        alpha = np.full((6, 4), 0.25)
        assert alpha_entropy(alpha) == pytest.approx(np.log(4))

    def test_collapsed_box_row_reads_zero(self):
        alpha = np.zeros((3, 4))
        alpha[:, 1] = 1.0
        assert alpha_entropy(alpha) == pytest.approx(0.0, abs=1e-9)

    def test_negative_values_take_softmax_branch(self):
        logits = np.array([[10.0, -10.0, -10.0, -10.0]])
        assert alpha_entropy(logits) == pytest.approx(0.0, abs=1e-6)
        flat = np.zeros((2, 4))  # zero logits → uniform softmax
        assert alpha_entropy(flat) == pytest.approx(np.log(4), rel=1e-6)

    def test_degenerate_inputs_read_zero(self):
        assert alpha_entropy(np.zeros((0, 4))) == 0.0
        assert alpha_entropy(np.zeros(5)) == 0.0


class TestMetricTimeline:
    def test_roundtrip_and_sorted_curves(self):
        timeline = MetricTimeline(trial_id=7)
        timeline.add_curve("zeta", [1, 2])
        timeline.add_curve("alpha", [3.0])
        timeline.add_event("rung", rung=1, budget=8)
        payload = timeline.to_dict()
        assert list(payload["curves"]) == ["alpha", "zeta"]
        assert payload["curves"]["zeta"] == [1.0, 2.0]
        back = MetricTimeline.from_dict(json.loads(json.dumps(payload)))
        assert back.trial_id == 7
        assert back.curves == {"alpha": [3.0], "zeta": [1.0, 2.0]}
        assert back.events[0]["kind"] == "rung"

    def test_empty_curves_are_skipped(self):
        timeline = MetricTimeline(trial_id=0)
        timeline.add_curve("empty", [])
        assert timeline.curves == {}
        assert timeline.epochs == 0

    def test_epochs_is_longest_curve(self):
        timeline = MetricTimeline(trial_id=0)
        timeline.add_curve("a", [1, 2, 3])
        timeline.add_curve("b", [1])
        assert timeline.epochs == 3


class TestStoppers:
    def test_progress_fires_after_patience_stale_trials(self):
        stopper = ProgressThresholdStopper(patience=2)
        assert stopper.update(*told(0, 0.5)) is None  # first → improvement
        assert stopper.update(*told(1, 0.4)) is None  # stale 1
        reason = stopper.update(*told(2, 0.5))        # tie is NOT progress
        assert reason is not None and "no improvement" in reason

    def test_progress_improvement_resets_patience(self):
        stopper = ProgressThresholdStopper(patience=2)
        stopper.update(*told(0, 0.5))
        stopper.update(*told(1, 0.4))
        assert stopper.update(*told(2, 0.6)) is None  # reset
        assert stopper.update(*told(3, 0.1)) is None
        assert stopper.update(*told(4, 0.1)) is not None

    def test_progress_min_delta_is_strict(self):
        # binary-exact values so ``==`` vs ``>`` is actually exercised
        stopper = ProgressThresholdStopper(patience=2, min_delta=0.25)
        stopper.update(*told(0, 0.5))
        assert stopper.update(*told(1, 0.75)) is None   # == delta: stale
        assert stopper.best_score == 0.75               # still tracked
        assert stopper.update(*told(2, 0.875)) is not None

    def test_progress_failed_trials_burn_patience(self):
        stopper = ProgressThresholdStopper(patience=2)
        assert stopper.update(*told(0, None, failed=True)) is None
        assert stopper.update(*told(1, None, failed=True)) is not None

    def test_progress_rejects_bad_params(self):
        with pytest.raises(ValueError, match="patience"):
            ProgressThresholdStopper(patience=0)
        with pytest.raises(ValueError, match="min_delta"):
            ProgressThresholdStopper(min_delta=-0.1)

    def test_target_score(self):
        stopper = TargetScoreStopper(0.8)
        assert stopper.update(*told(0, 0.79)) is None
        assert stopper.update(*told(1, None, failed=True)) is None
        assert "target" in stopper.update(*told(2, 0.8))

    def test_max_trials(self):
        stopper = MaxTrialsStopper(2)
        assert stopper.update(*told(0, 0.1)) is None
        assert stopper.update(*told(1, None, failed=True)) is not None

    def test_or_fires_on_either_and_flattens(self):
        stopper = (TargetScoreStopper(0.9) | MaxTrialsStopper(3)
                   | TargetScoreStopper(0.95))
        assert isinstance(stopper, AnyStopper)
        assert len(stopper.stoppers) == 3  # nesting flattened
        assert stopper.update(*told(0, 0.91)) is not None

    def test_and_needs_every_member(self):
        stopper = TargetScoreStopper(0.8) & MaxTrialsStopper(2)
        assert isinstance(stopper, AllStopper)
        assert stopper.update(*told(0, 0.9)) is None   # target fired only
        reason = stopper.update(*told(1, 0.1))         # limit fires too
        assert "target" in reason and "limit" in reason

    def test_composite_requires_two_members(self):
        with pytest.raises(ValueError, match=">= 2"):
            AnyStopper(MaxTrialsStopper(1))

    def test_fingerprints_are_jsonable_identities(self):
        stopper = ProgressThresholdStopper(patience=3, min_delta=0.01) | \
            TargetScoreStopper(0.9)
        payload = json.loads(json.dumps(stopper.fingerprint()))
        assert payload["stopper"] == "any"
        members = payload["members"]
        assert members[0] == {"stopper": "progress", "patience": 3,
                              "min_delta": 0.01}
        assert members[1] == {"stopper": "target_score", "target": 0.9}


class TestSchedulerStopper:
    """Stopper integration: verdicts, footers, determinism contracts."""

    def run_evolution(self, stopper=None, journal=None, resume=False,
                      workers=0, seed=0):
        task = tiny_task()
        strategy = build_strategy("evolution", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, seed=seed,
                                  num_trials=10, population_size=3,
                                  sample_size=2, batch_size=2)
        return TrialScheduler(task, strategy, workers=workers,
                              journal=journal, resume=resume,
                              stopper=stopper).run()

    def leaderboard_of(self, report):
        return [(r.trial_id, r.score) for r in report.leaderboard()]

    def test_stopper_ends_run_early_and_lands_in_footer(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        full = self.run_evolution(journal=tmp_path / "full.jsonl")
        report = self.run_evolution(
            stopper=ProgressThresholdStopper(patience=2), journal=journal)
        assert report.stopped is not None
        assert report.stopped["stopper"] == "progress"
        assert len(report.results) < len(full.results)
        footer = TrialJournal.read_all(journal).footer
        assert footer["stopped"] == report.stopped
        assert footer["stats"]["executed"] == report.stats.executed

    def test_whole_batch_is_told_before_stopping(self):
        # the firing batch already ran — every result in it is told and
        # reported, then the run ends (no further batches are asked)
        report = self.run_evolution(stopper=MaxTrialsStopper(2))
        assert report.stopped is not None
        # evolution's first batch is the 3-member seed population: the
        # stopper fires at the 2nd told trial but all 3 are reported
        assert len(report.results) == 3
        assert report.stopped["trial_id"] == 1

    def test_stopped_run_resumes_to_identical_verdict(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        stopper = ProgressThresholdStopper(patience=2)
        first = self.run_evolution(stopper=stopper, journal=journal)
        assert first.stopped is not None
        reference = self.leaderboard_of(first)

        # kill after the first few records, then resume with a FRESH
        # stopper instance configured identically
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")
        resumed = self.run_evolution(
            stopper=ProgressThresholdStopper(patience=2),
            journal=journal, resume=True)
        assert resumed.stopped == first.stopped
        assert self.leaderboard_of(resumed) == reference
        assert resumed.stats.replayed > 0

    @pytest.mark.slow
    def test_parallel_stop_matches_inline(self):
        inline = self.run_evolution(stopper=MaxTrialsStopper(5), seed=2)
        parallel = self.run_evolution(stopper=MaxTrialsStopper(5), seed=2,
                                      workers=2)
        assert inline.stopped == parallel.stopped
        assert self.leaderboard_of(inline) == self.leaderboard_of(parallel)

    def test_stopper_is_part_of_the_resume_identity(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        self.run_evolution(journal=journal)  # stopper-less run
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            self.run_evolution(stopper=MaxTrialsStopper(3),
                               journal=journal, resume=True)

    def test_stopperless_fingerprint_keeps_legacy_layout(self):
        task = tiny_task()
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, num_trials=2)
        scheduler = TrialScheduler(task, strategy)
        assert set(scheduler.fingerprint()) == {"task", "strategy"}

    def test_timelines_can_be_disabled(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        task = tiny_task()
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, num_trials=2)
        TrialScheduler(task, strategy, journal=str(journal),
                       timelines=False).run()
        contents = TrialJournal.read_all(journal)
        assert len(contents.trials) == 2
        assert contents.timelines == {}


class TestRunRegistry:
    def test_ingest_names_index_and_load(self, tmp_path):
        source = tmp_path / "source.jsonl"
        write_synthetic_journal(source)
        registry = RunRegistry(tmp_path / "runs")
        assert registry.names() == []

        record = registry.ingest(source)
        assert record.name.startswith("source-")
        assert registry.names() == [record.name]
        assert registry.load(record.name).name == record.name
        # a direct journal path loads without registration
        assert registry.load(str(source)).contents.trials

        row = registry.index()[0]
        assert row["strategy"] == "random"
        assert row["trials"] == 3 and row["failed"] == 0
        assert row["timelines"] == 3
        assert row["best_score"] == max(
            r.score for r in record.results())

    def test_ingest_collision_and_overwrite(self, tmp_path):
        source = tmp_path / "source.jsonl"
        write_synthetic_journal(source)
        registry = RunRegistry(tmp_path / "runs")
        registry.ingest(source, name="run")
        with pytest.raises(FileExistsError, match="already registered"):
            registry.ingest(source, name="run")
        registry.ingest(source, name="run", overwrite=True)  # explicit ok

    def test_ingest_rejects_headerless_files(self, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text("not a journal\n")
        with pytest.raises(ValueError, match="not a trial journal"):
            RunRegistry(tmp_path / "runs").ingest(junk)

    def test_unknown_name_lists_registered(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        with pytest.raises(FileNotFoundError, match="no run named"):
            registry.load("ghost")

    def test_diff_and_compare(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_synthetic_journal(a, seed=0)
        write_synthetic_journal(b, seed=1)
        registry = RunRegistry(tmp_path / "runs")
        registry.ingest(a, name="a")
        registry.ingest(b, name="b")

        rows = registry.diff("a", "b")
        paths = [row["path"] for row in rows]
        assert "strategy.seed" in paths and "task.dataset.seed" in paths
        assert paths == sorted(paths)

        diff = registry.compare("a", "b")
        assert not diff.same_setup
        best_a = max(r.score for r in diff.a.results())
        best_b = max(r.score for r in diff.b.results())
        assert diff.best_delta == pytest.approx(best_b - best_a)
        assert [row["trial_id"] for row in diff.shared_trials] == [0, 1, 2]
        for row in diff.shared_trials:
            assert row["delta"] == pytest.approx(row["b"] - row["a"])

    def test_identical_runs_diff_empty(self, tmp_path):
        a = tmp_path / "a.jsonl"
        write_synthetic_journal(a)
        registry = RunRegistry(tmp_path / "runs")
        registry.ingest(a, name="x")
        registry.ingest(a, name="y")
        assert registry.diff("x", "y") == []
        assert registry.compare("x", "y").same_setup

    def test_fingerprint_diff_handles_shape_changes(self):
        rows = fingerprint_diff({"a": {"b": 1}, "c": 2},
                                {"a": {"b": 2}, "d": 3})
        as_map = {row["path"]: (row["a"], row["b"]) for row in rows}
        assert as_map == {"a.b": (1, 2), "c": (2, None), "d": (None, 3)}

    def test_text_renderers(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_synthetic_journal(a, seed=0,
                                stopped={"trial_id": 2, "reason": "plateau",
                                         "stopper": "progress"})
        write_synthetic_journal(b, seed=1)
        registry = RunRegistry(tmp_path / "runs")
        registry.ingest(a, name="a")
        registry.ingest(b, name="b")
        index = render_runs_index(registry.index())
        assert "progress: plateau" in index and "a" in index.split()
        assert render_runs_index([]) == "no runs registered"
        text = render_run_diff(registry.compare("a", "b"))
        assert "best delta" in text and "shared trials (3)" in text


class TestReport:
    def test_report_contains_every_section(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        write_synthetic_journal(
            journal, stopped={"trial_id": 2, "reason": "plateau",
                              "stopper": "progress"})
        html = render_report(journal)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "polyline" in html
        assert "Leaderboard" in html
        assert "retrain/val_macro_f1" in html
        assert "worker_deaths" in html
        assert "plateau" in html  # the stopper verdict
        # self-contained: no external references whatsoever
        assert "http://" not in html.replace("http://www.w3.org", "")
        assert "<script" not in html

    def test_report_renders_journals_without_timelines(self, tmp_path):
        journal = tmp_path / "old.jsonl"
        write_synthetic_journal(journal, with_timelines=False)
        html = render_report(journal)
        assert "no timeline records" in html
        assert "Leaderboard" in html  # everything else still renders

    def test_report_is_byte_deterministic(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        write_synthetic_journal(journal)
        assert render_report(journal) == render_report(
            RunRecord.load(journal))

    def test_write_report_default_path(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        write_synthetic_journal(journal)
        out = write_report(journal)
        assert out == journal.with_suffix(".html")
        assert out.read_text(encoding="utf-8") == render_report(journal)

    def test_html_escaping(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        fingerprint = write_synthetic_journal(journal)
        # smuggle markup through a free-text field: must come out escaped
        lines = journal.read_text().splitlines()
        footer = json.loads(lines[-1])
        footer["footer"]["stopped"] = {
            "trial_id": 0, "stopper": "progress",
            "reason": "<script>alert('x')</script>"}
        lines[-1] = json.dumps(footer)
        journal.write_text("\n".join(lines) + "\n")
        html = render_report(journal)
        assert "<script>" not in html
        assert "&lt;script&gt;" in html
        del fingerprint

    def test_golden_report_is_stable(self, tmp_path):
        """Byte-for-byte golden file: the report is a pure function of
        the journal, so regenerating it must reproduce the committed
        HTML exactly.  If this fails after an intentional report change,
        regenerate via tests/golden/regenerate.py."""
        from pathlib import Path

        journal = tmp_path / "fixture.jsonl"
        write_synthetic_journal(
            journal, seed=3, trials=4,
            stopped={"trial_id": 3, "reason": "plateau",
                     "stopper": "progress"})
        golden = Path(__file__).parent / "golden" / "report_fixture.html"
        assert render_report(journal) == golden.read_text(encoding="utf-8")
