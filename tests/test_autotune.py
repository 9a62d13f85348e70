"""Tests for the autotune subsystem: strategies, scheduler, journal, export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.autotune import (
    DatasetRef,
    GridSearch,
    OneShotDARTS,
    RandomSearch,
    RegularizedEvolution,
    SuccessiveHalving,
    TrialJournal,
    TrialResult,
    TrialScheduler,
    TuneTask,
    available_strategies,
    best_assignment,
    build_strategy,
    execute_trial,
    export_best,
    slot_labels,
)
from repro.completion import DEFAULT_SPACE, SearchSpace, available_ops
from repro.core import AutoACConfig, evaluate_architecture
from repro.serving import ModelBundle
from repro.training import TrainConfig, derive_seed, set_seed, set_trial_seed


def tiny_task(**overrides) -> TuneTask:
    defaults = dict(dataset=DatasetRef("imdb", "tiny", 0), model_name="gcn",
                    hidden_dim=16, out_dim=16, num_slots=4, max_budget=4)
    defaults.update(overrides)
    return TuneTask(**defaults)


def completed(trial, score: float) -> TrialResult:
    return TrialResult(trial_id=trial.trial_id, score=score, seed=trial.seed,
                       rung=trial.rung, ops=trial.ops)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100  # distinct per trial id
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_negative_base_seed_is_folded(self):
        assert derive_seed(-1, 2) == derive_seed(-1 % 2 ** 32, 2)

    def test_set_trial_seed_seeds_all_rngs(self):
        from repro.tensor.random import random_values

        returned = set_trial_seed(5, 11)
        assert returned == derive_seed(5, 11)
        first_np = np.random.random(3)
        first_tensor = random_values((3,)).copy()
        set_trial_seed(5, 11)
        np.testing.assert_array_equal(first_np, np.random.random(3))
        np.testing.assert_array_equal(first_tensor, random_values((3,)))


class TestRegistry:
    def test_available_contains_all(self):
        names = available_strategies()
        for expected in ("random", "evolution", "asha", "darts", "grid"):
            assert expected in names

    def test_unknown_strategy_is_clear_valueerror(self):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            build_strategy("bogus", num_slots=4, num_ops=4, max_budget=8)

    def test_build_passes_kwargs(self):
        strategy = build_strategy("random", num_slots=4, num_ops=4,
                                  max_budget=8, num_trials=3)
        assert strategy.num_trials == 3


class TestRandomSearch:
    def test_one_batch_then_done(self):
        s = RandomSearch(num_slots=4, num_ops=4, max_budget=8, seed=0,
                         num_trials=5)
        batch = s.ask()
        assert len(batch) == 5
        assert all(t.budget == 8 for t in batch)
        assert all(0 <= o < 4 for t in batch for o in t.ops)
        assert [t.trial_id for t in batch] == list(range(5))
        assert s.ask() == []

    def test_same_seed_same_trials(self):
        ops = lambda seed: [t.ops for t in RandomSearch(
            num_slots=4, num_ops=4, max_budget=8, seed=seed,
            num_trials=4).ask()]
        assert ops(3) == ops(3)
        assert ops(3) != ops(4)

    def test_trial_seeds_are_derived(self):
        s = RandomSearch(num_slots=4, num_ops=4, max_budget=8, seed=9,
                         num_trials=2)
        for trial in s.ask():
            assert trial.seed == derive_seed(9, trial.trial_id)


class TestRegularizedEvolution:
    def make(self, **kw):
        defaults = dict(num_slots=6, num_ops=4, max_budget=8, seed=0,
                        num_trials=12, population_size=4, sample_size=2,
                        batch_size=3)
        defaults.update(kw)
        return RegularizedEvolution(**defaults)

    def run_synthetic(self, strategy, score_fn):
        seen = []
        while True:
            batch = strategy.ask()
            if not batch:
                break
            for trial in batch:
                seen.append(trial)
                strategy.tell(trial, completed(trial, score_fn(trial)))
        return seen

    def test_children_mutate_one_slot(self):
        s = self.make()
        trials = self.run_synthetic(s, lambda t: float(sum(t.ops)))
        assert len(trials) == 12
        by_id = {t.trial_id: t for t in trials}
        children = [t for t in trials if t.parent_id is not None]
        assert children, "evolution produced no mutated children"
        for child in children:
            parent = by_id[child.parent_id]
            diff = sum(a != b for a, b in zip(child.ops, parent.ops))
            assert diff == 1

    def test_population_ages_out(self):
        s = self.make()
        self.run_synthetic(s, lambda t: 0.5)
        assert len(s.population) == 4  # capped at population_size

    def test_failed_trials_never_enter_population(self):
        s = self.make()
        batch = s.ask()
        for trial in batch:
            result = TrialResult(trial_id=trial.trial_id, score=None,
                                 status="failed", seed=trial.seed)
            s.tell(trial, result)
        assert s.population == []
        assert all(t.parent_id is None for t in s.ask())  # random fallback

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="population_size"):
            self.make(population_size=1)
        with pytest.raises(ValueError, match="sample_size"):
            self.make(sample_size=9)
        with pytest.raises(ValueError, match="num_trials"):
            self.make(num_trials=2)


class TestSuccessiveHalving:
    def test_budget_ladder(self):
        s = SuccessiveHalving(num_slots=4, num_ops=4, max_budget=40, seed=0,
                              num_trials=8, eta=2, min_budget=5)
        assert s.budgets == [5, 10, 20, 40]

    def test_derived_min_budget(self):
        s = SuccessiveHalving(num_slots=4, num_ops=4, max_budget=32, seed=0,
                              num_trials=8, eta=2)
        assert s.budgets[0] == 1 and s.budgets[-1] == 32

    def test_rung_sizes_and_promotion_of_best(self):
        s = SuccessiveHalving(num_slots=4, num_ops=4, max_budget=8, seed=0,
                              num_trials=4, eta=2, min_budget=2)
        rung0 = s.ask()
        assert [t.budget for t in rung0] == [2, 2, 2, 2]
        # craft scores: trial 2 best, trial 0 second
        scores = {0: 0.8, 1: 0.1, 2: 0.9, 3: 0.2}
        for trial in rung0:
            s.tell(trial, completed(trial, scores[trial.trial_id]))
        rung1 = s.ask()
        assert [t.budget for t in rung1] == [4, 4]
        assert [t.parent_id for t in rung1] == [2, 0]  # best first
        # promotions keep the parent's ops and seed (budget-only change)
        by_id = {t.trial_id: t for t in rung0}
        for child in rung1:
            assert child.ops == by_id[child.parent_id].ops
            assert child.seed == by_id[child.parent_id].seed
        for trial in rung1:
            s.tell(trial, completed(trial, 0.5))
        rung2 = s.ask()
        assert [t.budget for t in rung2] == [8]
        s.tell(rung2[0], completed(rung2[0], 0.6))
        assert s.ask() == []

    def test_all_failed_rung_ends_search(self):
        s = SuccessiveHalving(num_slots=4, num_ops=4, max_budget=8, seed=0,
                              num_trials=2, eta=2, min_budget=2)
        for trial in s.ask():
            s.tell(trial, TrialResult(trial_id=trial.trial_id, score=None,
                                      status="failed", seed=trial.seed))
        assert s.ask() == []


class TestOneShotAndGrid:
    def test_darts_is_single_trial(self):
        s = OneShotDARTS(num_slots=4, num_ops=4, max_budget=8, seed=0)
        batch = s.ask()
        assert len(batch) == 1
        assert batch[0].ops is None and batch[0].budget is None
        assert s.ask() == []

    def test_grid_orders_values_and_uses_base_seed(self):
        values = [{"num_clusters": 2}, {"num_clusters": 4}]
        s = GridSearch(num_slots=4, num_ops=4, max_budget=8, seed=7,
                       values=values)
        batch = s.ask()
        assert [t.params["overrides"] for t in batch] == values
        assert all(t.seed == 7 for t in batch)

    def test_grid_requires_values(self):
        with pytest.raises(ValueError, match="non-empty"):
            GridSearch(num_slots=4, num_ops=4, max_budget=8, values=[])


class TestSlotLabels:
    def test_deterministic_and_balanced(self, imdb_tiny):
        labels = slot_labels(imdb_tiny, 4)
        again = slot_labels(imdb_tiny, 4)
        np.testing.assert_array_equal(labels, again)
        assert labels.shape == imdb_tiny.missing_global_ids.shape
        counts = np.bincount(labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_capped_at_missing_count(self, imdb_tiny):
        n_missing = imdb_tiny.missing_global_ids.shape[0]
        labels = slot_labels(imdb_tiny, n_missing + 50)
        assert labels.max() == n_missing - 1


class TestEvaluateArchitecture:
    def test_fixed_assignment(self, imdb_tiny):
        rng = np.random.default_rng(0)
        assignment = rng.integers(
            0, 4, size=imdb_tiny.missing_global_ids.shape[0])
        ev = evaluate_architecture(imdb_tiny, assignment, "gcn", budget=3,
                                   hidden_dim=16, out_dim=16, seed=0)
        assert 0.0 <= ev.val_macro_f1 <= 1.0
        assert ev.epochs_run <= 3
        assert ev.artifacts is None and ev.search is None
        assert abs(sum(ev.op_distribution().values()) - 1.0) < 1e-9

    def test_keep_artifacts(self, imdb_tiny):
        assignment = np.zeros(imdb_tiny.missing_global_ids.shape[0],
                              dtype=np.int64)
        ev = evaluate_architecture(imdb_tiny, assignment, "gcn", budget=2,
                                   hidden_dim=16, out_dim=16, seed=0,
                                   keep_artifacts=True)
        assert ev.artifacts is not None
        assert ev.artifacts.model is not None

    def test_one_shot_search_path(self, imdb_tiny):
        config = AutoACConfig(hidden_dim=16, out_dim=16, search_epochs=2,
                              patience=10, warmup_epochs=1, num_clusters=4,
                              retrain=TrainConfig(epochs=2, patience=5))
        ev = evaluate_architecture(imdb_tiny, None, "gcn",
                                   search_config=config, seed=0)
        assert ev.search is not None
        assert ev.assignment.shape == imdb_tiny.missing_global_ids.shape

    def test_one_shot_default_config_keeps_model_kwargs(self, imdb_tiny):
        # without an explicit search_config the caller's model kwargs must
        # reach both the search and the retrain (bogus kwargs would raise)
        with pytest.raises(TypeError):
            evaluate_architecture(imdb_tiny, None, "gat", budget=1,
                                  hidden_dim=16, out_dim=16, seed=0,
                                  bogus_kwarg=1)

    def test_bad_assignment_shapes(self, imdb_tiny):
        with pytest.raises(ValueError, match="one op per"):
            evaluate_architecture(imdb_tiny, np.zeros(3, dtype=np.int64),
                                  "gcn", budget=2)
        bad = np.full(imdb_tiny.missing_global_ids.shape[0], 99,
                      dtype=np.int64)
        with pytest.raises(ValueError, match="op indices"):
            evaluate_architecture(imdb_tiny, bad, "gcn", budget=2)

    def test_determinism(self, imdb_tiny):
        assignment = np.ones(imdb_tiny.missing_global_ids.shape[0],
                             dtype=np.int64)
        a = evaluate_architecture(imdb_tiny, assignment, "gcn", budget=3,
                                  hidden_dim=16, out_dim=16, seed=5)
        b = evaluate_architecture(imdb_tiny, assignment, "gcn", budget=3,
                                  hidden_dim=16, out_dim=16, seed=5)
        assert a.val_macro_f1 == b.val_macro_f1
        assert a.macro_f1 == b.macro_f1


class TestScheduler:
    def leaderboard_of(self, report):
        return [(r.trial_id, r.score, r.macro_f1, r.budget_used)
                for r in report.leaderboard()]

    def run_random(self, workers=0, seed=0, journal=None, resume=False,
                   trials=3):
        task = tiny_task()
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, seed=seed,
                                  num_trials=trials)
        return TrialScheduler(task, strategy, workers=workers,
                              journal=journal, resume=resume).run()

    def test_inline_run(self):
        report = self.run_random()
        assert len(report.results) == 3
        assert report.stats.executed == 3 and report.stats.failed == 0
        scores = [r.score for r in report.leaderboard()]
        assert scores == sorted(scores, reverse=True)

    def test_same_seed_identical_leaderboards(self):
        # the determinism contract: same base seed → identical leaderboard
        first = self.leaderboard_of(self.run_random(seed=3))
        second = self.leaderboard_of(self.run_random(seed=3))
        assert first == second
        different = self.leaderboard_of(self.run_random(seed=4))
        assert first != different

    @pytest.mark.slow
    def test_parallel_matches_inline(self):
        inline = self.leaderboard_of(self.run_random(workers=0, seed=1))
        parallel = self.leaderboard_of(self.run_random(workers=2, seed=1))
        assert inline == parallel

    def test_failed_trials_are_reported_not_raised(self, tmp_path):
        task = tiny_task(model_name="no_such_model")
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, num_trials=2)
        report = TrialScheduler(task, strategy, workers=0).run()
        assert report.stats.failed == 2
        assert all(r.failed and r.error for r in report.results)
        assert report.leaderboard() == []
        with pytest.raises(ValueError, match="no completed trials"):
            report.best


class TestJournalResume:
    def run_asha(self, journal, resume=False, seed=0, workers=0):
        task = tiny_task(max_budget=4)
        strategy = build_strategy("asha", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, seed=seed,
                                  num_trials=4, eta=2, min_budget=2)
        return TrialScheduler(task, strategy, workers=workers,
                              journal=journal, resume=resume).run()

    def test_resume_skips_completed_trials_exactly(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        full = self.run_asha(journal)
        total = len(full.results)
        reference = [(r.trial_id, r.score) for r in full.leaderboard()]

        lines = journal.read_text().splitlines()
        # header + 2 completed trials survive the "kill" (trial lines are
        # interleaved with their timeline records — cut after the second)
        trial_indices = [i for i, line in enumerate(lines)
                         if json.loads(line).get("kind") == "trial"]
        keep = trial_indices[1] + 1
        journal.write_text("\n".join(lines[:keep]) + "\n")

        resumed = self.run_asha(journal, resume=True)
        assert resumed.stats.replayed == 2
        assert resumed.stats.executed == total - 2
        assert [(r.trial_id, r.score)
                for r in resumed.leaderboard()] == reference

    def test_resume_tolerates_torn_tail(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        full = self.run_asha(journal)
        reference = [(r.trial_id, r.score) for r in full.leaderboard()]
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n" + lines[2][:17])
        resumed = self.run_asha(journal, resume=True)
        assert resumed.stats.replayed == 1
        assert [(r.trial_id, r.score)
                for r in resumed.leaderboard()] == reference

    def test_fingerprint_mismatch_raises(self, tmp_path):
        journal = tmp_path / "tune.jsonl"
        self.run_asha(journal)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            self.run_asha(journal, resume=True, seed=1)

    def test_without_resume_journal_is_overwritten(self, tmp_path):
        def digest(text):
            # everything but wall-clock seconds is deterministic
            rows = [json.loads(line) for line in text.splitlines()]
            for row in rows:
                if row.get("kind") == "trial":
                    row["result"].pop("seconds", None)
            return rows

        journal = tmp_path / "tune.jsonl"
        self.run_asha(journal)
        first = digest(journal.read_text())
        report = self.run_asha(journal, resume=False)
        assert report.stats.replayed == 0
        assert digest(journal.read_text()) == first  # deterministic rewrite

    def test_read_missing_file(self, tmp_path):
        header, entries = TrialJournal.read(tmp_path / "absent.jsonl")
        assert header is None and entries == []

    def test_read_rejects_non_journal(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(json.dumps({"kind": "other"}) + "\n")
        with pytest.raises(ValueError, match="not a trial journal"):
            TrialJournal.read(path)


class TestExport:
    def test_export_best_roundtrip(self, imdb_tiny, tmp_path):
        report = TestScheduler().run_random(trials=2)
        path = tmp_path / "best.npz"
        bundle = export_best(report, path=path, dataset=imdb_tiny)
        assert "macro_f1" in bundle.metrics
        assert bundle.meta["tuned_by"] == "random"
        assert bundle.meta["trial_id"] == report.best.trial_id
        loaded = ModelBundle.load(path)
        dataset, model, features = loaded.instantiate(imdb_tiny)
        expected = best_assignment(report, imdb_tiny)
        np.testing.assert_array_equal(loaded.assignment, expected)
        assert model is not None and features is not None

    def test_one_shot_winner_exports_at_search_config_dims(self, imdb_tiny,
                                                           tmp_path):
        # a darts/grid trial is scored at the *search config's* dims;
        # the exported bundle must rebuild that same model shape
        config = AutoACConfig(hidden_dim=24, out_dim=24, search_epochs=2,
                              patience=10, warmup_epochs=1, num_clusters=4,
                              retrain=TrainConfig(epochs=2, patience=5))
        task = tiny_task(max_budget=2, search_config=config)
        strategy = build_strategy("darts", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget)
        report = TrialScheduler(task, strategy, workers=0).run()
        bundle = export_best(report, path=tmp_path / "oneshot.npz",
                             dataset=imdb_tiny)
        assert bundle.hidden_dim == 24 and bundle.out_dim == 24

    def test_best_assignment_requires_ops_or_assignment(self, imdb_tiny):
        report = TestScheduler().run_random(trials=2)
        broken = TrialResult(trial_id=99, score=1.0)
        with pytest.raises(ValueError, match="neither"):
            best_assignment(report, imdb_tiny, broken)


def _exit_on_trial_one(task, trial, attempt=0):
    """Fork-inherited stand-in for execute_trial that dies on trial 1."""
    import os

    if trial.trial_id == 1:
        os._exit(13)  # simulates an OOM kill / segfault of the worker
    return execute_trial(task, trial, attempt)


class TestWorkerDeath:
    def test_dead_worker_fails_batch_but_not_run(self, monkeypatch,
                                                 tmp_path):
        # patch the scheduler's reference before the pool forks so the
        # children inherit the dying stand-in
        import repro.autotune.scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "execute_trial",
                            _exit_on_trial_one)
        task = tiny_task()
        # evolution: batch 1 = trials 0-2 (trial 1 kills its worker and
        # breaks the pool), batch 2 = trials 3-4 on a *rebuilt* pool
        strategy = build_strategy("evolution", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, num_trials=5,
                                  population_size=3, sample_size=2,
                                  batch_size=2)
        journal = tmp_path / "death.jsonl"
        # retries off: this test pins down the *transient* death
        # accounting (the self-healing retry/quarantine path has its
        # own tests in test_faults.py)
        report = TrialScheduler(task, strategy, workers=2,
                                mp_context="fork", journal=journal,
                                max_trial_retries=0).run()
        assert len(report.results) == 5
        dead = {r.trial_id: r for r in report.results
                if r.status == "worker_died"}
        assert 1 in dead and "worker process died" in dead[1].error
        # the batch after the breakage ran on a rebuilt pool
        late = [r for r in report.results if r.trial_id in (3, 4)]
        assert all(not r.failed for r in late)
        # transient deaths stay out of the journal so resume retries them
        journaled = {entry["trial"]["trial_id"]
                     for entry in TrialJournal.read(journal)[1]}
        assert 1 not in journaled
        assert {3, 4} <= journaled
        # ... but the footer surfaces the death count for `repro runs`.
        # The broken pool can take sibling in-flight trials (0 and/or 2)
        # down with the poison one, so the count is 1-3 depending on
        # timing — it must simply match what the results report.
        assert report.stats.worker_deaths == len(dead) >= 1
        footer = TrialJournal.read_all(journal).footer
        assert footer["stats"]["worker_deaths"] == report.stats.worker_deaths
        assert footer["stopped"] is None


class TestWorker:
    def test_execute_trial_returns_plain_dict(self):
        task = tiny_task()
        strategy = build_strategy("random", num_slots=task.num_slots,
                                  num_ops=task.num_ops,
                                  max_budget=task.max_budget, num_trials=1)
        trial = strategy.ask()[0]
        payload = execute_trial(task, trial)
        # journal/npz contract: the payload must be pure JSON
        json.dumps(payload)
        assert payload["status"] == "completed"
        assert payload["trial_id"] == trial.trial_id
        round_tripped = TrialResult.from_dict(
            json.loads(json.dumps(payload)))
        assert round_tripped.score == payload["score"]


#: per-strategy kwargs that make a cheap synthetic drive terminate
STRATEGY_MATRIX_KWARGS = {
    "random": dict(num_trials=32),
    "evolution": dict(num_trials=32, population_size=8, sample_size=3),
    "asha": dict(num_trials=16, eta=2, min_budget=2),
    "darts": {},
    "grid": dict(values=[{"num_clusters": 2}]),
}


class TestStrategyOpMatrix:
    """Every op in the search space is reachable by every strategy.

    Driven synthetically (ask/tell with fake scores, no training): a
    strategy that could never propose some registered completion op
    would silently shrink the paper's space ``O``.
    """

    def drive(self, strategy, max_batches=64):
        rng = np.random.default_rng(7)
        asked = []
        for _ in range(max_batches):
            batch = strategy.ask()
            if not batch:
                break
            for trial in sorted(batch, key=lambda t: t.trial_id):
                asked.append(trial)
                strategy.tell(trial, completed(trial, float(rng.random())))
        return asked

    def test_matrix_covers_every_registered_strategy(self):
        assert sorted(STRATEGY_MATRIX_KWARGS) == available_strategies()

    def test_default_space_is_the_registered_op_set(self):
        # the task-level space every trial draws from must resolve to
        # registered ops (extensions may add more; none may be missing)
        assert set(SearchSpace()) == set(DEFAULT_SPACE)
        assert set(DEFAULT_SPACE) <= set(available_ops())

    @pytest.mark.parametrize("name", sorted(STRATEGY_MATRIX_KWARGS))
    def test_every_op_reachable(self, name):
        num_ops = len(DEFAULT_SPACE)
        strategy = build_strategy(name, num_slots=6, num_ops=num_ops,
                                  max_budget=8, seed=0,
                                  **STRATEGY_MATRIX_KWARGS[name])
        asked = self.drive(strategy)
        assert asked and strategy.ask() == []
        discrete = [t for t in asked if t.ops is not None]
        if discrete:
            seen = {op for t in discrete for op in t.ops}
            assert seen == set(range(num_ops)), \
                f"{name} never proposed ops {set(range(num_ops)) - seen}"
        else:
            # one-shot strategies (darts/grid) relax over the *entire*
            # space in a single trial: ops=None means "all of them"
            assert all(t.ops is None for t in asked)
