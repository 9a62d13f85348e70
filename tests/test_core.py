"""Tests for the AutoAC core: proximal ops, alpha, clustering, search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    AutoACConfig,
    AutoACSearcher,
    CompletionParameters,
    EMClusterAssigner,
    LinkPredictionAdapter,
    MixtureParameters,
    ModularityClusteringHead,
    NodeClassificationAdapter,
    kmeans,
    modularity_loss,
    prox_c,
    prox_c1,
    prox_c2,
    proximal_step,
    run_autoac,
)
from repro.datasets import get_dataset
from repro.graph import modularity_value
from repro.tensor import Tensor, gradcheck
from repro.training import LinkPredictionTask, TrainConfig, set_seed


class TestProximal:
    def test_prox_c1_one_hot(self):
        alpha = np.array([[0.2, 0.9, 0.1], [0.5, 0.1, 0.4]])
        out = prox_c1(alpha)
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0]])

    def test_prox_c1_requires_2d(self):
        with pytest.raises(ValueError):
            prox_c1(np.array([1.0, 2.0]))

    def test_prox_c2_box(self):
        alpha = np.array([[-0.5, 0.5, 1.5]])
        np.testing.assert_array_equal(prox_c2(alpha), [[0.0, 0.5, 1.0]])

    def test_prox_c_composition_is_feasible(self):
        rng = np.random.default_rng(0)
        alpha = rng.normal(size=(10, 4)) * 3
        out = prox_c(alpha)
        assert np.all((out == 0) | (out == 1))
        np.testing.assert_array_equal(np.count_nonzero(out, axis=1), 1)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                            st.integers(2, 5)),
                      elements=st.floats(-2, 2, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_prox_operators_idempotent(self, alpha):
        np.testing.assert_array_equal(prox_c1(prox_c1(alpha)), prox_c1(alpha))
        np.testing.assert_array_equal(prox_c2(prox_c2(alpha)), prox_c2(alpha))

    def test_proximal_step_stays_in_box(self):
        alpha = np.array([[0.9, 0.1]])
        grad = np.array([[-10.0, 10.0]])
        out = proximal_step(alpha, grad, lr=1.0)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_proximal_step_lr_validation(self):
        with pytest.raises(ValueError):
            proximal_step(np.zeros((1, 2)), np.zeros((1, 2)), lr=0.0)


class TestCompletionParameters:
    def test_initial_values_in_box(self):
        params = CompletionParameters(5, 4)
        assert np.all(params.values >= 0) and np.all(params.values <= 1)

    def test_discrete_is_one_hot(self):
        params = CompletionParameters(6, 4)
        discrete = params.discrete()
        np.testing.assert_array_equal(np.count_nonzero(discrete, axis=1), 1)

    def test_update_moves_argmax(self):
        params = CompletionParameters(1, 3)
        params.values = np.array([[0.6, 0.5, 0.5]])
        # strong gradient against op 0 at the discrete point
        grad = np.array([[5.0, 0.0, 0.0]])
        params.update(grad, lr=0.2)
        assert params.chosen_ops()[0] != 0

    def test_update_shape_validation(self):
        params = CompletionParameters(2, 3)
        with pytest.raises(ValueError):
            params.update(np.zeros((1, 3)), lr=0.1)

    def test_mixture_weights_simplex(self):
        mixture = MixtureParameters(4, 5)
        weights = mixture.weights().data
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)


class TestClustering:
    def test_head_outputs_simplex(self):
        head = ModularityClusteringHead(16, 4)
        h = Tensor(np.random.default_rng(0).normal(size=(10, 16)))
        assignment = head(h)
        np.testing.assert_allclose(assignment.data.sum(axis=1), 1.0)
        assert assignment.shape == (10, 4)

    def test_head_cluster_validation(self):
        with pytest.raises(ValueError):
            ModularityClusteringHead(8, 1)

    def test_modularity_loss_matches_numpy_reference(self, toy_graph):
        adj = toy_graph.adjacency()
        degrees = toy_graph.degrees()
        rng = np.random.default_rng(0)
        raw = rng.random((toy_graph.num_nodes, 3))
        assignment = raw / raw.sum(axis=1, keepdims=True)
        loss = modularity_loss(Tensor(assignment), adj, degrees)
        reference = -modularity_value(adj, assignment)
        collapse = np.sqrt(3) / toy_graph.num_nodes * np.linalg.norm(
            assignment.sum(axis=0))
        assert loss.item() == pytest.approx(reference + collapse, rel=1e-9)

    def test_modularity_loss_gradcheck(self, toy_graph):
        adj = toy_graph.adjacency()
        degrees = toy_graph.degrees()
        assignment = Tensor(
            np.random.default_rng(0).random((toy_graph.num_nodes, 2)) + 0.1,
            requires_grad=True)
        gradcheck(lambda c: modularity_loss(c, adj, degrees), [assignment])

    def test_collapse_term_penalizes_single_cluster(self, toy_graph):
        adj = toy_graph.adjacency()
        degrees = toy_graph.degrees()
        n = toy_graph.num_nodes
        collapsed = np.zeros((n, 2))
        collapsed[:, 0] = 1.0
        # the toy graph's true communities: {m0,m1,a0,a1,t0} | {m2,m3,a2,t1}
        sensible = np.zeros((n, 2))
        community_one = [0, 1, 4, 5, 7]
        sensible[community_one, 0] = 1.0
        sensible[[2, 3, 6, 8], 1] = 1.0
        loss_collapsed = modularity_loss(Tensor(collapsed), adj, degrees)
        loss_sensible = modularity_loss(Tensor(sensible), adj, degrees)
        # collapsed assignment: zero modularity plus maximal collapse penalty
        assert loss_collapsed.item() > loss_sensible.item()

    def test_kmeans_separable_blobs(self):
        rng = np.random.default_rng(0)
        blob1 = rng.normal(0, 0.1, size=(30, 2))
        blob2 = rng.normal(5, 0.1, size=(30, 2))
        points = np.vstack([blob1, blob2])
        labels, centers = kmeans(points, 2, rng)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_kmeans_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 5, np.random.default_rng(0))

    def test_em_assigner_warmup(self):
        rng = np.random.default_rng(0)
        assigner = EMClusterAssigner(20, 3, warmup=2, rng=rng)
        initial = assigner.labels.copy()
        points = np.random.default_rng(1).normal(size=(20, 4))
        np.testing.assert_array_equal(assigner.update(points), initial)
        np.testing.assert_array_equal(assigner.update(points), initial)
        third = assigner.update(points)  # warmup over: k-means runs
        assert third.shape == (20,)


class TestSearcher:
    def _config(self, **overrides):
        base = dict(search_epochs=8, patience=5, num_clusters=3,
                    warmup_epochs=2,
                    retrain=TrainConfig(epochs=15, patience=10))
        base.update(overrides)
        return AutoACConfig(**base)

    def test_search_result_shapes(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        searcher = AutoACSearcher(adapter, "gcn", self._config(), seed=0)
        result = searcher.search()
        n_missing = imdb_tiny.missing_global_ids.shape[0]
        assert result.assignment.shape == (n_missing,)
        assert result.cluster_labels.shape == (n_missing,)
        assert result.alpha.shape == (3, 4)
        assert result.op_names == ["mean", "gcn", "ppnp", "one_hot"]
        assert result.search_seconds > 0
        assert len(result.history["lgmoc"]) > 0

    def test_op_distribution_sums_to_one(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        result = AutoACSearcher(adapter, "gcn", self._config(), seed=0).search()
        assert sum(result.op_distribution().values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ["modularity", "em", "em_warmup", "none"])
    def test_all_cluster_methods_run(self, imdb_tiny, method):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        config = self._config(cluster_method=method, search_epochs=4)
        result = AutoACSearcher(adapter, "gcn", config, seed=0).search()
        n_missing = imdb_tiny.missing_global_ids.shape[0]
        assert result.assignment.shape == (n_missing,)
        if method == "none":
            assert result.alpha.shape[0] == n_missing

    def test_mixture_mode_first_order(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        config = self._config(discrete=False, unrolled=False, search_epochs=4)
        result = AutoACSearcher(adapter, "gcn", config, seed=0).search()
        assert result.assignment.shape[0] == imdb_tiny.missing_global_ids.shape[0]

    def test_mixture_mode_unrolled(self, imdb_tiny):
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        config = self._config(discrete=False, unrolled=True, search_epochs=3)
        result = AutoACSearcher(adapter, "gcn", config, seed=0).search()
        assert np.all(np.isfinite(result.alpha))

    def test_discrete_faster_than_unrolled_mixture(self, imdb_tiny):
        """The Table VIII shape: discrete constraints cut search time."""
        set_seed(0)
        adapter = NodeClassificationAdapter(imdb_tiny)
        fast = AutoACSearcher(adapter, "gcn",
                              self._config(search_epochs=5, patience=5),
                              seed=0).search()
        set_seed(0)
        slow = AutoACSearcher(adapter, "gcn",
                              self._config(search_epochs=5, patience=5,
                                           discrete=False, unrolled=True),
                              seed=0).search()
        assert fast.search_seconds < slow.search_seconds

    def test_invalid_cluster_method(self):
        with pytest.raises(ValueError):
            AutoACConfig(cluster_method="agglomerative")

    def test_link_prediction_adapter(self, lastfm_tiny):
        set_seed(0)
        task = LinkPredictionTask(lastfm_tiny, mask_rate=0.1, seed=0)
        adapter = LinkPredictionAdapter(task)
        config = self._config(search_epochs=4)
        result = AutoACSearcher(adapter, "gcn", config, seed=0).search()
        n_missing = task.train_graph_dataset.missing_global_ids.shape[0]
        assert result.assignment.shape == (n_missing,)


class TestUpperStepFrozenW:
    """The upper steps that discard w gradients run with w frozen."""

    @staticmethod
    def _searcher(dataset, **overrides):
        set_seed(0)
        config = AutoACConfig(search_epochs=2, num_clusters=3,
                              warmup_epochs=0, **overrides)
        searcher = AutoACSearcher(NodeClassificationAdapter(dataset),
                                  "simple_hgn", config, seed=0)
        searcher._lower_step()  # leaves w gradients behind, as in a search
        return searcher

    @staticmethod
    def _upper_step(searcher):
        if searcher.config.discrete:
            return searcher._upper_step_discrete()
        return searcher._upper_step_mixture()

    @staticmethod
    def _assert_w_restored(searcher):
        assert all(p.requires_grad for p in searcher._w_params)
        assert all(p.grad is None for p in searcher._w_params)
        assert searcher.model.training and searcher.features.training

    @pytest.mark.parametrize("discrete", [True, False])
    def test_w_frozen_during_the_step_and_restored_after(self, imdb_tiny,
                                                         discrete):
        searcher = self._searcher(imdb_tiny, discrete=discrete,
                                  unrolled=False)
        val_loss = searcher.adapter.val_loss
        flags = []

        def spy(model, features):
            flags.extend(p.requires_grad for p in searcher._w_params)
            return val_loss(model, features)

        searcher.adapter.val_loss = spy
        before = (searcher.alpha.values.copy() if discrete
                  else searcher.mixture.logits.data.copy())
        assert np.isfinite(self._upper_step(searcher))
        after = (searcher.alpha.values if discrete
                 else searcher.mixture.logits.data)
        assert flags and not any(flags)
        assert not np.array_equal(before, after)  # alpha still got a grad
        self._assert_w_restored(searcher)

    @pytest.mark.parametrize("discrete", [True, False])
    def test_w_restored_when_val_loss_raises(self, imdb_tiny, discrete,
                                             monkeypatch):
        searcher = self._searcher(imdb_tiny, discrete=discrete,
                                  unrolled=False)

        def fail(model, features):
            raise RuntimeError("val_loss failed")

        monkeypatch.setattr(searcher.adapter, "val_loss", fail)
        with pytest.raises(RuntimeError, match="val_loss failed"):
            self._upper_step(searcher)
        self._assert_w_restored(searcher)

    def test_frozen_w_leaves_the_alpha_step_bit_identical(self, imdb_tiny):
        # both steps read the candidates the ops kept
        frozen = self._searcher(imdb_tiny)
        frozen.features.refresh_candidates()
        frozen._upper_step_discrete()
        # the same step with w live: its w gradients are built (through
        # the kept outputs' rigged backward too), then dropped
        live = self._searcher(imdb_tiny)
        live.features.refresh_candidates()
        live.w_optimizer.zero_grad()
        bar_alpha = live._current_discrete_rows(requires_grad=True)
        live._set_node_weights(bar_alpha)
        live.model.eval()
        live.features.eval()
        loss = live.adapter.val_loss(live.model, live.features)
        loss.backward()
        assert all(p.grad is not None
                   for p in live.features.projector.parameters())
        assert any(p.grad is not None for p in live._w_params)
        live.alpha.update(bar_alpha.grad, live.config.alpha_lr,
                          live.config.alpha_weight_decay)
        assert frozen.alpha.values.tobytes() == live.alpha.values.tobytes()


class TestKeptValidationGraph:
    """The validation forward feeds the next discrete upper step."""

    @staticmethod
    def _searcher(dataset, **overrides):
        set_seed(0)
        config = AutoACConfig(**{"search_epochs": 5, "num_clusters": 3,
                                 "warmup_epochs": 1, **overrides})
        return AutoACSearcher(NodeClassificationAdapter(dataset),
                              "simple_hgn", config, seed=0)

    def test_kept_backward_builds_no_w_gradient(self, imdb_tiny,
                                                monkeypatch):
        searcher = self._searcher(imdb_tiny)
        assert searcher._reuse_val_forward
        kept, checks = [], []
        validate = searcher._validate

        def spy_validate(keep):
            score = validate(keep)
            if searcher._kept_val is not None:
                kept.append(searcher._kept_val)
            return score

        backward = Tensor.backward

        def spy_backward(tensor, *args, **kwargs):
            pair = next((p for p in kept if p[0] is tensor), None)
            if pair is None:
                return backward(tensor, *args, **kwargs)
            frozen = not any(p.requires_grad for p in searcher._w_params)
            backward(tensor, *args, **kwargs)
            checks.append((frozen,
                           all(p.grad is None for p in searcher._w_params),
                           pair[1].grad is not None))

        monkeypatch.setattr(searcher, "_validate", spy_validate)
        monkeypatch.setattr(Tensor, "backward", spy_backward)
        searcher.search()
        # epochs 0-3 keep a graph for the upper steps of epochs 1-4
        assert len(kept) == 4
        assert checks == [(True, True, True)] * 4

    def test_no_graph_held_after_a_full_run(self, imdb_tiny):
        searcher = self._searcher(imdb_tiny)
        result = searcher.search()
        assert result.epochs_run == 5
        assert searcher._kept_val is None

    def test_no_graph_held_after_early_stop(self, imdb_tiny, monkeypatch):
        searcher = self._searcher(imdb_tiny, search_epochs=30, patience=1)
        held = []
        validate = searcher._validate

        def spy_validate(keep):
            validate(keep)
            held.append(searcher._kept_val is not None)
            return -float(len(held))  # falling scores: stop at epoch 1

        monkeypatch.setattr(searcher, "_validate", spy_validate)
        result = searcher.search()
        assert result.epochs_run == 2
        assert held == [True, True]  # the stopping epoch kept a graph
        assert searcher._kept_val is None

    def test_no_graph_held_when_the_search_raises(self, imdb_tiny,
                                                  monkeypatch):
        import repro.core.search as search_module

        searcher = self._searcher(imdb_tiny)
        held = []

        def failing_entropy(values):
            # runs right after the validation pass, while a graph is kept
            held.append(searcher._kept_val is not None)
            raise RuntimeError("entropy failed")

        monkeypatch.setattr(search_module, "alpha_entropy", failing_entropy)
        with pytest.raises(RuntimeError, match="entropy failed"):
            searcher.search()
        assert held == [True]
        assert searcher._kept_val is None
        assert all(p.requires_grad for p in searcher._w_params)
        assert searcher.model.training and searcher.features.training

    def test_link_prediction_keeps_nothing(self, lastfm_tiny):
        set_seed(0)
        task = LinkPredictionTask(lastfm_tiny, mask_rate=0.1, seed=0)
        searcher = AutoACSearcher(LinkPredictionAdapter(task), "gcn",
                                  AutoACConfig(search_epochs=2), seed=0)
        assert not searcher._reuse_val_forward


class TestPipeline:
    def test_run_autoac_end_to_end(self, imdb_tiny):
        set_seed(0)
        config = AutoACConfig(search_epochs=6, patience=4, num_clusters=3,
                              warmup_epochs=2,
                              retrain=TrainConfig(epochs=20, patience=10))
        result = run_autoac(imdb_tiny, "gcn", config, seed=0)
        chance = 1.0 / imdb_tiny.num_classes
        assert result.final.micro_f1 > chance
        assert result.total_seconds > 0

    def test_lgmoc_decreases(self, imdb_tiny):
        """Figure 4's shape: the clustering loss trends downward."""
        set_seed(0)
        config = AutoACConfig(search_epochs=25, patience=25, num_clusters=3,
                              warmup_epochs=2,
                              retrain=TrainConfig(epochs=5, patience=5))
        adapter = NodeClassificationAdapter(imdb_tiny)
        result = AutoACSearcher(adapter, "gcn", config, seed=0).search()
        lgmoc = result.history["lgmoc"]
        first = np.mean(lgmoc[:5])
        last = np.mean(lgmoc[-5:])
        assert last < first
