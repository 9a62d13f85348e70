"""Mini-batch execution path: trainer parity, bounded views, search, serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import (
    FixedAssignmentFeatures,
    HandcraftedFeatures,
    SearchSpace,
    SingleOpFeatures,
    WeightedCompletionFeatures,
)
from repro.core import AutoACConfig, AutoACSearcher, NodeClassificationAdapter
from repro.datasets import generate, sparse_benchmark_spec
from repro.graph import NeighborSampler
from repro.models import build_model
from repro.tensor import Tensor
from repro.training import (
    MiniBatchConfig,
    MiniBatchTrainer,
    NodeClassificationTrainer,
    TrainConfig,
    set_seed,
)


@pytest.fixture(scope="module")
def bench_small():
    """A 600-node citation-style graph with a real V⁻ (authors)."""
    return generate(sparse_benchmark_spec(num_nodes=600), seed=0)


# ----------------------------------------------------------------------
# Completion: per-row evaluation matches full evaluation
# ----------------------------------------------------------------------
class TestForwardRows:
    @pytest.mark.parametrize("op_name", ["mean", "gcn", "ppnp", "one_hot"])
    def test_rows_match_full_forward(self, imdb_tiny, op_name):
        space = SearchSpace()
        ops = space.build_ops(imdb_tiny, 16)
        op = ops[space.index(op_name)]
        rows = np.array([0, 3, 7, 11], dtype=np.int64)
        full = op().data
        np.testing.assert_allclose(op.forward_rows(rows).data, full[rows],
                                   atol=1e-12)

    def test_rows_gradient_matches_sliced_full(self, imdb_tiny):
        """d loss/dW from a row forward equals the same rows' contribution
        in the full forward (the lower-level w step stays unbiased)."""
        space = SearchSpace()
        rows = np.array([1, 4, 9], dtype=np.int64)
        op_full = space.build_ops(imdb_tiny, 8)[space.index("gcn")]
        op_rows = space.build_ops(imdb_tiny, 8)[space.index("gcn")]
        op_rows.weight.data = op_full.weight.data.copy()
        out_full = op_full()
        mask = np.zeros(out_full.shape)
        mask[rows] = 1.0
        (out_full * Tensor(mask)).sum().backward()
        op_rows.forward_rows(rows).sum().backward()
        np.testing.assert_allclose(op_rows.weight.grad, op_full.weight.grad,
                                   atol=1e-10)

    def test_builders_view_forward_matches_full_rows(self, imdb_tiny):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=5, num_layers=2,
                                  seed=3)
        seeds = imdb_tiny.graph.to_global(imdb_tiny.target_type,
                                          np.arange(10))
        view = sampler.sample(seeds)
        weighted = WeightedCompletionFeatures(imdb_tiny, 16)
        rng = np.random.default_rng(0)
        w = rng.random((imdb_tiny.missing_global_ids.shape[0], 4))
        w /= w.sum(axis=1, keepdims=True)
        weighted.set_weights(Tensor(w))
        builders = [
            weighted,
            HandcraftedFeatures(imdb_tiny, 16),
            SingleOpFeatures(imdb_tiny, 16, "mean"),
            FixedAssignmentFeatures.random(imdb_tiny, 16,
                                           np.random.default_rng(1)),
        ]
        for builder in builders:
            full = builder().data
            np.testing.assert_allclose(builder(view).data,
                                       full[view.node_ids], atol=1e-10,
                                       err_msg=type(builder).__name__)


# ----------------------------------------------------------------------
# Trainer: quality parity and bounded views
# ----------------------------------------------------------------------
class TestMiniBatchTrainer:
    def test_matches_full_graph_quality(self, bench_small):
        """With fanout >= max degree and one batch covering the train
        split, the sampled path reproduces the full-graph trainer's test
        macro-F1 (well within the 1-point acceptance band — it is exact
        here because extraction keeps full-graph normalization)."""
        dataset = bench_small
        fanout = int(dataset.graph.degrees().max()) + 1

        def build():
            set_seed(3)
            features = FixedAssignmentFeatures.random(
                dataset, 32, np.random.default_rng(3))
            model = build_model("gcn", dataset, hidden_dim=32, out_dim=32,
                                dropout=0.0)
            return model, features

        model, features = build()
        full = NodeClassificationTrainer(
            model, features, dataset,
            TrainConfig(epochs=40, patience=15)).train()
        model, features = build()
        mini = MiniBatchTrainer(
            model, features, dataset,
            MiniBatchConfig(epochs=40, patience=15, batch_size=4096,
                            fanout=fanout)).train()
        assert abs(full.macro_f1 - mini.macro_f1) < 0.01
        assert abs(full.micro_f1 - mini.micro_f1) < 0.01

    def test_stochastic_batches_train(self, bench_small):
        set_seed(5)
        dataset = bench_small
        features = FixedAssignmentFeatures.random(
            dataset, 16, np.random.default_rng(5))
        model = build_model("gcn", dataset, hidden_dim=16, out_dim=16)
        trainer = MiniBatchTrainer(
            model, features, dataset,
            MiniBatchConfig(epochs=30, patience=12, batch_size=32,
                            fanout=8))
        result = trainer.train()
        # far above the 1/8 chance level of the community labels
        assert result.macro_f1 > 0.3
        assert min(result.history["train_loss"]) \
            < result.history["train_loss"][0]

    def test_views_stay_bounded(self, bench_small):
        set_seed(0)
        dataset = bench_small
        features = FixedAssignmentFeatures.random(
            dataset, 16, np.random.default_rng(0))
        model = build_model("gcn", dataset, hidden_dim=16, out_dim=16)
        config = MiniBatchConfig(epochs=2, patience=5, batch_size=16,
                                 fanout=3, batches_per_epoch=2)
        trainer = MiniBatchTrainer(model, features, dataset, config)
        trainer.train()
        assert 0 < trainer.peak_view_nodes
        assert trainer.peak_view_nodes <= trainer.sampler.max_view_nodes(
            max(16, config.eval_batch_size))

    def test_rejects_full_graph_only_model(self, imdb_tiny):
        features = HandcraftedFeatures(imdb_tiny, 16)
        model = build_model("mlp", imdb_tiny, hidden_dim=16, out_dim=16)
        with pytest.raises(ValueError, match="supports_sampling"):
            MiniBatchTrainer(model, features, imdb_tiny)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            MiniBatchConfig(batch_size=0)
        with pytest.raises(ValueError, match="eval_batch_size"):
            MiniBatchConfig(eval_batch_size=0)


# ----------------------------------------------------------------------
# Search: stochastic lower level
# ----------------------------------------------------------------------
class TestMiniBatchSearch:
    def _config(self, **kwargs):
        base = dict(hidden_dim=16, out_dim=16, search_epochs=5,
                    warmup_epochs=1, patience=10, num_clusters=4,
                    minibatch=MiniBatchConfig(batch_size=16, fanout=4))
        base.update(kwargs)
        return AutoACConfig(**base)

    def test_discrete_search_runs(self, imdb_tiny):
        set_seed(0)
        searcher = AutoACSearcher(NodeClassificationAdapter(imdb_tiny),
                                  "gcn", config=self._config(), seed=0)
        result = searcher.search()
        assert result.epochs_run == 5
        assert result.assignment.shape[0] == \
            imdb_tiny.missing_global_ids.shape[0]
        assert set(np.unique(result.assignment)) <= set(range(4))

    def test_mixture_search_runs(self, imdb_tiny):
        set_seed(0)
        config = self._config(discrete=False, unrolled=False)
        searcher = AutoACSearcher(NodeClassificationAdapter(imdb_tiny),
                                  "gcn", config=config, seed=0)
        result = searcher.search()
        assert result.epochs_run == 5

    @pytest.mark.parametrize("method", ["none", "em"])
    def test_cluster_methods(self, imdb_tiny, method):
        set_seed(0)
        config = self._config(cluster_method=method)
        searcher = AutoACSearcher(NodeClassificationAdapter(imdb_tiny),
                                  "simple_hgn", config=config, seed=0)
        result = searcher.search()
        assert result.epochs_run == 5

    def test_rejects_full_graph_backbone(self, imdb_tiny):
        with pytest.raises(ValueError, match="supports_sampling"):
            AutoACSearcher(NodeClassificationAdapter(imdb_tiny), "mlp",
                           config=self._config(), seed=0)

    def test_rejects_adapter_without_batch_loss(self, imdb_tiny):
        class Stub:  # e.g. a link-prediction adapter: no per-batch loss
            def __init__(self, dataset):
                self.dataset = dataset

        with pytest.raises(ValueError, match="train_loss_on_batch"):
            AutoACSearcher(Stub(imdb_tiny), "gcn",
                           config=self._config(), seed=0)


# ----------------------------------------------------------------------
# Serving: sampled onboarding
# ----------------------------------------------------------------------
class TestSampledOnboarding:
    def test_sampled_onboarding_serves_and_preserves_base(self, tiny_bundle):
        from repro.serving import InferenceEngine
        dataset = tiny_bundle["dataset"]
        engine = InferenceEngine(tiny_bundle["bundle"], dataset=dataset)
        base = engine.predict(np.arange(5))
        relation = ("movie", "stars", "actor")
        result = engine.onboard("actor", {relation: [0, 1]})
        assert result.node_type == "actor"
        assert result.embedding is not None
        assert result.op_name is not None
        # existing predictions never change
        assert np.array_equal(engine.predict(np.arange(5)), base)
        # onboarding a target-type node yields a served prediction
        raw = np.zeros(dataset.features["movie"].shape[1])
        raw[:3] = 1.0
        movie = engine.onboard("movie", {relation: [2]}, raw_features=raw)
        assert movie.prediction is not None
        assert movie.logits is not None
        assert engine.num_onboarded == 2
