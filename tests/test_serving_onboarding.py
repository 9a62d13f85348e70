"""Online node onboarding: graph append, cache surgery, overlay serving."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.completion import FixedAssignmentFeatures, SearchSpace
from repro.graph.adjacency import LRUCache
from repro.models import build_model
from repro.serving import (
    DatasetSpec,
    InferenceEngine,
    ModelBundle,
    build_bundle,
    parse_relation,
)
from repro.serving import onboarding as onboarding_module
from repro.telemetry import EventSink, Tracer
from repro.tensor import Tensor, no_grad
from repro.training import NodeClassificationTrainer, TrainConfig, set_seed


class TestLRUCacheSurgery:
    def test_lookup_and_get(self):
        cache = LRUCache(maxsize=2)
        assert "a" not in cache
        assert cache.get("a", lambda: 1) == 1
        assert cache.hits == 0 and cache.misses == 1
        assert "a" in cache
        assert cache.get("a", lambda: 2) == 1  # a hit does not rebuild
        assert cache.hits == 1 and cache.misses == 1

    def test_get_evicts_oldest(self):
        cache = LRUCache(maxsize=2)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            cache.get(key, lambda: value)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_invalidate_is_targeted(self):
        cache = LRUCache(maxsize=8)
        for key in [("block", "a"), ("block", "b"), ("global",)]:
            cache.get(key, lambda: key)
        dropped = cache.invalidate(lambda key: key[0] == "global"
                                   or "a" in key)
        assert dropped == 2
        assert ("block", "b") in cache and len(cache) == 1


class TestAppendNode:
    def test_counts_offsets_and_edges(self, toy_graph):
        old_actor_offset = toy_graph.offset_of("actor")
        old_tag_offset = toy_graph.offset_of("tag")
        old_edges = toy_graph.num_edges(("movie", "stars", "actor"))
        new_local = toy_graph.append_node(
            "movie", {("movie", "stars", "actor"): [0, 2]})
        assert new_local == 4
        assert toy_graph.num_nodes_of("movie") == 5
        assert toy_graph.num_nodes == 10
        # types after 'movie' shift by one
        assert toy_graph.offset_of("actor") == old_actor_offset + 1
        assert toy_graph.offset_of("tag") == old_tag_offset + 1
        assert toy_graph.num_edges(("movie", "stars", "actor")) == old_edges + 2
        pairs = toy_graph.edges_local(("movie", "stars", "actor"))
        np.testing.assert_array_equal(pairs[:, -2:],
                                      [[new_local, new_local], [0, 2]])

    def test_auto_reverse_mirrors_edges(self, toy_graph):
        before = toy_graph.num_edges(("actor", "stars_rev", "movie"))
        toy_graph.append_node("movie", {("movie", "stars", "actor"): [1]})
        reverse = toy_graph.edges_local(("actor", "stars_rev", "movie"))
        assert reverse.shape[1] == before + 1
        np.testing.assert_array_equal(reverse[:, -1], [1, 4])

    def test_append_on_destination_side(self, toy_graph):
        new_local = toy_graph.append_node(
            "actor", {("movie", "stars", "actor"): [0, 3]})
        assert new_local == 3
        pairs = toy_graph.edges_local(("movie", "stars", "actor"))
        np.testing.assert_array_equal(pairs[:, -2:], [[0, 3], [3, 3]])

    def test_neighbors_see_the_new_node(self, toy_graph):
        new_local = toy_graph.append_node(
            "actor", {("movie", "stars", "actor"): [0]})
        gid = int(toy_graph.to_global("actor", np.array([new_local]))[0])
        movie0 = int(toy_graph.to_global("movie", np.array([0]))[0])
        assert gid in toy_graph.neighbors(movie0)

    def test_errors(self, toy_graph):
        with pytest.raises(KeyError, match="unknown node type"):
            toy_graph.append_node("studio", {})
        with pytest.raises(KeyError, match="unknown relation"):
            toy_graph.append_node("movie",
                                  {("movie", "likes", "actor"): [0]})
        with pytest.raises(ValueError, match="does not involve"):
            toy_graph.append_node("tag",
                                  {("movie", "stars", "actor"): [0]})
        with pytest.raises(ValueError, match="out of range"):
            toy_graph.append_node("movie",
                                  {("movie", "stars", "actor"): [99]})
        # failed validation must not mutate the graph
        assert toy_graph.num_nodes_of("movie") == 4

    def test_targeted_cache_invalidation(self, toy_graph):
        from repro.graph.sampler import _dst_indexed_csr

        tagged = ("movie", "tagged", "tag")
        stars = ("movie", "stars", "actor")
        kept = toy_graph.biadjacency(tagged)
        kept_csr = _dst_indexed_csr(toy_graph, tagged)
        stale = toy_graph.biadjacency(stars)
        _dst_indexed_csr(toy_graph, stars)
        toy_graph.normalized_adjacency(mode="sym")
        toy_graph.append_node("actor", {stars: [0]})
        cache = toy_graph._norm_cache
        assert ("biadjacency", tagged, "float64") in cache
        assert ("sample_csr", tagged) in cache
        assert ("biadjacency", stars, "float64") not in cache
        assert ("sample_csr", stars) not in cache
        assert ("global", "sym", False, True, "float64") not in cache
        # the surviving entries are the same objects (no rebuild)
        assert toy_graph.biadjacency(tagged) is kept
        assert _dst_indexed_csr(toy_graph, tagged) is kept_csr
        rebuilt = toy_graph.biadjacency(stars)
        assert rebuilt is not stale
        assert rebuilt.shape == (4, 4)

    def test_pop_node_is_exact_inverse_of_append(self, toy_graph):
        edges_before = {rel: toy_graph.edges_local(rel).copy()
                        for rel in toy_graph.relations}
        offsets_before = {t: toy_graph.offset_of(t)
                          for t in toy_graph.node_types}
        toy_graph.append_node("actor", {("movie", "stars", "actor"): [0, 2]})
        removed = toy_graph.pop_node("actor")
        assert removed == 3
        assert toy_graph.num_nodes == 9
        assert toy_graph.num_nodes_of("actor") == 3
        for node_type, offset in offsets_before.items():
            assert toy_graph.offset_of(node_type) == offset
        for relation, pairs in edges_before.items():
            np.testing.assert_array_equal(toy_graph.edges_local(relation),
                                          pairs)

    def test_pop_node_refuses_to_empty_a_type(self, toy_graph):
        toy_graph.pop_node("tag")  # 2 -> 1 is fine
        with pytest.raises(ValueError, match="last node"):
            toy_graph.pop_node("tag")

    def test_copy_isolated(self, toy_graph):
        clone = toy_graph.copy()
        clone.append_node("movie", {("movie", "stars", "actor"): [0]})
        assert clone.num_nodes_of("movie") == 5
        assert toy_graph.num_nodes_of("movie") == 4
        assert toy_graph.num_edges() != clone.num_edges()


class TestParseRelation:
    def test_forms(self):
        assert parse_relation("a:likes:b") == ("a", "likes", "b")
        assert parse_relation(("a", "likes", "b")) == ("a", "likes", "b")
        with pytest.raises(ValueError):
            parse_relation("a:b")
        with pytest.raises(ValueError):
            parse_relation(("a", "b"))


@pytest.fixture(scope="module")
def mean_bundle(imdb_tiny):
    """A bundle whose searched assignment is 'mean' everywhere, so the
    inductive topology path (not the one_hot fallback) is exercised."""
    set_seed(11)
    space = SearchSpace()
    assignment = np.full(imdb_tiny.missing_global_ids.shape[0],
                         space.index("mean"), dtype=np.int64)
    features = FixedAssignmentFeatures(imdb_tiny, 32, assignment, space=space)
    model = build_model("gcn", imdb_tiny, hidden_dim=32, out_dim=32)
    NodeClassificationTrainer(model, features, imdb_tiny,
                              TrainConfig(epochs=2, patience=10)).train()
    return build_bundle(imdb_tiny, DatasetSpec("imdb", "tiny", 0), "gcn",
                        model, features, hidden_dim=32, out_dim=32)


class TestEngineOnboarding:
    @pytest.fixture()
    def engine(self, tiny_bundle):
        return InferenceEngine(ModelBundle.load(tiny_bundle["path"]),
                               dataset=tiny_bundle["dataset"])

    def test_missing_type_gets_completed_attribute(self, engine):
        result = engine.onboard("actor",
                                {("movie", "stars", "actor"): [0, 1, 2]})
        assert result.node_type == "actor"
        assert result.local_id == engine.dataset.graph.num_nodes_of("actor")
        assert result.cluster is not None
        assert result.op_name in engine.bundle.op_names
        assert result.completed.shape == (engine.bundle.hidden_dim,)
        assert result.embedding is not None
        assert result.prediction is None  # actor is not the target type

    def test_target_type_gets_prediction(self, engine):
        raw_dim = engine.dataset.features["movie"].shape[1]
        raw = np.random.default_rng(0).normal(size=raw_dim)
        result = engine.onboard(
            "movie", {"movie:stars:actor": [0, 1]}, raw_features=raw)
        assert result.prediction is not None
        assert result.label == engine.bundle.label_names[result.prediction]
        assert result.logits.shape == (engine.bundle.num_classes,)

    def test_existing_predictions_unchanged(self, engine, tiny_bundle):
        n_target = engine.dataset.graph.num_nodes_of(
            engine.bundle.target_type)
        before = engine.predict(np.arange(n_target)).copy()
        np.testing.assert_array_equal(before, tiny_bundle["reference"])
        engine.onboard("actor", {("movie", "stars", "actor"): [0]})
        raw_dim = engine.dataset.features["movie"].shape[1]
        onboarded = engine.onboard(
            "movie", {"movie:stars:actor": [2]},
            raw_features=np.zeros(raw_dim))
        after = engine.predict(np.arange(n_target))
        np.testing.assert_array_equal(after, before)
        # and the overlay answers through the normal predict API
        via_predict = engine.predict([onboarded.local_id])
        assert via_predict[0] == onboarded.prediction

    def test_base_state_is_never_mutated(self, engine):
        base_graph = engine.dataset.graph
        nodes_before = base_graph.num_nodes
        features_before = engine.dataset.features["movie"]
        engine.onboard("actor", {("movie", "stars", "actor"): [0]})
        assert base_graph.num_nodes == nodes_before
        assert engine.dataset.features["movie"] is features_before

    def test_sequential_onboards_accumulate(self, engine):
        first = engine.onboard("actor", {("movie", "stars", "actor"): [0]})
        second = engine.onboard("actor", {("movie", "stars", "actor"): [1]})
        assert second.local_id == first.local_id + 1
        assert engine.num_onboarded == 2

    def test_attributed_type_requires_features(self, engine):
        with pytest.raises(ValueError, match="raw feature"):
            engine.onboard("movie", {"movie:stars:actor": [0]})
        with pytest.raises(ValueError, match="dim"):
            engine.onboard("movie", {"movie:stars:actor": [0]},
                           raw_features=np.zeros(3))

    def test_unknown_type_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.onboard("studio", {})

    def test_failed_onboard_rolls_back_completely(self, engine,
                                                  monkeypatch):
        """A forward that fails mid-onboard must leave no ghost node
        behind — retries and later onboards stay consistent."""
        engine.onboard("actor", {("movie", "stars", "actor"): [0]})
        manager = engine._onboarding
        graph = manager._dataset.graph
        nodes_before = graph.num_nodes
        actors_before = graph.num_nodes_of("actor")
        labels_before = manager._dataset.labels
        h0_before = manager._h0

        def broken(*args, **kwargs):
            raise RuntimeError("backbone forward failed")

        monkeypatch.setattr(engine.model, "encode", broken)
        with pytest.raises(RuntimeError, match="forward failed"):
            engine.onboard("actor", {("movie", "stars", "actor"): [1]})
        assert graph.num_nodes == nodes_before
        assert graph.num_nodes_of("actor") == actors_before
        assert manager._dataset.labels is labels_before
        assert manager._h0 is h0_before
        assert engine.num_onboarded == 1
        # restore and retry: the same onboard now succeeds cleanly
        monkeypatch.undo()
        result = engine.onboard("actor", {("movie", "stars", "actor"): [1]})
        assert result.local_id == graph.num_nodes_of("actor") - 1
        assert graph.num_nodes == nodes_before + 1

    def test_mean_assignment_uses_inductive_mean_op(self, mean_bundle,
                                                    imdb_tiny):
        engine = InferenceEngine(mean_bundle, dataset=imdb_tiny)
        result = engine.onboard("actor",
                                {("movie", "stars", "actor"): [0, 1, 4]})
        assert result.op_name == "mean"
        # mean completion = mean of attributed neighbors' raw attrs @ W
        raw = imdb_tiny.features["movie"][[0, 1, 4]].mean(axis=0)
        weight = mean_bundle.features_state[
            f"ops.{SearchSpace().index('mean')}.weight"]
        np.testing.assert_allclose(result.completed, raw @ weight,
                                   rtol=1e-10, atol=1e-12)

    def test_isolated_node_falls_back_to_type_majority(self, mean_bundle,
                                                       imdb_tiny):
        engine = InferenceEngine(mean_bundle, dataset=imdb_tiny)
        result = engine.onboard("keyword", {})
        assert result.op_name == "mean"
        assert result.cluster is not None
        # no attributed neighbors → the mean op yields a zero attribute
        np.testing.assert_allclose(result.completed, 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# The onboarding forward runs on the new node's exact receptive field
# ----------------------------------------------------------------------
def _quick_bundle(dataset, model_name):
    """A one-epoch bundle of ``model_name`` on ``dataset``."""
    set_seed(3)
    space = SearchSpace()
    assignment = np.random.default_rng(3).integers(
        0, len(space), size=dataset.missing_global_ids.shape[0])
    features = FixedAssignmentFeatures(dataset, 32, assignment, space=space)
    model = build_model(model_name, dataset, hidden_dim=32, out_dim=32)
    NodeClassificationTrainer(model, features, dataset,
                              TrainConfig(epochs=1, patience=10)).train()
    return build_bundle(dataset, DatasetSpec("imdb", "tiny", 0), model_name,
                        model, features, hidden_dim=32, out_dim=32)


def _full_forward(engine):
    """``(encoded, target logits)`` of a model rebuilt over the engine's
    updated graph, run on the whole updated ``h0``."""
    manager = engine._onboarding
    bundle = engine.bundle
    model = build_model(bundle.model_name, manager._dataset,
                        hidden_dim=bundle.hidden_dim, out_dim=bundle.out_dim,
                        **bundle.model_kwargs)
    model.load_state_dict(bundle.model_state)
    model.eval()
    with no_grad():
        encoded = model.encode(Tensor(manager._h0))
        logits = model.classifier(model.target_rows(encoded))
    return model, encoded.data, logits.data


def _receptive_field(graph, gid, num_layers):
    """Nodes within ``num_layers`` in-hops of ``gid`` (plain BFS)."""
    src, dst, _ = graph.all_edges_global()
    seen, frontier = {gid}, {gid}
    for _ in range(num_layers):
        frontier = set(src[np.isin(dst, list(frontier))].tolist()) - seen
        seen |= frontier
    return len(seen)


def _onboards(dataset):
    """One attributed movie and one attribute-less actor."""
    raw = np.random.default_rng(0).normal(
        size=dataset.features["movie"].shape[1])
    return [("movie", {"movie:stars:actor": [0, 1],
                       "movie:directed-by:director": [2]}, raw),
            ("actor", {"movie:stars:actor": [0, 2]}, None)]


@pytest.fixture(scope="module", params=["simple_hgn", "gat", "gcn"])
def view_bundle(request, imdb_tiny):
    return _quick_bundle(imdb_tiny, request.param)


class TestReceptiveFieldOnboarding:
    def test_parity_with_full_forward(self, view_bundle, imdb_tiny):
        engine = InferenceEngine(view_bundle, dataset=imdb_tiny)
        for node_type, edges, raw in _onboards(imdb_tiny):
            result = engine.onboard(node_type, edges, raw_features=raw)
            _, encoded, logits = _full_forward(engine)
            np.testing.assert_allclose(result.embedding,
                                       encoded[result.global_id],
                                       rtol=0, atol=1e-12)
            if node_type == imdb_tiny.target_type:
                np.testing.assert_allclose(result.logits,
                                           logits[result.local_id],
                                           rtol=0, atol=1e-12)
                assert result.prediction == int(
                    np.argmax(logits[result.local_id]))
            else:
                assert result.logits is None and result.prediction is None

    def test_encode_sees_only_the_receptive_field(self, tiny_bundle,
                                                  monkeypatch):
        engine = InferenceEngine(tiny_bundle["bundle"],
                                 dataset=tiny_bundle["dataset"])
        rows = []
        encode = engine.model.encode

        def counting(h0, view=None):
            rows.append(h0.shape[0])
            return encode(h0, view=view)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a view-capable backbone was rebuilt")

        monkeypatch.setattr(engine.model, "encode", counting)
        monkeypatch.setattr(onboarding_module, "build_model", no_rebuild)
        for node_type, edges, raw in _onboards(engine.dataset):
            rows.clear()
            result = engine.onboard(node_type, edges, raw_features=raw)
            graph = engine._onboarding._dataset.graph
            field = _receptive_field(graph, result.global_id,
                                     engine.model.num_layers)
            assert rows == [field]
            assert field < graph.num_nodes

    @pytest.fixture(scope="class")
    def han_bundle(self, imdb_tiny):
        """A backbone without view support (metapath-based HAN)."""
        return _quick_bundle(imdb_tiny, "han")

    def test_backbone_without_views_runs_the_full_forward(self, han_bundle,
                                                          imdb_tiny,
                                                          monkeypatch):
        engine = InferenceEngine(han_bundle, dataset=imdb_tiny)
        assert not engine.model.supports_sampling
        rebuilt = []
        build = onboarding_module.build_model

        def counting(*args, **kwargs):
            rebuilt.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(onboarding_module, "build_model", counting)
        node_type, edges, raw = _onboards(imdb_tiny)[0]
        result = engine.onboard(node_type, edges, raw_features=raw)
        assert rebuilt == ["han"]
        _, encoded, logits = _full_forward(engine)
        np.testing.assert_allclose(result.logits, logits[result.local_id],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.embedding,
                                   encoded[result.local_id],
                                   rtol=0, atol=1e-12)

    def test_failed_rebuild_is_reported_and_rolled_back(self, han_bundle,
                                                        imdb_tiny):
        engine = InferenceEngine(han_bundle, dataset=imdb_tiny)
        node_type, edges, raw = _onboards(imdb_tiny)[0]
        removed = han_bundle.model_state.pop("classifier.weight")
        try:
            with pytest.raises(RuntimeError, match="inductively"):
                engine.onboard(node_type, edges, raw_features=raw)
        finally:
            han_bundle.model_state["classifier.weight"] = removed
        assert engine._onboarding._dataset.graph.num_nodes == (
            imdb_tiny.graph.num_nodes)
        assert engine.num_onboarded == 0

    def test_onboard_span_reports_view_size(self, tiny_bundle):
        buffer = io.StringIO()
        engine = InferenceEngine(tiny_bundle["bundle"],
                                 dataset=tiny_bundle["dataset"],
                                 tracer=Tracer(EventSink(buffer)))
        node_type, edges, raw = _onboards(engine.dataset)[1]
        result = engine.onboard(node_type, edges, raw_features=raw)
        spans = [json.loads(line) for line in buffer.getvalue().splitlines()]
        (span,) = [s for s in spans if s["name"] == "onboard"]
        graph = engine._onboarding._dataset.graph
        assert span["attrs"]["view_nodes"] == _receptive_field(
            graph, result.global_id, engine.model.num_layers)
        assert 0 < span["attrs"]["view_edges"] < graph.num_edges()
