"""GraphView + NeighborSampler: invariants, exactness, cache interplay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import HandcraftedFeatures
from repro.graph import GraphView, HeteroGraph, NeighborSampler
from repro.models import build_model
from repro.tensor import no_grad


def _target_seeds(dataset, count):
    return dataset.graph.to_global(dataset.target_type,
                                   np.arange(count, dtype=np.int64))


# ----------------------------------------------------------------------
# View construction invariants
# ----------------------------------------------------------------------
class TestGraphView:
    def test_seeds_come_first(self, imdb_tiny):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=4, num_layers=2,
                                  seed=0)
        seeds = _target_seeds(imdb_tiny, 6)
        view = sampler.sample(seeds)
        assert np.array_equal(view.node_ids[:6], seeds)
        assert np.array_equal(view.seed_local, np.arange(6))

    def test_local_of_roundtrip(self, imdb_tiny):
        view = NeighborSampler(imdb_tiny.graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 5))
        local = view.local_of(view.node_ids)
        assert np.array_equal(local, np.arange(view.num_nodes))
        assert view.contains(int(view.node_ids[-1]))
        assert not view.contains(10 ** 9)

    def test_type_members_partition_the_view(self, imdb_tiny):
        graph = imdb_tiny.graph
        view = NeighborSampler(graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 5))
        total = 0
        for node_type in graph.node_types:
            view_local, parent_local = view.type_members(node_type)
            total += view_local.shape[0]
            recovered = graph.to_global(node_type, parent_local)
            assert np.array_equal(view.node_ids[view_local], recovered)
        assert total == view.num_nodes

    def test_edges_stay_inside_the_view(self, imdb_tiny):
        view = NeighborSampler(imdb_tiny.graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 5))
        src, dst, etype = view.all_edges()
        assert src.min() >= 0 and src.max() < view.num_nodes
        assert dst.min() >= 0 and dst.max() < view.num_nodes
        assert etype.max() < imdb_tiny.graph.num_relations

    def test_self_loop_edge_type_matches_full_graph(self, imdb_tiny):
        graph = imdb_tiny.graph
        view = NeighborSampler(graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 5))
        *_, etype, num_types = view.edge_arrays_with_self_loops()
        assert num_types == graph.num_relations + 1
        assert etype.max() == graph.num_relations

    def test_seed_validation(self, imdb_tiny):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=4, seed=0)
        with pytest.raises(ValueError, match="unique"):
            sampler.sample(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="empty"):
            sampler.sample(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="range"):
            sampler.sample(np.array([10 ** 9]))

    def test_induced_view_keeps_every_internal_edge(self, imdb_tiny):
        graph = imdb_tiny.graph
        sampled = NeighborSampler(graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 8))
        induced = GraphView.induced(graph, sampled.node_ids,
                                    sampled.seed_ids)
        assert induced.num_nodes == sampled.num_nodes
        assert induced.num_edges() >= sampled.num_edges()


# ----------------------------------------------------------------------
# Sampler semantics
# ----------------------------------------------------------------------
class TestNeighborSampler:
    def test_fanout_cap_per_relation(self, imdb_tiny):
        fanout = 3
        view = NeighborSampler(imdb_tiny.graph, fanout=fanout,
                               num_layers=2, seed=0).sample(
            _target_seeds(imdb_tiny, 10))
        for relation in view.relations:
            pairs = view.edges_local(relation)
            _, counts = np.unique(pairs[1], return_counts=True)
            assert counts.max() <= fanout

    def test_deterministic_given_seed(self, imdb_tiny):
        seeds = _target_seeds(imdb_tiny, 10)
        a = NeighborSampler(imdb_tiny.graph, fanout=3, seed=42).sample(seeds)
        b = NeighborSampler(imdb_tiny.graph, fanout=3, seed=42).sample(seeds)
        assert np.array_equal(a.node_ids, b.node_ids)
        assert a.relations == b.relations
        for relation in a.relations:
            assert np.array_equal(a.edges_local(relation),
                                  b.edges_local(relation))

    def test_relation_fanout_mapping(self, imdb_tiny):
        graph = imdb_tiny.graph
        only = graph.relations[0]
        sampler = NeighborSampler(graph, fanout={only: 2}, num_layers=1,
                                  seed=0)
        assert sampler.fanout_of(only) == 2
        assert sampler.fanout_of(graph.relations[1]) == 0
        view = sampler.sample(_target_seeds(imdb_tiny, 5))
        assert set(view.relations) <= {only}

    def test_uncapped_fanout_keeps_every_in_neighbor(self, imdb_tiny):
        graph = imdb_tiny.graph
        seeds = _target_seeds(imdb_tiny, 6)
        exact = NeighborSampler(graph, fanout=None, num_layers=2).sample(
            seeds)
        capped = NeighborSampler(graph, fanout=int(graph.degrees().max()),
                                 num_layers=2, seed=0).sample(seeds)
        assert np.array_equal(exact.node_ids, capped.node_ids)
        assert exact.relations == capped.relations
        for relation in exact.relations:
            assert np.array_equal(exact.edges_local(relation),
                                  capped.edges_local(relation))
        assert exact.num_nodes < graph.num_nodes
        assert NeighborSampler(graph, fanout=None).max_view_nodes(
            6) == graph.num_nodes

    def test_view_size_within_analytic_bound(self, imdb_tiny):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=3, num_layers=2,
                                  seed=0)
        view = sampler.sample(_target_seeds(imdb_tiny, 4))
        assert view.num_nodes <= sampler.max_view_nodes(4)

    def test_sample_type_convenience(self, imdb_tiny):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=3, seed=0)
        view = sampler.sample_type(imdb_tiny.target_type, [0, 1, 2])
        expected = imdb_tiny.graph.to_global(imdb_tiny.target_type,
                                             np.array([0, 1, 2]))
        assert np.array_equal(view.seed_ids, expected)

    def test_invalid_construction(self, imdb_tiny):
        with pytest.raises(ValueError, match="num_layers"):
            NeighborSampler(imdb_tiny.graph, fanout=3, num_layers=0)
        with pytest.raises(ValueError, match="fanout"):
            NeighborSampler(imdb_tiny.graph, fanout=0)


# ----------------------------------------------------------------------
# Exactness: extraction-based operators and large-fanout sampling
# ----------------------------------------------------------------------
class TestExactness:
    def test_normalized_adjacency_is_extracted_not_renormalized(self, imdb_tiny):
        graph = imdb_tiny.graph
        view = NeighborSampler(graph, fanout=4, seed=0).sample(
            _target_seeds(imdb_tiny, 6))
        sub = view.normalized_adjacency(mode="sym", self_loops=True)
        full = graph.normalized_adjacency(mode="sym",
                                          self_loops=True).to_scipy()
        expected = full[view.node_ids][:, view.node_ids].toarray()
        np.testing.assert_allclose(sub.to_dense(), expected, atol=1e-12)

    @pytest.mark.parametrize("name", ["gcn", "gat", "simple_hgn"])
    def test_full_induced_view_matches_full_graph(self, imdb_tiny, name):
        dataset = imdb_tiny
        graph = dataset.graph
        features = HandcraftedFeatures(dataset, 16)
        model = build_model(name, dataset, hidden_dim=16, out_dim=16)
        model.eval()
        features.eval()
        target = graph.global_ids(dataset.target_type)
        view = GraphView.induced(graph, np.arange(graph.num_nodes),
                                 seed_ids=target)
        with no_grad():
            full_logits = model(features()).data
            view_logits = model(features(view), view=view).data
        np.testing.assert_allclose(view_logits, full_logits, atol=1e-8)

    def test_large_fanout_sampling_is_exact(self, imdb_tiny):
        """Fanout >= max degree keeps every neighbor: seed logits match
        the full-graph forward exactly (the parity the mini-batch
        trainer's quality guarantee rests on)."""
        dataset = imdb_tiny
        graph = dataset.graph
        fanout = int(graph.degrees().max()) + 1
        features = HandcraftedFeatures(dataset, 16)
        model = build_model("gcn", dataset, hidden_dim=16, out_dim=16,
                            num_layers=2)
        model.eval()
        features.eval()
        seeds_local = np.arange(12, dtype=np.int64)
        view = NeighborSampler(graph, fanout=fanout, num_layers=2,
                               seed=0).sample(
            graph.to_global(dataset.target_type, seeds_local))
        with no_grad():
            full_logits = model(features()).data[seeds_local]
            view_logits = model(features(view), view=view).data
        np.testing.assert_allclose(view_logits, full_logits, atol=1e-10)

    def test_full_graph_only_model_rejects_view(self, imdb_tiny):
        view = NeighborSampler(imdb_tiny.graph, fanout=3, seed=0).sample(
            _target_seeds(imdb_tiny, 4))
        features = HandcraftedFeatures(imdb_tiny, 16)
        model = build_model("mlp", imdb_tiny, hidden_dim=16, out_dim=16)
        with pytest.raises(ValueError, match="full-graph only"):
            model(features(view), view=view)


# ----------------------------------------------------------------------
# Mutation interplay: append_node / rollback vs sampling + LRU caches
# ----------------------------------------------------------------------
class TestMutationInterplay:
    @staticmethod
    def _graph():
        edges = {
            ("movie", "stars", "actor"): np.array([[0, 0, 1, 2, 3],
                                                   [0, 1, 1, 2, 2]]),
            ("movie", "tagged", "tag"): np.array([[0, 1, 2, 3],
                                                  [0, 0, 1, 1]]),
        }
        graph = HeteroGraph({"movie": 4, "actor": 3, "tag": 2}, edges)
        graph.add_reverse_relations()
        return graph

    def test_onboarded_node_appears_in_subsequent_samples(self):
        graph = self._graph()
        stars = ("movie", "stars", "actor")
        # new actor starring in movie 0; reverse edge mirrored
        new_local = graph.append_node("actor", {stars: np.array([0])})
        new_global = int(graph.to_global("actor",
                                         np.array([new_local]))[0])
        view = NeighborSampler(graph, fanout=16, num_layers=1,
                               seed=0).sample(np.array([0]))  # movie 0
        assert view.contains(new_global), (
            "an onboarded node must be reachable by fresh samples")

    def test_sample_csr_cache_survives_unrelated_append(self):
        graph = self._graph()
        sampler = NeighborSampler(graph, fanout=4, num_layers=2, seed=0)
        sampler.sample(np.array([0, 1]))  # populate sample CSRs
        stars = ("movie", "stars", "actor")
        tagged = ("movie", "tagged", "tag")
        assert ("sample_csr", stars) in graph._norm_cache
        assert ("sample_csr", tagged) in graph._norm_cache
        graph.append_node("tag", {tagged: np.array([0])})
        # the actor-side structure survives, the tag-side one is dropped
        assert ("sample_csr", stars) in graph._norm_cache
        assert ("sample_csr", tagged) not in graph._norm_cache

    def test_rollback_restores_sampling_state(self):
        graph = self._graph()
        stars = ("movie", "stars", "actor")
        before = NeighborSampler(graph, fanout=16, num_layers=2,
                                 seed=7).sample(np.array([0, 1]))
        new_local = graph.append_node("actor", {stars: np.array([0])})
        assert graph.pop_node("actor") == new_local
        after = NeighborSampler(graph, fanout=16, num_layers=2,
                                seed=7).sample(np.array([0, 1]))
        assert np.array_equal(before.node_ids, after.node_ids)
        for relation in before.relations:
            assert np.array_equal(before.edges_local(relation),
                                  after.edges_local(relation))

    def test_stale_sample_csr_not_reused_after_append(self):
        """append_node must invalidate the relation's sampling CSR —
        otherwise a fresh sampler would read edges of the old graph."""
        graph = self._graph()
        stars = ("movie", "stars", "actor")
        NeighborSampler(graph, fanout=4, seed=0).sample(np.array([0]))
        assert ("sample_csr", stars) in graph._norm_cache
        graph.append_node("actor", {stars: np.array([0, 1])})
        assert ("sample_csr", stars) not in graph._norm_cache
        # re-sampling rebuilds it against the mutated edge list
        view = NeighborSampler(graph, fanout=16, num_layers=1,
                               seed=0).sample(np.array([0]))
        new_global = int(graph.to_global(
            "actor", np.array([graph.num_nodes_of("actor") - 1]))[0])
        assert view.contains(new_global)
