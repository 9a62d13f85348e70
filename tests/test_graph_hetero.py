"""Tests for the heterogeneous graph container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import HeteroGraph


class TestConstruction:
    def test_global_id_layout(self, toy_graph):
        assert toy_graph.num_nodes == 9
        assert toy_graph.offset_of("movie") == 0
        assert toy_graph.offset_of("actor") == 4
        assert toy_graph.offset_of("tag") == 7
        np.testing.assert_array_equal(toy_graph.global_ids("actor"), [4, 5, 6])

    def test_node_type_index(self, toy_graph):
        idx = toy_graph.node_type_index
        assert list(idx) == [0, 0, 0, 0, 1, 1, 1, 2, 2]
        assert toy_graph.type_of(5) == "actor"

    def test_local_global_roundtrip(self, toy_graph):
        local = np.array([0, 2])
        global_ids = toy_graph.to_global("actor", local)
        np.testing.assert_array_equal(global_ids, [4, 6])
        np.testing.assert_array_equal(
            global_ids - toy_graph.offset_of("actor"), local)

    def test_zero_count_type_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph({"a": 0}, {})

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph({"a": 2}, {("a", "r", "a"): np.zeros((3, 2))})

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph({"a": 2, "b": 2},
                        {("a", "r", "b"): np.array([[0, 5], [0, 1]])})

    def test_unknown_type_rejected(self):
        with pytest.raises(KeyError):
            HeteroGraph({"a": 2}, {("a", "r", "zzz"): np.zeros((2, 0), dtype=int)})

    def test_duplicate_relation_rejected(self, toy_graph):
        with pytest.raises(KeyError):
            toy_graph.add_relation(("movie", "stars", "actor"),
                                   np.array([[0], [0]]))


class TestReverseRelations:
    def test_reverse_added_once(self, toy_graph):
        # conftest already called add_reverse_relations
        names = [rel[1] for rel in toy_graph.relations]
        assert "stars_rev" in names and "tagged_rev" in names
        before = len(toy_graph.relations)
        toy_graph.add_reverse_relations()
        assert len(toy_graph.relations) == before

    def test_reverse_edges_flipped(self, toy_graph):
        forward = toy_graph.edges_local(("movie", "stars", "actor"))
        reverse = toy_graph.edges_local(("actor", "stars_rev", "movie"))
        np.testing.assert_array_equal(forward[0], reverse[1])
        np.testing.assert_array_equal(forward[1], reverse[0])


class TestEdgesAndAdjacency:
    def test_edges_global_offsets(self, toy_graph):
        pairs = toy_graph.edges_global(("movie", "stars", "actor"))
        assert pairs[1].min() >= 4  # actor offset

    def test_num_edges(self, toy_graph):
        assert toy_graph.num_edges(("movie", "stars", "actor")) == 5
        assert toy_graph.num_edges() == 2 * (5 + 4)

    def test_all_edges_global_etype_ids(self, toy_graph):
        src, dst, etype = toy_graph.all_edges_global()
        assert src.shape == dst.shape == etype.shape
        assert etype.max() == len(toy_graph.relations) - 1

    def test_adjacency_symmetric_and_binary(self, toy_graph):
        adj = toy_graph.adjacency(symmetric=True)
        assert (adj != adj.T).nnz == 0
        assert set(np.unique(adj.data)) == {1.0}
        assert adj.diagonal().sum() == 0

    def test_adjacency_values_match_edges(self, toy_graph):
        adj = toy_graph.adjacency()
        # movie0-actor0 edge: global ids 0 and 4
        assert adj[0, 4] == 1.0 and adj[4, 0] == 1.0
        assert adj[0, 6] == 0.0

    def test_biadjacency_shape_and_entries(self, toy_graph):
        bi = toy_graph.biadjacency(("movie", "stars", "actor"))
        assert bi.shape == (4, 3)
        assert bi[0, 0] == 1 and bi[0, 1] == 1 and bi[3, 2] == 1

    def test_degrees(self, toy_graph):
        degrees = toy_graph.degrees()
        # movie0: actor0, actor1, tag0 → degree 3
        assert degrees[0] == 3
        # actor2 stars in movies 2,3 → degree 2
        assert degrees[6] == 2

    def test_neighbors(self, toy_graph):
        neigh = set(toy_graph.neighbors(0).tolist())
        assert neigh == {4, 5, 7}


class TestSubgraph:
    def test_drop_edges(self, toy_graph):
        relation = ("movie", "stars", "actor")
        mask = np.array([True, False, False, False, False])
        sub = toy_graph.subgraph_without_edges(relation, mask)
        assert sub.num_edges(relation) == 4
        assert toy_graph.num_edges(relation) == 5  # original untouched

    def test_drop_mask_length_validation(self, toy_graph):
        with pytest.raises(ValueError):
            toy_graph.subgraph_without_edges(("movie", "stars", "actor"),
                                             np.array([True]))

    def test_cache_isolation(self, toy_graph):
        adj_before = toy_graph.adjacency()
        sub = toy_graph.subgraph_without_edges(
            ("movie", "stars", "actor"), np.array([True, False, False, False,
                                                   False]))
        assert sub.adjacency().nnz < adj_before.nnz
