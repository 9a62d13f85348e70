"""The CSR propagation paths against dense references written here.

The CSR propagation path must be a pure optimization.  Each completion
op's propagated block and GCN's encoder are checked against the same
operator built densely in the test (``.to_dense()``), and SimpleHGN
against a gather/scatter reference, on seeded small graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import GCNCompletion, MeanCompletion, PPNPCompletion
from repro.graph import LRUCache
from repro.models import build_model
from repro.tensor import (
    Tensor,
    fused_kernels,
    gather_rows,
    leaky_relu,
    scatter_add,
    segment_softmax,
)
from repro.training import set_seed


def _dense_propagated(op_cls, dataset):
    """``P X`` with the op's propagation operator ``P`` built densely."""
    graph = dataset.graph
    raw = dataset.feature_matrix_zero_filled()
    unattributed = np.ones(graph.num_nodes, dtype=bool)
    unattributed[dataset.attributed_global_ids] = False
    if op_cls is MeanCompletion:
        adj = graph.adjacency_sparse(symmetric=True).to_dense()
        adj[:, unattributed] = 0.0
        counts = adj.sum(axis=1, keepdims=True)
        return (adj / np.where(counts > 0, counts, 1.0)) @ raw
    if op_cls is GCNCompletion:
        adj = graph.normalized_adjacency(mode="sym").to_dense()
        adj[:, unattributed] = 0.0
        return adj @ raw
    a_hat = graph.normalized_adjacency(mode="sym", self_loops=True).to_dense()
    z = raw.copy()
    for _ in range(10):  # PPNPCompletion's default alpha and iterations
        z = 0.9 * (a_hat @ z) + 0.1 * raw
    return z


@pytest.mark.parametrize("op_cls", [MeanCompletion, GCNCompletion,
                                    PPNPCompletion])
def test_completion_sparse_matches_dense(op_cls, imdb_tiny):
    op = op_cls(imdb_tiny, hidden_dim=16)
    expected = _dense_propagated(op_cls, imdb_tiny)[op.missing_ids]
    np.testing.assert_allclose(op._base, expected, atol=1e-6)
    np.testing.assert_allclose(op().data, expected @ op.weight.data,
                               atol=1e-6)


def test_gcn_model_sparse_matches_dense(imdb_tiny):
    n = imdb_tiny.graph.num_nodes
    h0 = np.random.default_rng(0).normal(size=(n, 32))
    set_seed(0)
    model = build_model("gcn", imdb_tiny, hidden_dim=32, out_dim=32)
    model.eval()
    adj = imdb_tiny.graph.normalized_adjacency(mode="sym",
                                               self_loops=True).to_dense()
    expected = h0
    for index, layer in enumerate(model.layers):
        expected = adj @ layer(Tensor(expected)).data
        if index < model.num_layers - 1:
            expected = np.maximum(expected, 0.0)
    np.testing.assert_allclose(model.encode(Tensor(h0)).data, expected,
                               atol=1e-6)


def _scatter_layer(layer, h, alpha_prev):
    """A SimpleHGN layer as gather → scale → ``scatter_add``, from its
    parameters: per-edge scores, no CSR pattern, no fused kernels."""
    n, heads = layer.num_nodes, layer.num_heads
    projected = layer.proj(h).reshape(n, heads, layer.head_dim)
    edge_embed = gather_rows(layer.edge_table, layer.etype).reshape(
        -1, heads, layer.edge_dim)
    logits = leaky_relu(
        gather_rows((projected * layer.attn_src).sum(axis=-1), layer.src)
        + gather_rows((projected * layer.attn_dst).sum(axis=-1), layer.dst)
        + (edge_embed * layer.attn_edge).sum(axis=-1),
        layer.negative_slope)
    alpha = segment_softmax(logits, layer.dst, n)
    alpha = alpha * (1.0 - layer.beta) + alpha_prev * layer.beta
    messages = gather_rows(projected, layer.src) * alpha.reshape(-1, heads, 1)
    out = scatter_add(messages, layer.dst, n).reshape(n, -1)
    return out + layer.residual_proj(h), alpha


def test_simple_hgn_layer_matches_scatter_reference(imdb_tiny):
    n = imdb_tiny.graph.num_nodes
    rng = np.random.default_rng(1)
    set_seed(0)
    model = build_model("simple_hgn", imdb_tiny, hidden_dim=32, out_dim=32)
    model.eval()
    layer = model.layers[1]
    alpha_prev = Tensor(model.layers[0](Tensor(rng.normal(size=(n, 32))))[1]
                        .data)
    h0 = rng.normal(size=(n, 32))
    out_weight = rng.normal(size=(n, 32))
    alpha_weight = rng.normal(size=alpha_prev.shape)

    def run(forward, order=slice(None)):
        """``order`` puts α and ``alpha_prev`` in the layer's order."""
        layer.zero_grad()
        h = Tensor(h0.copy(), requires_grad=True)
        out, alpha = forward(h, Tensor(alpha_prev.data[order]))
        ((out * out_weight).sum()
         + (alpha * alpha_weight[order]).sum()).backward()
        grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
        return out.data, alpha.data, h.grad, grads

    expected = run(lambda h, prev: _scatter_layer(layer, h, prev))
    for fused in (False, True):
        # under the fused kernels α runs in the attention pattern's order
        order = layer._layout.order if fused else slice(None)
        with fused_kernels(fused):
            got = run(lambda h, prev: layer(h, prev), order)
        want = (expected[0], expected[1][order], expected[2])
        for name, a, b in zip(("out", "alpha", "h.grad"), got, want):
            np.testing.assert_allclose(a, b, atol=1e-6,
                                       err_msg=f"{name}, fused={fused}")
        assert set(got[3]) == set(expected[3])
        for name in expected[3]:
            np.testing.assert_allclose(got[3][name], expected[3][name],
                                       atol=1e-6,
                                       err_msg=f"{name}, fused={fused}")


class TestNormalizedAdjacencyCache:
    def test_repeated_requests_hit_cache(self, imdb_tiny):
        graph = imdb_tiny.graph
        first = graph.normalized_adjacency(mode="sym", self_loops=True)
        second = graph.normalized_adjacency(mode="sym", self_loops=True)
        assert first is second

    def test_modes_are_distinct_entries(self, imdb_tiny):
        graph = imdb_tiny.graph
        sym = graph.normalized_adjacency(mode="sym")
        row = graph.normalized_adjacency(mode="row")
        assert sym is not row
        row_sums = row.row_sums()
        assert np.all((np.abs(row_sums - 1.0) < 1e-12) | (row_sums == 0.0))

    def test_unknown_mode_rejected(self, imdb_tiny):
        with pytest.raises(ValueError):
            imdb_tiny.graph.normalized_adjacency(mode="bogus")

    def test_mutation_invalidates(self, toy_graph):
        before = toy_graph.normalized_adjacency(mode="sym")
        pairs = toy_graph.edges_local(toy_graph.relations[0])
        toy_graph.add_relation(
            (toy_graph.relations[0][0], "extra", toy_graph.relations[0][2]),
            pairs[:, :1])
        after = toy_graph.normalized_adjacency(mode="sym")
        assert before is not after


class TestBiadjacencyCacheSafety:
    def test_compose_biadjacency_does_not_mutate_cache(self):
        from repro.graph import HeteroGraph
        from repro.graph.metapath import compose_biadjacency

        # duplicate (0, 0) edge → cached biadjacency entry of 2.0
        edges = {("user", "likes", "item"):
                 np.array([[0, 0, 1], [0, 0, 1]])}
        graph = HeteroGraph({"user": 2, "item": 2}, edges)
        relation = graph.relations[0]
        before = graph.biadjacency(relation).toarray().copy()
        compose_biadjacency(graph, ("user", "item"), binarize=True)
        np.testing.assert_array_equal(graph.biadjacency(relation).toarray(),
                                      before)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 1)  # refresh "a"
        cache.get("c", lambda: 3)  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_hit_and_miss_counters(self):
        cache = LRUCache(maxsize=4)
        cache.get("k", lambda: 1)
        cache.get("k", lambda: 1)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)
