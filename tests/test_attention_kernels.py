"""Byte-for-byte parity of the attention kernels of SimpleHGN, GAT and HAN.

The block-diagonal ``weighted_spmm``, its chunked value gradient, the
``reduceat`` segment max, the per-type edge score and the one-node
``csr_attention`` replace slower formulations of the same sums.  Each
must reproduce the formulation it replaced bit for bit (the
``reference`` profile's figures depend on it), in float32 and float64.
GAT's and HAN's ``reference`` layers are pinned to their composite too.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.models import build_model
from repro.tensor import (
    AttentionLayout,
    SparseTensor,
    Tensor,
    csr_attention,
    dropout,
    fused_kernels,
    gather_rows,
    get_rng,
    gradcheck,
    leaky_relu,
    manual_seed,
    scatter_add,
    segment_softmax,
    set_default_dtype,
    weighted_spmm,
)
from repro.tensor.functional import segment_max_data
from repro.tensor.sparse import VALUE_GRAD_CHUNK, edge_dots

DTYPES = [np.float32, np.float64]


def _segment_pattern(segments: np.ndarray, num_segments: int):
    """Stable by-segment order and CSR offsets, as SimpleHGN builds them."""
    order = np.argsort(segments, kind="stable")
    indptr = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(np.bincount(segments, minlength=num_segments), out=indptr[1:])
    return order, indptr


def _pattern(rng) -> SparseTensor:
    """12×9 pattern with duplicate entries and empty rows (0, 5, 11)."""
    rows = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 10], size=60)
    cols = rng.integers(0, 9, size=60)
    rows[:6], cols[:6] = 3, 4  # one (row, col) entry stored six times
    return SparseTensor.from_edges(rows, cols, shape=(12, 9))


class TestBlockWeightedSpmm:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", [None, 1, 4])
    def test_matches_per_head_csr_products(self, dtype, heads):
        rng = np.random.default_rng(0)
        pattern = _pattern(rng)
        assert (np.diff(pattern.indptr) == 0).sum() == 3
        shape_v = (pattern.nnz,) if heads is None else (pattern.nnz, heads)
        shape_x = (9, 5) if heads is None else (9, heads, 5)
        with set_default_dtype(dtype):
            values = Tensor(rng.normal(size=shape_v), requires_grad=True)
            x = Tensor(rng.normal(size=shape_x), requires_grad=True)
            grad = rng.normal(size=(12,) + shape_x[1:]).astype(dtype)
            out = weighted_spmm(pattern, values, x)
            out.backward(grad)

        v3 = values.data.reshape(pattern.nnz, -1)
        x3 = x.data.reshape(9, v3.shape[1], 5)
        g3 = grad.reshape(12, v3.shape[1], 5)
        ref_out = np.empty_like(g3)
        ref_gx = np.empty_like(x3)
        for h in range(v3.shape[1]):
            mat = sp.csr_matrix((v3[:, h], pattern.indices, pattern.indptr),
                                shape=pattern.shape)
            ref_out[:, h, :] = mat @ x3[:, h, :]
            ref_gx[:, h, :] = mat.T @ g3[:, h, :]
        ref_gv = np.einsum("ehd,ehd->eh", g3[pattern.row_of_nnz],
                           x3[pattern.indices])
        assert out.data.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert x.grad.tobytes() == ref_gx.tobytes()
        assert values.grad.tobytes() == ref_gv.tobytes()

    def test_block_structure_is_cached_and_shared_by_value_copies(self):
        pattern = _pattern(np.random.default_rng(1))
        block = pattern.head_block(4)
        assert pattern.head_block(4) is block
        copy = pattern.with_values(np.zeros(pattern.nnz))
        assert copy.head_block(4) is block


class TestChunkedValueGradient:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("nnz", [VALUE_GRAD_CHUNK - 1, VALUE_GRAD_CHUNK,
                                     VALUE_GRAD_CHUNK + 1])
    def test_equals_one_shot_einsum(self, dtype, nnz):
        rng = np.random.default_rng(nnz)
        grad = rng.normal(size=(70, 4, 16)).astype(dtype)
        x = rng.normal(size=(50, 4, 16)).astype(dtype)
        rows = np.sort(rng.integers(0, 70, size=nnz))
        cols = rng.integers(0, 50, size=nnz)
        one_shot = np.einsum("ehd,ehd->eh", grad[rows], x[cols])
        assert edge_dots(grad, x, rows, cols).tobytes() == one_shot.tobytes()
        flat = np.einsum("ed,ed->e", grad[rows, 0], x[cols, 0])
        assert (edge_dots(grad[:, 0], x[:, 0], rows, cols).tobytes()
                == flat.tobytes())

    def test_empty_pattern(self):
        out = edge_dots(np.ones((3, 2, 4)), np.ones((3, 2, 4)),
                        np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 2)


class TestSortedSegmentMax:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_equals_maximum_at(self, dtype):
        rng = np.random.default_rng(3)
        num_segments = 40
        # segments 0, 7 and the last three never occur: empty → -inf
        segments = rng.choice(np.r_[1:7, 8:37], size=300)
        x = rng.normal(size=(300, 4)).astype(dtype)
        x[::5] = 0.0
        x[2::7] = -0.0
        x[segments == 9] = -0.0  # a segment holding only -0.0
        x[segments == 11] = np.where(rng.random((int((segments == 11).sum()),
                                                 4)) < 0.5, 0.0, -0.0)
        reference = segment_max_data(x, segments, num_segments)
        sorted_by = _segment_pattern(segments, num_segments)
        fast = segment_max_data(x, segments, num_segments, sorted_by)
        assert fast.dtype == dtype
        assert fast.tobytes() == reference.tobytes()
        assert np.isneginf(fast[[0, 7, 37, 38, 39]]).all()
        assert np.signbit(fast[9]).all()

    def test_all_segments_empty(self):
        x = np.zeros((0, 2))
        segments = np.zeros(0, dtype=np.int64)
        out = segment_max_data(x, segments, 3, _segment_pattern(segments, 3))
        assert np.isneginf(out).all() and out.shape == (3, 2)


class TestPerTypeEdgeScore:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_equals_per_edge_gather(self, imdb_tiny, dtype):
        with set_default_dtype(dtype):
            model = build_model("simple_hgn", imdb_tiny, hidden_dim=32,
                                out_dim=32)
            layer = model.layers[0]
            with fused_kernels():
                per_type = gather_rows(layer.type_scores(), layer.etype)
                per_edge = layer.edge_scores(layer.etype)
        assert per_type.data.dtype == dtype
        assert per_type.shape == (layer.etype.shape[0], layer.num_heads)
        assert per_type.data.tobytes() == per_edge.data.tobytes()

    def test_gradcheck_float64(self, imdb_tiny):
        model = build_model("simple_hgn", imdb_tiny, hidden_dim=8, out_dim=8,
                            num_heads=2, edge_dim=3)
        layer = model.layers[0]
        etype = layer.etype[:: max(1, layer.etype.shape[0] // 50)]
        with fused_kernels():
            assert gradcheck(
                lambda table, vec: gather_rows(layer.type_scores(), etype),
                [layer.edge_table, layer.attn_edge])


def _composite_attention(score_src, score_dst, type_score, layout, dst,
                         slope, alpha_prev, beta, p, training):
    """The chain ``csr_attention`` replaces, in edge order, then gathered
    into pattern order: SimpleHGN's layer before the fused node or, with
    ``type_score=None``, GAT's former fused chain (no edge-type term and
    an unsorted segment softmax)."""
    n = score_dst.shape[0]
    logits = gather_rows(score_src, layout.src) + gather_rows(score_dst, dst)
    sorted_by = None
    if type_score is not None:
        logits = logits + gather_rows(type_score, layout.etype)
        sorted_by = (layout.order, layout.pattern.indptr)
    alpha = segment_softmax(leaky_relu(logits, slope), dst, n,
                            sorted_by=sorted_by)
    if alpha_prev is not None and beta > 0:
        alpha = alpha * (1.0 - beta) + alpha_prev * beta
    return gather_rows(dropout(alpha, p, training=training), layout.order)


class TestCsrAttention:
    """``csr_attention`` against the composite chain, byte for byte."""

    @staticmethod
    def _run(dtype, heads, beta, training, with_prev=True, seed=0,
             typed=True):
        rng = np.random.default_rng(seed)
        n, num_types, num_edges = 30, 3, 200
        # destinations skip 0, 7 and 29: empty segments, incl. the last
        dst = rng.choice(np.setdiff1d(np.arange(n), [0, 7, 29]),
                         size=num_edges)
        dst[:40] = 11  # one long segment
        src = rng.integers(0, n, size=num_edges)
        etype = rng.integers(0, num_types, size=num_edges)
        layout = AttentionLayout.build(src, dst, etype, n)
        inputs = {"s_src": rng.normal(size=(n, heads)) * 3,
                  "s_dst": rng.normal(size=(n, heads)) * 3,
                  "types": rng.normal(size=(num_types, heads)),
                  "prev": rng.uniform(size=(num_edges, heads))}
        if not typed:
            del inputs["types"]
        weight = rng.normal(size=(num_edges, heads))  # pattern order
        results = []
        with set_default_dtype(dtype), fused_kernels():
            for fused in (False, True):
                leaves = {k: Tensor(v, requires_grad=True)
                          for k, v in inputs.items()}
                prev = leaves["prev"] if with_prev else None
                manual_seed(seed)
                if fused:
                    if prev is not None:  # the node reads pattern order
                        prev = Tensor(inputs["prev"][layout.order],
                                      requires_grad=True)
                        leaves["prev"] = prev
                    alpha = csr_attention(
                        leaves["s_src"], leaves["s_dst"], leaves.get("types"),
                        layout, 0.05, alpha_prev=prev, beta=beta,
                        dropout_p=0.3, training=training)
                else:
                    alpha = _composite_attention(
                        leaves["s_src"], leaves["s_dst"], leaves.get("types"),
                        layout, dst, 0.05, prev, beta, 0.3, training)
                (alpha * Tensor(weight)).sum().backward()
                grads = {k: t.grad for k, t in leaves.items()
                         if t.grad is not None}
                if fused and "prev" in grads:  # back to edge order
                    edge_order = np.empty_like(grads["prev"])
                    edge_order[layout.order] = grads["prev"]
                    grads["prev"] = edge_order
                # the next draw shows both left the generator alike
                results.append((alpha.data, grads, get_rng().random()))
        return results

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", [1, 4, 9])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composite(self, dtype, heads, beta, training):
        (want, want_grads, want_next), (got, got_grads, got_next) = \
            self._run(dtype, heads, beta, training)
        assert got_next == want_next
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        expected = {"s_src", "s_dst", "types"} | ({"prev"} if beta else set())
        assert set(got_grads) == set(want_grads) == expected
        for name in expected:
            assert got_grads[name].dtype == want_grads[name].dtype, name
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), \
                name

    def test_without_alpha_prev(self):
        (want, want_grads, _), (got, got_grads, _) = self._run(
            np.float32, 4, 0.05, True, with_prev=False)
        assert got.tobytes() == want.tobytes()
        assert set(got_grads) == set(want_grads) == {"s_src", "s_dst",
                                                     "types"}
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("training", [False, True])
    def test_without_type_score_matches_gat_chain(self, dtype, heads,
                                                  training):
        (want, want_grads, want_next), (got, got_grads, got_next) = \
            self._run(dtype, heads, 0.0, training, with_prev=False,
                      typed=False)
        assert got_next == want_next
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert set(got_grads) == set(want_grads) == {"s_src", "s_dst"}
        for name in want_grads:
            assert got_grads[name].dtype == want_grads[name].dtype, name
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), \
                name

    def test_dropout_only_in_training(self):
        """From the same generator state, training drops entries and
        draws; eval drops none and draws nothing."""
        _, (train, _, train_next) = self._run(np.float32, 4, 0.05, True)
        _, (evaluated, _, eval_next) = self._run(np.float32, 4, 0.05, False)
        assert (train == 0).any() and not (evaluated == 0).any()
        manual_seed(0)
        assert eval_next == get_rng().random() != train_next

    def test_simple_hgn_alpha_is_in_pattern_order(self, imdb_tiny):
        model = build_model("simple_hgn", imdb_tiny, hidden_dim=16,
                            out_dim=16)
        model.eval()
        layer = model.layers[0]
        h = Tensor(np.random.default_rng(0).normal(size=(
            imdb_tiny.graph.num_nodes, 16)))
        _, edge_order = layer(h)
        with fused_kernels():
            _, pattern_order = layer(h)
        np.testing.assert_allclose(pattern_order.data,
                                   edge_order.data[layer._layout.order],
                                   atol=1e-12)


def _gat_composite(layer, h):
    """A GAT layer under ``reference``, written out: the attention in edge
    order, then gather × α → scatter_add (gradients sum in edge order)."""
    heads, head_dim = layer.num_heads, layer.head_dim
    src, dst, n = layer.src, layer.dst, layer.num_nodes
    projected = (h @ layer.proj.weight).reshape(n, heads, head_dim)
    logits = leaky_relu(
        gather_rows((projected * layer.attn_src).sum(axis=-1), src)
        + gather_rows((projected * layer.attn_dst).sum(axis=-1), dst),
        layer.negative_slope)
    alpha = dropout(segment_softmax(logits, dst, n), layer.attn_dropout.p,
                    training=layer.training)
    messages = gather_rows(projected, src) * alpha.reshape(-1, heads, 1)
    return scatter_add(messages, dst, n).reshape(n, heads * head_dim), alpha


class TestGATReferenceLayer:
    """Under ``reference`` a GAT layer (GAT's and HAN's) is its composite,
    bit for bit: output, α, and the input and parameter gradients."""

    @pytest.mark.parametrize("name", ["gat", "han"])
    @pytest.mark.parametrize("training", [False, True])
    def test_equals_the_composite(self, imdb_tiny, name, training):
        model = build_model(name, imdb_tiny, hidden_dim=16, out_dim=16)
        layer = (model.layers if name == "gat" else model.path_layers[0])[0]
        layer.train(training)
        rng = np.random.default_rng(0)
        h_data = rng.normal(size=(layer.num_nodes, 16))
        weight = rng.normal(size=(layer.num_nodes, 16))
        results = []
        for run in (layer, lambda h: _gat_composite(layer, h)):
            for param in layer.parameters():
                param.zero_grad()
            h = Tensor(h_data.copy(), requires_grad=True)
            manual_seed(1)
            with fused_kernels(False):
                out, alpha = run(h)
                (out * Tensor(weight)).sum().backward()
            results.append([out.data, alpha.data, h.grad]
                           + [param.grad.copy()
                              for param in layer.parameters()])
        got, want = results
        assert len(got) == len(want) == 6  # proj, attn_src, attn_dst
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype == np.float64
            assert got_array.tobytes() == want_array.tobytes()
