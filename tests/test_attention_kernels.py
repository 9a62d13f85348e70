"""Byte-for-byte parity of SimpleHGN's attention kernels.

The block-diagonal ``weighted_spmm``, its chunked value gradient, the
``reduceat`` segment max and the per-type edge score replace slower
formulations of the same sums.  Each must reproduce the formulation it
replaced bit for bit (the ``reference`` profile's figures depend on it),
in float32 and float64.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.models import build_model
from repro.tensor import (
    SparseTensor,
    Tensor,
    fused_kernels,
    gather_rows,
    gradcheck,
    head_dot,
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
                per_type = layer.edge_scores(layer.etype)
                edge_embed = gather_rows(layer.edge_table, layer.etype)
                per_edge = head_dot(
                    edge_embed.reshape(-1, layer.num_heads, layer.edge_dim),
                    layer.attn_edge)
        assert per_type.data.dtype == dtype
        assert per_type.shape == (layer.etype.shape[0], layer.num_heads)
        assert per_type.data.tobytes() == per_edge.data.tobytes()

    def test_gradcheck_float64(self, imdb_tiny):
        model = build_model("simple_hgn", imdb_tiny, hidden_dim=8, out_dim=8,
                            num_heads=2, edge_dim=3)
        layer = model.layers[0]
        etype = layer.etype[:: max(1, layer.etype.shape[0] // 50)]
        with fused_kernels():
            assert gradcheck(lambda table, vec: layer.edge_scores(etype),
                             [layer.edge_table, layer.attn_edge])
