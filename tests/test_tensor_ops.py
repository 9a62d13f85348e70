"""Gradient checks and semantics for every autograd primitive."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import (
    SparseTensor,
    Tensor,
    absolute,
    clip,
    concat,
    elu,
    exp,
    gather_rows,
    gradcheck,
    leaky_relu,
    log,
    maximum,
    no_grad,
    relu,
    scatter_add,
    sigmoid,
    spmm,
    set_default_dtype,
    sqrt,
    stack,
    tanh,
    weighted_spmm,
    where,
)

RNG = np.random.default_rng(7)


def _t(shape, positive=False, lo=0.2):
    data = RNG.normal(size=shape)
    if positive:
        data = np.abs(data) + lo
    return Tensor(data, requires_grad=True)


class TestArithmetic:
    def test_add_broadcast(self):
        a, b = _t((3, 4)), _t((4,))
        gradcheck(lambda x, y: x + y, [a, b])

    def test_sub_broadcast_scalar_like(self):
        a, b = _t((2, 3)), _t((1, 3))
        gradcheck(lambda x, y: x - y, [a, b])

    def test_mul(self):
        a, b = _t((5,)), _t((5,))
        gradcheck(lambda x, y: x * y, [a, b])

    def test_div(self):
        a, b = _t((3, 2)), _t((3, 2), positive=True)
        gradcheck(lambda x, y: x / y, [a, b])

    def test_pow(self):
        a = _t((4,), positive=True)
        gradcheck(lambda x: x ** 3, [a])

    def test_neg(self):
        a = _t((3,))
        gradcheck(lambda x: -x, [a])

    def test_radd_rsub_rmul_rdiv(self):
        a = _t((3,), positive=True)
        gradcheck(lambda x: 2.0 + x, [a])
        gradcheck(lambda x: 2.0 - x, [a])
        gradcheck(lambda x: 2.0 * x, [a])
        gradcheck(lambda x: 2.0 / x, [a])

    def test_maximum_gradient_goes_to_larger(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])


class TestUnary:
    @pytest.mark.parametrize("fn", [exp, tanh, sigmoid, relu, elu, absolute])
    def test_gradients(self, fn):
        a = _t((4, 3))
        a.data += np.sign(a.data) * 0.05  # keep away from relu/abs kinks
        gradcheck(lambda x: fn(x), [a])

    def test_log_sqrt_positive_domain(self):
        a = _t((5,), positive=True)
        gradcheck(lambda x: log(x), [a])
        gradcheck(lambda x: sqrt(x), [a])

    def test_leaky_relu_slope(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        out = leaky_relu(a, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_clip_gradient_masked_outside(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        clip(a, 0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


#: float edge cases for the activation byte-equality checks
ACTIVATION_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0,
                       -1.0, 1e30, -1e30, 1e-40, -1e-40, 1e-45, -1e-45,
                       5e-324, -5e-324, -1e-300]


def _where_leaky_relu(x, slope, grad):
    positive = x > 0
    return (np.where(positive, x, slope * x),
            grad * np.where(positive, 1.0, slope))


def _where_elu(x, alpha, grad):
    positive = x > 0
    exp_part = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
    return (np.where(positive, x, exp_part),
            grad * np.where(positive, 1.0, exp_part + alpha))


class TestBranchFreeActivations:
    """``leaky_relu`` and ``elu`` give the bytes of their ``np.where``
    forms, forward and gradient, in and outside the branch-free range."""

    @staticmethod
    def _check(fn, where_form, coefficient, dtype):
        rng = np.random.default_rng(0)
        x = np.concatenate([np.array(ACTIVATION_SPECIALS),
                            rng.normal(size=500),
                            rng.normal(size=100) * 1e-42]).astype(dtype)
        grad = rng.normal(size=x.shape).astype(dtype)
        with np.errstate(all="ignore"), set_default_dtype(dtype):
            a = Tensor(x, requires_grad=True)
            out = fn(a, coefficient)
            out.backward(grad)
            want_out, want_grad = where_form(x, coefficient, grad)
        # a leaf's first gradient is stored as ``grad + 0.0`` in its dtype
        want_grad = np.add(want_grad, 0.0, out=np.empty_like(x))
        assert out.data.dtype == want_out.dtype == dtype
        assert out.data.tobytes() == want_out.tobytes()
        assert a.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [1e-30, 0.01, 0.05, 0.2, 1.0,
                                       0.0, 1.5, -0.1])
    def test_leaky_relu(self, dtype, slope):
        self._check(leaky_relu, _where_leaky_relu, slope, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [2.0 ** -64, 0.5, 1.0, 0.0, 2.0])
    def test_elu(self, dtype, alpha):
        self._check(elu, _where_elu, alpha, dtype)


class TestMatmul:
    def test_2d(self):
        a, b = _t((3, 4)), _t((4, 2))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_matrix_vector(self):
        a, b = _t((3, 4)), _t((4,))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_matrix(self):
        a, b = _t((3,)), _t((3, 2))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched(self):
        a, b = _t((2, 3, 4)), _t((2, 4, 5))
        gradcheck(lambda x, y: x @ y, [a, b])

    def test_broadcast_batch(self):
        a, b = _t((2, 3, 4)), _t((4, 5))
        gradcheck(lambda x, y: x @ y, [a, b])


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False),
                                               (1, True), ((0, 1), False)])
    def test_sum(self, axis, keepdims):
        a = _t((3, 4))
        gradcheck(lambda x: x.sum(axis=axis, keepdims=keepdims), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean(self, axis):
        a = _t((3, 4))
        gradcheck(lambda x: x.mean(axis=axis), [a])

    def test_max_axis(self):
        a = _t((4, 5))
        gradcheck(lambda x: x.max(axis=1), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])

    def test_min(self):
        a = _t((3, 4))
        gradcheck(lambda x: x.min(axis=0), [a])


class TestShaping:
    def test_reshape(self):
        a = _t((3, 4))
        gradcheck(lambda x: x.reshape(2, 6), [a])

    def test_transpose_default_and_axes(self):
        a = _t((2, 3, 4))
        gradcheck(lambda x: x.transpose(), [a])
        gradcheck(lambda x: x.transpose((1, 2, 0)), [a])

    def test_getitem_slice(self):
        a = _t((5, 3))
        gradcheck(lambda x: x[1:4], [a])

    def test_getitem_integer_array_with_duplicates(self):
        a = _t((4, 2))
        idx = np.array([0, 0, 3, 1])
        gradcheck(lambda x: gather_rows(x, idx), [a])

    def test_concat(self):
        a, b = _t((2, 3)), _t((4, 3))
        gradcheck(lambda x, y: concat([x, y], axis=0), [a, b])

    def test_stack(self):
        a, b = _t((2, 3)), _t((2, 3))
        gradcheck(lambda x, y: stack([x, y], axis=1), [a, b])

    def test_squeeze(self):
        a = _t((3, 1, 4))
        assert a.squeeze(1).shape == (3, 4)
        gradcheck(lambda x: x.squeeze(1), [a])
        with pytest.raises(ValueError):
            a.squeeze(0)

    def test_where(self):
        a, b = _t((4,)), _t((4,))
        cond = np.array([True, False, True, False])
        gradcheck(lambda x, y: where(cond, x, y), [a, b])


class TestScatterGather:
    def test_scatter_add_matches_manual(self):
        src = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        idx = np.array([0, 1, 0, 2])
        out = scatter_add(src, idx, 3)
        np.testing.assert_allclose(out.data, [[4, 6], [2, 3], [6, 7]])
        gradcheck(lambda x: scatter_add(x, idx, 3), [src])

    def test_scatter_into_empty_segment(self):
        src = _t((2, 3))
        out = scatter_add(src, np.array([0, 2]), 4)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[3], 0.0)


class TestSparse:
    def test_spmm_gradcheck(self):
        mat = sp.random(6, 5, density=0.4, random_state=3, format="csr")
        x = _t((5, 3))
        gradcheck(lambda t: spmm(mat, t), [x])

    def test_spmm_matches_dense(self):
        mat = sp.random(4, 4, density=0.5, random_state=1, format="csr")
        x = _t((4, 2))
        np.testing.assert_allclose(spmm(mat, x).data, mat.toarray() @ x.data)


class TestSparseTensor:
    def _random(self, rows=6, cols=5, density=0.4, seed=3):
        return SparseTensor.from_scipy(
            sp.random(rows, cols, density=density, random_state=seed,
                      format="csr"))

    def test_round_trips(self):
        mat = self._random()
        np.testing.assert_allclose(mat.to_scipy().toarray(), mat.to_dense())
        np.testing.assert_allclose(mat.T.to_dense(), mat.to_dense().T)
        assert mat.T.T is mat  # transpose is cached both ways

    def test_spmm_gradcheck_matches_dense_path(self):
        mat = self._random()
        x = _t((5, 3))
        gradcheck(lambda t: spmm(mat, t), [x])
        # identical values AND identical gradients vs the dense reference
        dense = Tensor(mat.to_dense())
        x_sparse = _t((5, 3))
        x_dense = Tensor(x_sparse.data.copy(), requires_grad=True)
        out_sparse = spmm(mat, x_sparse)
        out_dense = dense @ x_dense
        np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=1e-12)
        out_sparse.sum().backward()
        out_dense.sum().backward()
        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=1e-12)

    def test_normalizations(self):
        mat = self._random(rows=7, cols=7, density=0.3, seed=5)
        row = mat.row_normalize().row_sums()
        assert np.all((np.abs(row - 1.0) < 1e-12) | (row == 0.0))
        dense = mat.to_dense()
        deg_r = dense.sum(axis=1)
        deg_c = dense.sum(axis=0)
        inv_r = np.zeros_like(deg_r)
        inv_r[deg_r > 0] = deg_r[deg_r > 0] ** -0.5
        inv_c = np.zeros_like(deg_c)
        inv_c[deg_c > 0] = deg_c[deg_c > 0] ** -0.5
        np.testing.assert_allclose(mat.sym_normalize().to_dense(),
                                   inv_r[:, None] * dense * inv_c[None, :])

    def test_self_loops_and_restrict_columns(self):
        mat = self._random(rows=5, cols=5, density=0.3, seed=9)
        looped = mat.add_self_loops()
        np.testing.assert_allclose(np.diag(looped.to_dense()), 1.0)
        keep = np.array([True, False, True, False, True])
        expected = mat.to_dense().copy()
        expected[:, ~keep] = 0.0
        np.testing.assert_allclose(mat.restrict_columns(keep).to_dense(),
                                   expected)

    def test_weighted_spmm_gradcheck_both_operands(self):
        # duplicate (row, col) entries must sum, like multigraph edges
        rows = np.array([0, 0, 1, 2, 2, 2])
        cols = np.array([1, 1, 0, 2, 1, 2])
        pattern = SparseTensor.from_edges(rows, cols, (3, 3))
        values = _t((6,))
        x = _t((3, 4))
        gradcheck(lambda v, t: weighted_spmm(pattern, v, t), [values, x])
        out = weighted_spmm(pattern, values, x)
        expected = np.zeros((3, 4))
        for r, c, v in zip(rows, cols, values.data):
            expected[r] += v * x.data[c]
        np.testing.assert_allclose(out.data, expected)

    def test_weighted_spmm_rejects_mismatched_shapes(self):
        pattern = SparseTensor.from_edges(np.array([0, 1]), np.array([1, 2]),
                                          (2, 3))
        with pytest.raises(ValueError):
            weighted_spmm(pattern, _t((2,)), _t((4, 5)))  # 4 rows != 3 cols
        with pytest.raises(ValueError):
            weighted_spmm(pattern, _t((5,)), _t((3, 5)))  # 5 values != 2 nnz

    def test_weighted_spmm_multi_head(self):
        rows = np.array([0, 1, 1, 2])
        cols = np.array([2, 0, 2, 1])
        pattern = SparseTensor.from_edges(rows, cols, (3, 3))
        values = _t((4, 2))
        x = _t((3, 2, 3))
        gradcheck(lambda v, t: weighted_spmm(pattern, v, t), [values, x])

    def test_weighted_spmm_equals_scatter_formulation(self):
        rng = np.random.default_rng(11)
        num_nodes, num_edges = 8, 30
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        order = np.argsort(dst, kind="stable")
        pattern = SparseTensor.from_edges(dst[order], src[order],
                                          (num_nodes, num_nodes))
        values = Tensor(rng.normal(size=num_edges), requires_grad=True)
        x = Tensor(rng.normal(size=(num_nodes, 5)), requires_grad=True)
        sparse_out = weighted_spmm(pattern, gather_rows(values, order), x)
        scatter_out = scatter_add(
            gather_rows(x, src) * values.reshape(-1, 1), dst, num_nodes)
        np.testing.assert_allclose(sparse_out.data, scatter_out.data,
                                   atol=1e-12)


class TestAutogradMechanics:
    def test_no_grad_blocks_graph(self):
        a = _t((3,))
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_backward_requires_scalar_or_grad(self):
        a = _t((3,))
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = Tensor([1.0, 2.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_across_backwards(self):
        a = _t((2,))
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_diamond_graph_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * 2.0
        c = a * 4.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

