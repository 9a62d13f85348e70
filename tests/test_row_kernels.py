"""Byte-for-byte parity of the row kernels that assemble ``h0``.

``place_rows`` replaces the builder's scatter-and-sum chain, the fused
``l2_normalize`` replaces its five-node composite, row gathers go
through ``np.take`` instead of fancy indexing, a gather by increasing
unique rows backpropagates by assignment instead of a scatter, and
one-hot completion weights place each op's rows instead of mixing.
Each must reproduce the formulation it replaced bit for bit (the
``reference`` profile's figures depend on it), in float32 and float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import (
    FixedAssignmentFeatures,
    SearchSpace,
    WeightedCompletionFeatures,
)
from repro.graph.sampler import NeighborSampler
from repro.perf import runtime_profile
from repro.perf.profiler import profile
from repro.tensor import (
    AttentionLayout,
    Tensor,
    fused_kernels,
    gather_rows,
    l2_normalize,
    place_rows,
    scatter_add,
    set_default_dtype,
)

DTYPES = [np.float32, np.float64]


def _scatter_chain(blocks, indices, num_rows):
    """The composite ``place_rows`` replaced: a scatter per block, summed."""
    out = None
    for block, index in zip(blocks, indices):
        piece = scatter_add(block, index, num_rows)
        out = piece if out is None else out + piece
    return out


def _forward_backward(build, leaves, weight):
    """``build()``'s value and its leaves' gradients for ``sum(out * w)``."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    (out * Tensor(weight)).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


def _assert_same_bytes(got, want):
    (got_out, got_grads), (want_out, want_grads) = got, want
    assert got_out.dtype == want_out.dtype
    assert got_out.tobytes() == want_out.tobytes()
    assert len(got_grads) == len(want_grads)
    for got_grad, want_grad in zip(got_grads, want_grads):
        if want_grad is None:
            assert got_grad is None
            continue
        assert got_grad.dtype == want_grad.dtype
        assert got_grad.tobytes() == want_grad.tobytes()


class TestPlaceRows:
    """``place_rows`` against the scatter-and-sum chain."""

    @staticmethod
    def _blocks(dtype, width=5):
        rng = np.random.default_rng(0)
        num_rows = 23
        # three blocks partition all but rows 4 and 17, in shuffled order
        rows = rng.permutation(np.setdiff1d(np.arange(num_rows), [4, 17]))
        indices = [rows[:9], rows[9:10], rows[10:]]
        values = []
        for index in indices:
            block = rng.normal(size=(index.shape[0], width))
            block[0, :2] = -0.0  # a scatter into zeros makes these +0.0
            block[-1, -1] = 0.0
            values.append(block.astype(dtype))
        values[0][1, 0] = np.inf
        values[2][1, 1] = -np.inf
        return values, indices, num_rows

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("fused", [False, True])
    def test_matches_scatter_chain(self, dtype, fused):
        values, indices, num_rows = self._blocks(dtype)
        weight = np.random.default_rng(1).normal(size=(num_rows, 5))
        with set_default_dtype(dtype), fused_kernels(fused):
            leaves = [Tensor(v, requires_grad=True) for v in values]
            want = _forward_backward(
                lambda: _scatter_chain(leaves, indices, num_rows),
                leaves, weight)
            got = _forward_backward(
                lambda: place_rows(leaves, indices, num_rows),
                leaves, weight)
        _assert_same_bytes(got, want)
        # the chain turns the blocks' -0.0 into +0.0; so must the node
        assert not np.signbit(got[0][indices[0][0], :2]).any()
        assert not np.signbit(got[0][[4, 17]]).any()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_blocks_without_grad_get_none(self, dtype):
        values, indices, num_rows = self._blocks(dtype)
        weight = np.random.default_rng(1).normal(size=(num_rows, 5))
        with set_default_dtype(dtype):
            leaves = [Tensor(values[0], requires_grad=True),
                      Tensor(values[1]), Tensor(values[2], requires_grad=True)]
            want = _forward_backward(
                lambda: _scatter_chain(leaves, indices, num_rows),
                leaves, weight)
            got = _forward_backward(
                lambda: place_rows(leaves, indices, num_rows),
                leaves, weight)
        _assert_same_bytes(got, want)
        assert got[1][1] is None


class TestBuilderPlacement:
    """``FeatureBuilder.forward`` against the chain on the same blocks,
    on the full graph, a sampled view and the kept op outputs."""

    @staticmethod
    def _features(dataset):
        features = WeightedCompletionFeatures(dataset, 8)
        rng = np.random.default_rng(2)
        num_missing = dataset.missing_global_ids.shape[0]
        weights = rng.uniform(size=(num_missing, len(features.space)))
        features.set_weights(Tensor(weights, requires_grad=True))
        return features

    @staticmethod
    def _chain(features, view=None):
        """The pre-placement builder: projector pieces scattered and
        summed, then the completed rows scattered and added."""
        blocks = features.projector(view)
        if view is None:
            num_rows = features.dataset.graph.num_nodes
            completed = features.completed()
            ids = features.dataset.missing_global_ids
        else:
            num_rows = view.num_nodes
            ids, rows = features._view_missing(view)
            completed = features.completed_rows(rows)
        h0 = _scatter_chain([b for b, _ in blocks], [i for _, i in blocks],
                            num_rows)
        return h0 + scatter_add(completed, ids, num_rows)

    def _compare(self, features, view=None):
        leaves = features.parameters() + [features._weights]
        num_rows = (features.dataset.graph.num_nodes if view is None
                    else view.num_nodes)
        weight = np.random.default_rng(3).normal(size=(num_rows, 8))
        want = _forward_backward(lambda: self._chain(features, view),
                                 leaves, weight)
        got = _forward_backward(lambda: features(view), leaves, weight)
        assert all(grad is not None for grad in got[1])
        _assert_same_bytes(got, want)

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_full_graph(self, imdb_tiny, profile_name):
        with runtime_profile(profile_name):
            self._compare(self._features(imdb_tiny))

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_view(self, imdb_tiny, profile_name):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=3, num_layers=2,
                                  seed=0)
        seeds = imdb_tiny.graph.to_global(imdb_tiny.target_type,
                                          np.arange(6))
        view = sampler.sample(seeds)
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            assert features._view_missing(view)[1].size
            self._compare(features, view)

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_rigged_cache(self, imdb_tiny, profile_name, memo_lookups):
        ones = np.ones((imdb_tiny.graph.num_nodes, 8))
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            memo_lookups(miss=True)
            live = _forward_backward(lambda: self._chain(features),
                                     features.parameters(), ones)
            features.refresh_candidates()
            outcomes = memo_lookups()
            self._compare(features)
            rigged = _forward_backward(features, features.parameters(), ones)
        assert outcomes and all(outcomes)
        # the backward rigged on kept outputs is the live one
        _assert_same_bytes(rigged, live)

    def test_one_node_and_no_scatter(self, imdb_tiny):
        with runtime_profile("fast"):
            features = self._features(imdb_tiny)
            with profile() as prof:
                features().sum().backward()
        calls = {stat.name: stat.calls for stat in prof.report().stats}
        assert calls["place_rows"] == 1
        assert "scatter_add" not in calls


class TestFusedL2Normalize:
    """The one-node ``l2_normalize`` against its composite."""

    @staticmethod
    def _input(dtype):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 6))
        x[2] = 0.0           # a zero row: the norm is sqrt(eps)
        x[3, :3] = -0.0
        x[4] = -0.0
        x[5, 1] = 1e-30
        return x.astype(dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("axis", [-1, 0])
    @pytest.mark.parametrize("leaf", [True, False])
    def test_matches_composite(self, dtype, axis, leaf):
        data = self._input(dtype)
        weight = np.random.default_rng(5).normal(size=data.shape)
        weight[4] = -0.0
        results = []
        with set_default_dtype(dtype):
            for fused in (False, True):
                with fused_kernels(fused):
                    x = Tensor(data, requires_grad=True)

                    def build():
                        # a non-leaf input keeps its first gradient as is
                        inner = x if leaf else x * 1.0
                        return l2_normalize(inner, axis=axis)

                    results.append(_forward_backward(build, [x], weight))
        want, got = results
        _assert_same_bytes(got, want)
        assert np.signbit(got[0][4]).all()  # -0.0 rows stay -0.0

    def test_one_node_without_division(self):
        with set_default_dtype(np.float32), fused_kernels(True):
            x = Tensor(self._input(np.float32), requires_grad=True)
            with profile() as prof:
                l2_normalize(x).sum().backward()
        calls = {stat.name: stat.calls for stat in prof.report().stats}
        assert calls["l2_normalize"] == 1
        assert "div" not in calls and "div.backward" not in calls


class TestTakeGathers:
    """Row gathers by ``np.take`` against fancy indexing."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("index", [
        [3, 0, 3, 9], [-1, -10, 4], [], [5]])
    def test_gather_matches_fancy_index(self, dtype, index):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(10, 4)).astype(dtype)
        data[2, 1] = -0.0
        index = np.asarray(index, dtype=np.int64)
        weight = rng.normal(size=(index.shape[0], 4))
        with set_default_dtype(dtype):
            x = Tensor(data, requires_grad=True)
            out = gather_rows(x, index)
            (out * Tensor(weight)).sum().backward()
        assert out.data.dtype == dtype
        assert out.data.tobytes() == data[index].tobytes()
        expected = np.zeros_like(data)
        np.add.at(expected, index, weight.astype(dtype))
        assert x.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [[10], [-11], [0, 99]])
    def test_out_of_range_raises_index_error(self, index):
        x = Tensor(np.zeros((10, 4)), requires_grad=True)
        with pytest.raises(IndexError):
            gather_rows(x, np.asarray(index))
        with pytest.raises(IndexError):
            x[np.asarray(index)]

    def test_boolean_mask_selects_by_mask(self):
        data = np.arange(12.0).reshape(6, 2)
        mask = np.array([True, False, False, True, True, False])
        x = Tensor(data, requires_grad=True)
        out = x[mask]
        assert out.shape == (3, 2)
        assert out.data.tobytes() == data[[0, 3, 4]].tobytes()
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[:, 0], mask.astype(float))

    def test_other_indices_keep_numpy_indexing(self):
        data = np.arange(24.0).reshape(4, 6)
        x = Tensor(data)
        for index in (1, slice(1, 3), (slice(None), 2),
                      np.array([[0, 1], [3, 3]])):
            assert x[index].data.tobytes() == data[index].tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_add_backward_is_a_gather(self, dtype):
        rng = np.random.default_rng(7)
        index = rng.integers(0, 5, size=12)
        grad = rng.normal(size=(5, 3)).astype(dtype)
        with set_default_dtype(dtype):
            x = Tensor(rng.normal(size=(12, 3)), requires_grad=True)
            scatter_add(x, index, 5).backward(grad)
        assert x.grad.tobytes() == (grad[index] + 0.0).tobytes()

    def test_layout_inverse_undoes_order(self):
        rng = np.random.default_rng(8)
        dst = rng.integers(0, 9, size=40)
        src = rng.integers(0, 9, size=40)
        layout = AttentionLayout.build(src, dst, np.zeros(40), 9)
        np.testing.assert_array_equal(layout.order[layout.inverse],
                                      np.arange(40))
        values = rng.normal(size=(40, 2))
        permuted = np.empty_like(values)
        permuted[layout.order] = values
        assert values[layout.inverse].tobytes() == permuted.tobytes()


class TestGetitemBackward:
    """``getitem``'s backward against ``np.add.at`` into zeros, for
    every index kind; increasing unique rows take the assignment."""

    INDICES = {
        "sorted_unique": np.array([0, 2, 3, 7, 9]),
        "unsorted_unique": np.array([7, 0, 3, 9, 2]),
        "repeated": np.array([3, 0, 3, 9, 3]),
        "negative": np.array([-1, -10, 4]),
        "empty": np.array([], dtype=np.int64),
        "single": np.array([5]),
        "mask": np.array([True, False, True, True, False,
                          False, True, False, False, True]),
        "slice": slice(2, 8, 2),
        "tuple": (slice(None), 2),
    }

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", list(INDICES))
    def test_matches_add_at(self, profile_name, dtype, kind):
        index = self.INDICES[kind]
        rng = np.random.default_rng(9)
        data = rng.normal(size=(10, 4))
        with runtime_profile(profile_name), set_default_dtype(dtype):
            # a non-leaf keeps the backward's array as it is (a leaf
            # would add +0.0 to it), so the signs of zeros show
            x = Tensor(data, requires_grad=True) * 1.0
            out = x[index]
            grad = rng.normal(size=out.shape).astype(dtype)
            grad.reshape(-1)[::3] = -0.0
            out._backward_fn(grad)
        want = np.zeros(data.shape, dtype=dtype)
        np.add.at(want, index, grad)
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == want.tobytes()
        assert not np.signbit(x.grad[x.grad == 0]).any()


class TestOneHotPlacement:
    """Constant one-hot weights place each op's rows; the result and
    every gradient equal the mixture ``Σ_k w[:, k] * op_k`` bit for bit.
    Weights that require grad, or fractional ones, take the mixture."""

    HIDDEN = 8

    @staticmethod
    def _assignment(dataset, num_ops):
        """Rows spread over every op but op 2, which gets none."""
        rng = np.random.default_rng(10)
        used = [op for op in range(num_ops) if op != 2]
        return rng.choice(used, size=dataset.missing_global_ids.shape[0])

    @staticmethod
    def _mixture(features, rows=None):
        """The composite the placement replaced, written out."""
        weights = features._weights
        if rows is not None:
            weights = gather_rows(weights, rows)
        total = None
        for op_index, op in enumerate(features.ops):
            column = weights[:, op_index].reshape(-1, 1)
            if not column.requires_grad and not np.any(column.data):
                continue
            output = op() if rows is None else op.forward_rows(rows)
            term = column * output
            total = term if total is None else total + term
        return total

    def _h0_by_mixture(self, features, view=None):
        blocks = features.projector(view)
        if view is None:
            num_rows = features.dataset.graph.num_nodes
            ids, completed = (features.dataset.missing_global_ids,
                              self._mixture(features))
        else:
            num_rows = view.num_nodes
            ids, rows = features._view_missing(view)
            completed = self._mixture(features, rows)
        return place_rows([b for b, _ in blocks] + [completed],
                          [i for _, i in blocks] + [ids], num_rows)

    def _features(self, dataset):
        return FixedAssignmentFeatures(
            dataset, self.HIDDEN, self._assignment(dataset, len(SearchSpace())))

    def _compare(self, features, view=None):
        leaves = features.parameters()
        num_rows = (features.dataset.graph.num_nodes if view is None
                    else view.num_nodes)
        weight = np.random.default_rng(11).normal(
            size=(num_rows, self.HIDDEN))
        weight[::4] = -0.0
        want = _forward_backward(lambda: self._h0_by_mixture(features, view),
                                 leaves, weight)
        got = _forward_backward(lambda: features(view), leaves, weight)
        _assert_same_bytes(got, want)
        names = [name for name, _ in features.named_parameters()]
        return dict(zip(names, got[1]))

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_full_graph(self, imdb_tiny, profile_name):
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            grads = self._compare(features)
        # the op with no rows gets no gradient; the others and the
        # projector do, the one-hot table among them
        assert all(grads[name] is None for name in grads
                   if name.startswith("ops.2."))
        assert grads["ops.3.table"] is not None
        assert any(name.startswith("projector.") and grad is not None
                   for name, grad in grads.items())

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_view(self, imdb_tiny, profile_name):
        sampler = NeighborSampler(imdb_tiny.graph, fanout=3, num_layers=2,
                                  seed=0)
        seeds = imdb_tiny.graph.to_global(imdb_tiny.target_type,
                                          np.arange(6))
        view = sampler.sample(seeds)
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            assert features._view_missing(view)[1].size
            self._compare(features, view)

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_completed_and_completed_rows(self, imdb_tiny, profile_name):
        rows = np.array([9, 1, 4, 4, 30, 2])
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            for sampled in (None, rows):
                if sampled is None:
                    got, want = features.completed(), self._mixture(features)
                else:
                    got = features.completed_rows(sampled)
                    want = self._mixture(features, sampled)
                # the mixture may keep a -0.0 that placement makes +0.0
                assert got.data.tobytes() == (want.data + 0.0).tobytes()

    @pytest.mark.parametrize("profile_name", ["reference", "fast"])
    def test_rigged_cache(self, imdb_tiny, profile_name, memo_lookups):
        with runtime_profile(profile_name):
            features = self._features(imdb_tiny)
            features.refresh_candidates()
            outcomes = memo_lookups()
            self._compare(features)
        assert outcomes and all(outcomes)

    def test_places_rows_without_mixing(self, imdb_tiny):
        with runtime_profile("fast"):
            features = self._features(imdb_tiny)
            with profile() as prof:
                features().sum().backward()
        calls = {stat.name: stat.calls for stat in prof.report().stats}
        assert calls["place_rows"] == 1
        assert "mul" not in calls and "add" not in calls
        assert calls["getitem"] == len(features.space) - 1  # one per used op

    @pytest.mark.parametrize("weights_kind", ["requires_grad", "fractional"])
    def test_other_weights_take_the_mixture(self, imdb_tiny, weights_kind):
        features = self._features(imdb_tiny)
        one_hot = features._weights.data.copy()
        if weights_kind == "requires_grad":
            weights = Tensor(one_hot, requires_grad=True)
        else:
            one_hot[0] = 1.0 / one_hot.shape[1]  # one row mixes every op
            weights = Tensor(one_hot)
        features.set_weights(weights)
        self._compare(features)
        with profile() as prof:
            h0 = features()
        calls = {stat.name: stat.calls for stat in prof.report().stats}
        assert calls["mul"] >= len(features.space) - 1  # one per mixed op
        if weights_kind == "requires_grad":
            h0.sum().backward()
            assert weights.grad is not None and np.any(weights.grad)
