"""Regression tests: backward() frees the autograd graph.

Epoch-sized graphs used to stay fully alive after ``backward()`` —
every intermediate kept its ``.grad``, ``_parents`` chain and backward
closure until the loss tensor itself was dropped.  These tests pin the
fixed behaviour: non-leaf nodes release everything right after the
backward pass (leaves keep their grads), freed graphs raise on a second
backward, and a full train step leaves no graph debris behind.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.tensor import Adam, Linear, Tensor, clip_grad_norm, cross_entropy


def _leaf(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape),
                  requires_grad=True)


class TestGraphRelease:
    def test_non_leaf_grads_released_leaves_kept(self):
        x = _leaf((4,))
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        assert x.grad is not None
        assert y.grad is None and loss.grad is None
        assert y._parents == () and loss._parents == ()

    def test_intermediates_collectible_while_loss_alive(self):
        x = _leaf((8, 4))
        hidden = x * 3.0
        loss = (hidden * hidden).sum()
        refs = [weakref.ref(node) for node in loss._topological_order()
                if node is not loss and node._backward_fn is not None]
        assert refs, "expected non-leaf intermediates in the graph"
        loss.backward()
        del hidden
        gc.collect()
        # loss is still alive, but its parents were dropped
        assert all(ref() is None for ref in refs)

    def test_second_backward_through_freed_graph_raises(self):
        x = _leaf((3,))
        loss = (x * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()

    def test_freed_intermediate_reused_in_new_graph_raises(self):
        x = _leaf((3,))
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="freed"):
            (y * 3.0).sum().backward()

    def test_retain_graph_allows_second_backward(self):
        x = _leaf((2,))
        loss = (x * 2.0).sum()
        loss.backward(retain_graph=True)
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_fresh_graphs_still_accumulate_into_leaves(self):
        x = _leaf((2,))
        (x * 1.0).sum().backward()
        (x * 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])


#: dyadic values: every expected gradient below is exact in float64
DYADIC = np.array([0.5, -1.25, 2.0, 3.0])


class TestBorrowedGradients:
    """A non-leaf keeps its first gradient without a copy; these graphs
    hand one array to several consumers and must still give the exact
    leaf gradients of the closed forms."""

    def test_tensor_consumed_twice(self):
        x = Tensor(DYADIC.copy(), requires_grad=True)
        y = x * 3.0
        (y * y + y).sum().backward()
        np.testing.assert_array_equal(x.grad, 3.0 * (2.0 * 3.0 * DYADIC + 1.0))

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_add_hands_one_array_to_two_non_leaf_parents(self, shared_first):
        x = Tensor(DYADIC.copy(), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        c = a + b  # backward passes the same array to a and b
        square, extra = (c * c).sum(), (a * 5.0).sum()
        loss = square + extra if shared_first else extra + square
        loss.backward()
        # dc = 2c, da = 2c + 5, db = 2c with c = 5x
        np.testing.assert_array_equal(x.grad, 50.0 * DYADIC + 10.0)

    def test_reshape_views(self):
        x = Tensor(DYADIC[[0, 1, 2, 3, 0, 1]].reshape(2, 3).copy(),
                   requires_grad=True)
        y = x * 2.0
        flat = y.reshape(6)
        grid = flat.reshape(3, 2)
        ((grid * grid).sum() + (flat * 1.5).sum()).backward()
        np.testing.assert_array_equal(x.grad, 8.0 * x.data + 3.0)
        assert y.grad is None and flat.grad is None and grid.grad is None

    def test_retain_graph_double_backward(self):
        x = Tensor(DYADIC.copy(), requires_grad=True)
        y = x * x
        loss = (y * 3.0).sum()
        loss.backward(retain_graph=True)
        assert y.grad is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, 12.0 * DYADIC)

    def test_leaf_grads_never_share_memory(self):
        a = Tensor(DYADIC.copy(), requires_grad=True)
        b = Tensor(DYADIC[::-1].copy(), requires_grad=True)
        weight = np.array([1.0, 2.0, -4.0, 0.25])
        ((a + b) * weight).sum().backward()  # one array for both leaves
        assert not np.shares_memory(a.grad, b.grad)
        before = b.grad.copy()
        clip_grad_norm([a], max_norm=1e-3)  # scales a.grad in place
        np.testing.assert_array_equal(b.grad, before)
        np.testing.assert_array_equal(b.grad, weight)
        assert np.linalg.norm(a.grad) == pytest.approx(1e-3)

    def test_leaf_grad_does_not_alias_the_callers_gradient(self):
        x = Tensor(DYADIC.copy(), requires_grad=True)
        y = x * 1.0
        upstream = np.ones(4)
        y.backward(upstream)
        assert not np.shares_memory(x.grad, upstream)
        x.grad *= 2.0
        np.testing.assert_array_equal(upstream, np.ones(4))


class TestTrainStepMemory:
    @staticmethod
    def _live_tensor_count() -> int:
        gc.collect()
        return sum(1 for obj in gc.get_objects() if isinstance(obj, Tensor))

    def test_graph_node_count_returns_to_baseline_after_train_step(self):
        rng = np.random.default_rng(0)
        model = Linear(16, 4)
        optimizer = Adam(model.parameters(), lr=1e-3)
        inputs = rng.normal(size=(32, 16))
        targets = rng.integers(0, 4, size=32)

        def step():
            optimizer.zero_grad()
            loss = cross_entropy(model(Tensor(inputs)), targets)
            loss.backward()
            optimizer.step()

        step()  # warm up lazy allocations (optimizer state etc.)
        baseline = self._live_tensor_count()
        for _ in range(5):
            step()
        after = self._live_tensor_count()
        # every step's graph must be fully collectible; allow nothing to
        # accumulate across five steps
        assert after <= baseline, (
            f"train steps leak graph nodes: {baseline} -> {after}")
