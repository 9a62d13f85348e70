"""Tests for NN functional ops: softmax family, losses, dropout, segments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    binary_cross_entropy_with_logits,
    cross_entropy,
    dropout,
    gradcheck,
    l2_normalize,
    log_softmax,
    one_hot,
    segment_softmax,
    softmax,
)
from repro.tensor.functional import layer_norm, segment_max_data

RNG = np.random.default_rng(11)


def _t(shape, positive=False):
    data = RNG.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.2
    return Tensor(data, requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = _t((6, 4))
        np.testing.assert_allclose(softmax(x).data.sum(axis=-1), 1.0)

    def test_gradcheck(self):
        x = _t((3, 5))
        gradcheck(lambda t: softmax(t, axis=-1), [x])
        gradcheck(lambda t: softmax(t, axis=0), [x])

    def test_log_softmax_consistency(self):
        x = _t((4, 3))
        np.testing.assert_allclose(np.exp(log_softmax(x).data),
                                   softmax(x).data, atol=1e-12)
        gradcheck(lambda t: log_softmax(t), [x])

    def test_stability_large_values(self):
        x = Tensor([[1000.0, 1000.0, 999.0]])
        out = softmax(x).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
        loss = cross_entropy(logits, np.array([0, 1]))
        np.testing.assert_allclose(loss.item(),
                                   -0.5 * (np.log(0.7) + np.log(0.8)),
                                   rtol=1e-10)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    def test_cross_entropy_gradcheck(self, reduction):
        logits = _t((5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        gradcheck(lambda t: cross_entropy(t, targets, reduction=reduction)
                  if reduction != "none"
                  else cross_entropy(t, targets, reduction="none").sum(),
                  [logits])

    def test_nll_agrees_with_cross_entropy(self):
        logits = _t((4, 3))
        targets = np.array([2, 0, 1, 1])
        ce = cross_entropy(logits, targets)
        shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1,
                                                         keepdims=True))
        nll = -log_probs[np.arange(4), targets].mean()
        np.testing.assert_allclose(ce.item(), nll, rtol=1e-12)

    def test_bce_matches_manual_and_grad(self):
        logits = _t((8,))
        targets = (RNG.random(8) > 0.5).astype(float)
        loss = binary_cross_entropy_with_logits(logits, targets)
        probs = 1.0 / (1.0 + np.exp(-logits.data))
        manual = -(targets * np.log(probs) + (1 - targets) * np.log1p(-probs))
        np.testing.assert_allclose(loss.item(), manual.mean(), rtol=1e-8)
        gradcheck(lambda t: binary_cross_entropy_with_logits(t, targets),
                  [logits])

    def test_bce_stable_at_extreme_logits(self):
        logits = Tensor([1000.0, -1000.0], requires_grad=True)
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6


class TestDropout:
    def test_eval_mode_identity(self):
        x = _t((10, 10))
        np.testing.assert_array_equal(dropout(x, 0.5, training=False).data,
                                      x.data)

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(_t((2,)), 1.0)

    def test_gradient_respects_mask(self):
        x = _t((50,))
        out = dropout(x, 0.5, training=True)
        out.sum().backward()
        dropped = out.data == 0
        np.testing.assert_allclose(x.grad[dropped], 0.0)


class TestSegments:
    def test_segment_softmax_sums_to_one_per_segment(self):
        x = _t((7, 3))
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        out = segment_softmax(x, seg, 3)
        for s in range(3):
            np.testing.assert_allclose(out.data[seg == s].sum(axis=0), 1.0,
                                       rtol=1e-9)

    def test_segment_softmax_gradcheck(self):
        x = _t((6, 2))
        seg = np.array([0, 0, 1, 1, 2, 2])
        gradcheck(lambda t: segment_softmax(t, seg, 3), [x])

    def test_segment_softmax_single_member_is_one(self):
        x = _t((3,))
        out = segment_softmax(x, np.array([0, 1, 2]), 3)
        np.testing.assert_allclose(out.data, 1.0)

    def test_segment_max_data(self):
        x = np.array([[1.0], [5.0], [3.0]])
        out = segment_max_data(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out, [[5.0], [3.0]])


class TestNormalization:
    def test_l2_normalize_unit_rows(self):
        x = _t((5, 4))
        norms = np.linalg.norm(l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-8)

    def test_l2_normalize_gradcheck(self):
        x = _t((3, 4))
        gradcheck(lambda t: l2_normalize(t), [x])

    def test_layer_norm_zero_mean_unit_var(self):
        x = _t((6, 8))
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        out = layer_norm(x, w, b).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-2)

    def test_layer_norm_gradcheck(self):
        x = _t((4, 5))
        w = Tensor(RNG.normal(size=5), requires_grad=True)
        b = Tensor(RNG.normal(size=5), requires_grad=True)
        gradcheck(lambda t, ww, bb: layer_norm(t, ww, bb), [x, w, b])


class TestOneHot:
    def test_one_hot_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])
