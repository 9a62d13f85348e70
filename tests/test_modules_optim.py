"""Module system (registration, state dicts) and optimizer behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    SGD,
    Adam,
    AdamW,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleDict,
    ModuleList,
    Parameter,
    Sequential,
    Tensor,
    clip_grad_norm,
)


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8)
        self.fc2 = Linear(8, 2)
        self.drop = Dropout(0.5)

    def forward(self, x):
        return self.fc2(self.drop(self.fc1(x)))


class TestModuleSystem:
    def test_parameter_registration_recursive(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_train_eval_propagates(self):
        net = TinyNet()
        net.eval()
        assert not net.drop.training
        net.train()
        assert net.drop.training

    def test_eval_disables_dropout(self):
        net = TinyNet()
        net.eval()
        x = Tensor(np.ones((3, 4)))
        first = net(x).data
        second = net(x).data
        np.testing.assert_array_equal(first, second)

    def test_state_dict_roundtrip(self):
        net = TinyNet()
        state = net.state_dict()
        for param in net.parameters():
            param.data += 1.0
        net.load_state_dict(state)
        for name, param in net.named_parameters():
            np.testing.assert_array_equal(param.data, state[name])

    def test_state_dict_is_a_copy(self):
        net = TinyNet()
        state = net.state_dict()
        net.fc1.weight.data += 5.0
        assert not np.allclose(state["fc1.weight"], net.fc1.weight.data)

    def test_load_state_dict_key_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        del state["fc1.bias"]
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_load_state_dict_shape_mismatch(self):
        net = TinyNet()
        state = net.state_dict()
        state["fc1.bias"] = np.zeros(3)
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad(self):
        net = TinyNet()
        out = net(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_module_list_and_dict(self):
        layers = ModuleList([Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.modules())) == 4
        mapping = ModuleDict({"a": Linear(2, 2)})
        mapping["b"] = Linear(2, 3)
        assert "b" in mapping and len(list(mapping.parameters())) == 4

    def test_sequential(self):
        net = Sequential(Linear(3, 5), Linear(5, 2))
        assert net(Tensor(np.ones((4, 3)))).shape == (4, 2)
        assert len(net) == 2

    def test_embedding_lookup_and_grad(self):
        emb = Embedding(6, 3)
        out = emb(np.array([1, 1, 4]))
        assert out.shape == (3, 3)
        out.sum().backward()
        # duplicated index accumulates double gradient
        np.testing.assert_allclose(emb.weight.grad[1], 2.0)
        np.testing.assert_allclose(emb.weight.grad[4], 1.0)
        np.testing.assert_allclose(emb.weight.grad[0], 0.0)

    def test_layer_norm_module(self):
        norm = LayerNorm(5)
        out = norm(Tensor(np.random.default_rng(0).normal(size=(3, 5))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)


def _quadratic_minimize(optimizer_factory, steps=300):
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))
    opt = optimizer_factory([param])
    for _ in range(steps):
        opt.zero_grad()
        loss = ((param - Tensor(target)) ** 2).sum()
        loss.backward()
        opt.step()
    return param.data, target


class TestOptimizers:
    def test_sgd_converges(self):
        result, target = _quadratic_minimize(lambda p: SGD(p, lr=0.1))
        np.testing.assert_allclose(result, target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        result, target = _quadratic_minimize(
            lambda p: SGD(p, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(result, target, atol=1e-4)

    def test_adam_converges(self):
        result, target = _quadratic_minimize(lambda p: Adam(p, lr=0.1))
        np.testing.assert_allclose(result, target, atol=1e-3)

    def test_adamw_converges(self):
        result, target = _quadratic_minimize(lambda p: AdamW(p, lr=0.1))
        np.testing.assert_allclose(result, target, atol=1e-3)

    def test_weight_decay_shrinks_solution(self):
        no_decay, _ = _quadratic_minimize(lambda p: Adam(p, lr=0.05))
        decayed, _ = _quadratic_minimize(
            lambda p: Adam(p, lr=0.05, weight_decay=1.0))
        assert np.linalg.norm(decayed) < np.linalg.norm(no_decay)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(2))], lr=-1.0)

    def test_step_skips_gradless_params(self):
        p1, p2 = Parameter(np.ones(2)), Parameter(np.ones(2))
        opt = SGD([p1, p2], lr=0.5)
        (p1.sum()).backward()
        opt.step()
        np.testing.assert_allclose(p2.data, 1.0)
        assert not np.allclose(p1.data, 1.0)

    def test_clip_grad_norm(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        total = clip_grad_norm([param], max_norm=1.0)
        assert total == pytest.approx(20.0)
        np.testing.assert_allclose(np.linalg.norm(param.grad), 1.0)
