"""The engine dtype policy: float32 fast mode end to end.

Covers the three contracts of :mod:`repro.tensor.dtype`:

* ``set_default_dtype`` switches/restores the allocation dtype of
  tensors, initializers, sparse matrices and RNG draws;
* every differentiable op in ``repro.tensor.functional`` and
  ``repro.tensor.sparse`` passes a float32 gradcheck at the relaxed
  per-dtype tolerances (both unfused and fused implementations);
* a float32-trained :class:`~repro.serving.ModelBundle` survives an
  export/load round trip with identical predictions.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.tensor import (
    AttentionLayout,
    SparseTensor,
    Tensor,
    addmm,
    binary_cross_entropy_with_logits,
    cross_entropy,
    csr_attention,
    dropout,
    fused_kernels,
    get_default_dtype,
    gradcheck,
    head_dot,
    init,
    is_fast_dtype,
    l2_normalize,
    log_softmax,
    manual_seed,
    segment_softmax,
    set_default_dtype,
    softmax,
    spmm,
    weighted_spmm,
)
from repro.tensor.functional import embedding, layer_norm, one_hot


@pytest.fixture(autouse=True)
def _restore_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


@pytest.fixture
def float32():
    with set_default_dtype("float32"):
        yield


def _t(shape, seed=0, scale=1.0):
    data = np.random.default_rng(seed).normal(size=shape) * scale
    return Tensor(data, requires_grad=True)


class TestPolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64
        assert not is_fast_dtype()
        assert Tensor([1.0]).dtype == np.float64

    def test_context_manager_switches_and_restores(self):
        with set_default_dtype("float32"):
            assert is_fast_dtype()
            assert Tensor([1.0]).dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_plain_call_switches_until_reset(self):
        set_default_dtype(np.float32)
        assert Tensor([1.0]).dtype == np.float32
        set_default_dtype("float64")
        assert Tensor([1.0]).dtype == np.float64

    def test_rejects_non_float_dtypes(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            set_default_dtype("float16")

    def test_initializers_follow_policy(self, float32):
        for array in (init.zeros((3,)), init.ones((3,)),
                      init.uniform((3,)),
                      init.normal((3,)), init.xavier_uniform((3, 4)),
                      one_hot(np.array([0, 1]), 3)):
            assert array.dtype == np.float32

    def test_sparse_and_ops_follow_policy(self, float32):
        mat = SparseTensor.eye(3)
        assert mat.values.dtype == np.float32
        assert mat.row_normalize().values.dtype == np.float32
        out = spmm(mat, Tensor(np.ones((3, 2))))
        assert out.dtype == np.float32

    def test_arithmetic_stays_float32(self, float32):
        a, b = Tensor(np.ones(4)), Tensor(np.ones(4))
        assert (a + b).dtype == np.float32
        assert (a * b).dtype == np.float32
        assert (a @ Tensor(np.ones((4, 2)))).dtype == np.float32
        assert softmax(a).dtype == np.float32

    def test_mixed_precision_input_cast_on_construction(self, float32):
        assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float32

    def test_graph_caches_keyed_by_dtype(self):
        # switching profiles must never serve a stale-precision operator
        # from the graph's adjacency caches (reference stays float64 even
        # after a float32 run touched the same graph)
        from repro.datasets import get_dataset

        graph = get_dataset("imdb", scale="tiny", seed=3).graph
        with set_default_dtype("float32"):
            assert graph.adjacency().dtype == np.float32
            assert graph.normalized_adjacency().values.dtype == np.float32
            assert graph.adjacency_sparse().values.dtype == np.float32
        assert graph.adjacency().dtype == np.float64
        assert graph.normalized_adjacency().values.dtype == np.float64
        assert graph.adjacency_sparse().values.dtype == np.float64


def _gradcheck_all_ops():
    """(name, fn, inputs-factory) for every differentiable op under test."""
    seg = np.array([0, 0, 1, 2, 2, 2])
    targets = np.array([1, 0, 2, 1, 0])
    edge_src = np.array([0, 1, 2, 3, 0, 2])
    edge_dst = np.array([1, 1, 2, 0, 3, 3])
    layout = AttentionLayout.build(edge_src, edge_dst,
                                   np.zeros_like(edge_src), 4)

    def dropout_deterministic(x):
        manual_seed(7)  # numerical_gradient re-evaluates; fix the mask
        return dropout(x, 0.4, training=True)

    pattern = None  # built lazily inside the float32 context

    def get_pattern():
        nonlocal pattern
        if pattern is None:
            pattern = SparseTensor.from_edges(
                np.array([0, 0, 1, 2, 3]), np.array([1, 2, 0, 3, 2]),
                shape=(4, 4))
        return pattern

    return [
        ("softmax", lambda x: softmax(x), lambda: [_t((5, 4))]),
        ("log_softmax", lambda x: log_softmax(x), lambda: [_t((5, 4))]),
        ("cross_entropy",
         lambda x: cross_entropy(x, targets), lambda: [_t((5, 3))]),
        ("cross_entropy_sum",
         lambda x: cross_entropy(x, targets, reduction="sum"),
         lambda: [_t((5, 3))]),
        ("cross_entropy_none",
         lambda x: cross_entropy(x, targets, reduction="none"),
         lambda: [_t((5, 3))]),
        ("bce_with_logits",
         lambda x: binary_cross_entropy_with_logits(
             x, np.array([1.0, 0, 1, 0, 1])),
         lambda: [_t((5,))]),
        ("addmm", lambda x, w, b: addmm(x, w, b),
         lambda: [_t((4, 3)), _t((3, 2), seed=1), _t((2,), seed=2)]),
        ("dropout", dropout_deterministic, lambda: [_t((6, 3))]),
        ("l2_normalize", lambda x: l2_normalize(x), lambda: [_t((4, 3))]),
        ("layer_norm", lambda x, w, b: layer_norm(x, w, b),
         lambda: [_t((4, 3)), _t((3,), seed=1), _t((3,), seed=2)]),
        ("segment_softmax", lambda x: segment_softmax(x, seg, 3),
         lambda: [_t((6, 2))]),
        ("head_dot", lambda x, v: head_dot(x, v),
         lambda: [_t((5, 2, 3)), _t((2, 3), seed=1)]),
        ("csr_attention_untyped",
         lambda s, d: csr_attention(s, d, None, layout, 0.2),
         lambda: [_t((4, 2)), _t((4, 2), seed=1)]),
        ("embedding",
         lambda table: embedding(table, np.array([0, 2, 2, 1])),
         lambda: [_t((3, 4))]),
        ("spmm", lambda x: spmm(get_pattern(), x), lambda: [_t((4, 3))]),
        ("weighted_spmm",
         lambda v, x: weighted_spmm(get_pattern(), v, x),
         lambda: [_t((5,)), _t((4, 3), seed=1)]),
        ("weighted_spmm_multihead",
         lambda v, x: weighted_spmm(get_pattern(), v, x),
         lambda: [_t((5, 2)), _t((4, 2, 3), seed=1)]),
    ]


@pytest.mark.parametrize("fused", [False, True],
                         ids=["unfused", "fused"])
@pytest.mark.parametrize("name,fn,make_inputs",
                         [(case[0], case[1], case[2])
                          for case in _gradcheck_all_ops()],
                         ids=[case[0] for case in _gradcheck_all_ops()])
def test_float32_gradcheck(name, fn, make_inputs, fused, float32):
    with fused_kernels(fused):
        inputs = make_inputs()
        for tensor in inputs:
            assert tensor.dtype == np.float32
        assert gradcheck(fn, inputs)


def test_float64_gradcheck_stays_tight():
    # the relaxed tolerances apply only when a float32 input is present
    inputs = [_t((4, 3))]
    assert inputs[0].dtype == np.float64
    assert gradcheck(lambda x: softmax(x), inputs)


def test_numerical_gradient_defaults_eps_per_dtype(float32):
    # a 1e-6 step is below float32 spacing for values ≳ 1; the default
    # must pick a float32-sized step or the difference rounds away
    from repro.tensor import numerical_gradient

    x = Tensor(np.full(3, 8.0), requires_grad=True)
    assert x.dtype == np.float32
    numeric = numerical_gradient(lambda t: t * t, [x], 0)
    np.testing.assert_allclose(numeric, 16.0, rtol=1e-2)


class TestFloat32BundleRoundTrip:
    def test_export_load_serve_identical_predictions(self, float32):
        from repro.completion import FixedAssignmentFeatures, SearchSpace
        from repro.datasets import get_dataset
        from repro.models import build_model
        from repro.serving import (DatasetSpec, InferenceEngine, ModelBundle,
                                   build_bundle)
        from repro.training import (NodeClassificationTrainer, TrainConfig,
                                    set_seed)

        set_seed(0)
        dataset = get_dataset("imdb", scale="tiny", seed=0)
        space = SearchSpace()
        assignment = np.random.default_rng(0).integers(
            0, len(space), size=dataset.missing_global_ids.shape[0])
        features = FixedAssignmentFeatures(dataset, 16, assignment,
                                           space=space)
        model = build_model("gcn", dataset, hidden_dim=16, out_dim=16)
        NodeClassificationTrainer(model, features, dataset,
                                  TrainConfig(epochs=2, patience=5)).train()
        # the trained parameters really are single precision
        assert all(p.dtype == np.float32 for p in model.parameters())

        bundle = build_bundle(dataset, DatasetSpec("imdb", "tiny", 0), "gcn",
                              model, features, hidden_dim=16, out_dim=16)
        with tempfile.TemporaryDirectory() as tmp:
            path = bundle.save(Path(tmp) / "bundle_f32.npz")
            engine_direct = InferenceEngine(bundle)
            engine_loaded = InferenceEngine(ModelBundle.load(path))
            ids = np.arange(min(16, dataset.split.test.shape[0]))
            direct = engine_direct.predict_logits(ids)
            loaded = engine_loaded.predict_logits(ids)
        assert direct.dtype == np.float32
        np.testing.assert_array_equal(direct, loaded)
