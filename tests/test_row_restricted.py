"""Row-restricted passes: ``model(h0, rows=r)`` is ``model(h0)[r]``.

Under the fused kernels SimpleHGN runs each layer's attention and
aggregation only into the rows the layers above (and finally the loss)
read, over :meth:`AttentionLayout.restrict`-ed layouts.  The logits of
``rows``, every parameter gradient, the gradient of ``h0`` and the state
the dropout draws leave the generator in must all equal the full pass
byte for byte, in float32 and float64.  The callers (the search adapter
and the trainer) must produce the losses and predictions of the old
full-then-index code.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.completion import FixedAssignmentFeatures, SearchSpace
from repro.core.adapters import NodeClassificationAdapter
from repro.models import build_model
from repro.tensor import (
    AttentionLayout,
    Tensor,
    cross_entropy,
    csr_attention,
    fused_kernels,
    get_rng,
    no_grad,
    set_default_dtype,
)
from repro.training import NodeClassificationTrainer, TrainConfig, set_seed

DTYPES = [np.float32, np.float64]


def _model(dataset, dtype, num_layers=2, beta=0.05, name="simple_hgn"):
    with set_default_dtype(dtype):
        set_seed(3)
        kwargs = {"num_layers": num_layers, "beta": beta} \
            if name == "simple_hgn" else {}
        return build_model(name, dataset, hidden_dim=16, out_dim=16,
                           **kwargs)


def _h0(dataset, dtype):
    rng = np.random.default_rng(11)
    return rng.standard_normal((dataset.graph.num_nodes, 16)).astype(dtype)


def _pass(model, h0_data, rows, restricted, seed=5):
    """Logits of ``rows``, gradients of every parameter and of ``h0``
    for a fixed row weighting, and the generator state afterwards."""
    for param in model.parameters():
        param.zero_grad()
    h0 = Tensor(h0_data.copy(), requires_grad=True)
    set_seed(seed)
    logits = model(h0, rows=rows) if restricted else model(h0)[rows]
    weight = np.linspace(-1.0, 1.0, logits.data.size).reshape(
        logits.shape).astype(logits.data.dtype)
    (logits * Tensor(weight)).sum().backward()
    grads = [param.grad for param in model.parameters()]
    return logits.data, grads, h0.grad, get_rng().bit_generator.state


def _assert_same(got, want):
    got_logits, got_grads, got_h0, got_state = got
    want_logits, want_grads, want_h0, want_state = want
    assert got_logits.dtype == want_logits.dtype
    assert got_logits.tobytes() == want_logits.tobytes()
    assert len(got_grads) == len(want_grads)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert got_grad.dtype == want_grad.dtype
        assert got_grad.tobytes() == want_grad.tobytes()
    assert got_h0.tobytes() == want_h0.tobytes()
    assert got_state == want_state


class TestSimpleHGNParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_logits_gradients_and_dropout_draws(self, imdb_tiny, dtype,
                                                num_layers, beta):
        model = _model(imdb_tiny, dtype, num_layers, beta)
        h0 = _h0(imdb_tiny, dtype)
        rows = imdb_tiny.split.train
        with set_default_dtype(dtype), fused_kernels(True):
            assert model.training  # attention and feature dropout draw
            full = _pass(model, h0, rows, restricted=False)
            restricted = _pass(model, h0, rows, restricted=True)
        _assert_same(restricted, full)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["unsorted", "duplicates", "single",
                                      "all"])
    def test_row_sets(self, imdb_tiny, dtype, kind):
        num_target = imdb_tiny.graph.num_nodes_of(imdb_tiny.target_type)
        rows = {
            "unsorted": imdb_tiny.split.val[::-1].copy(),
            "duplicates": np.array([5, 2, 5, 9, 2, 2]),
            "single": np.array([7]),
            "all": np.arange(num_target),
        }[kind]
        model = _model(imdb_tiny, dtype)
        h0 = _h0(imdb_tiny, dtype)
        with set_default_dtype(dtype), fused_kernels(True):
            full = _pass(model, h0, rows, restricted=False)
            restricted = _pass(model, h0, rows, restricted=True)
        _assert_same(restricted, full)

    def test_eval_mode(self, imdb_tiny):
        model = _model(imdb_tiny, np.float32).eval()
        h0 = _h0(imdb_tiny, np.float32)
        with set_default_dtype(np.float32), fused_kernels(True):
            full = _pass(model, h0, imdb_tiny.split.test, restricted=False)
            restricted = _pass(model, h0, imdb_tiny.split.test,
                               restricted=True)
        _assert_same(restricted, full)

    def test_layouts_nest_and_are_built_lazily(self, imdb_tiny):
        model = _model(imdb_tiny, np.float32, num_layers=3)
        assert model._restricted == {}
        rows = imdb_tiny.split.train
        plan = model.restricted_layouts(rows)
        assert model.restricted_layouts(rows.copy()) is plan
        targets = imdb_tiny.graph.to_global(imdb_tiny.target_type, rows)
        assert plan[0][1] is None
        top = plan[-1][0]
        assert np.array_equal(np.flatnonzero(top.counts),
                              np.unique(targets))
        for (below, _), (layout, link) in zip(plan, plan[1:]):
            # each layer computes every row the layer above reads
            read = np.union1d(layout.pattern.indices,
                              np.flatnonzero(layout.counts))
            assert np.array_equal(np.flatnonzero(below.counts), read)
            assert np.array_equal(below.entries[link], layout.entries)

    def test_reference_profile_runs_the_full_pass(self, imdb_tiny):
        model = _model(imdb_tiny, np.float64)
        h0 = _h0(imdb_tiny, np.float64)
        with fused_kernels(False):
            full = _pass(model, h0, imdb_tiny.split.val, restricted=False)
            restricted = _pass(model, h0, imdb_tiny.split.val,
                               restricted=True)
        _assert_same(restricted, full)
        assert model._restricted == {}

    @pytest.mark.parametrize("name", ["gat", "magnn"])
    def test_other_models_take_the_default_path(self, imdb_tiny, name):
        model = _model(imdb_tiny, np.float32, name=name)
        h0 = _h0(imdb_tiny, np.float32)
        with set_default_dtype(np.float32), fused_kernels(True):
            full = _pass(model, h0, imdb_tiny.split.train, restricted=False)
            restricted = _pass(model, h0, imdb_tiny.split.train,
                               restricted=True)
        _assert_same(restricted, full)


def _random_topology(seed, n=30, e=160, types=4):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=e)
    dst = rng.integers(0, n, size=e)
    etype = rng.integers(0, types, size=e)
    return src, dst, etype, n


class TestRestrict:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_a_brute_force_edge_filter(self, seed):
        src, dst, etype, n = _random_topology(seed)
        full = AttentionLayout.build(src, dst, etype, n)
        rows = np.random.default_rng(seed + 10).choice(n, size=9,
                                                       replace=False)
        layout = full.restrict(rows)
        kept = np.flatnonzero(np.isin(dst, rows))  # edge order
        by_row = kept[np.argsort(dst[kept], kind="stable")]  # pattern order
        assert np.array_equal(layout.order, by_row)
        assert np.array_equal(layout.src, src[kept])
        assert np.array_equal(layout.etype, etype[kept])
        assert np.array_equal(layout.etype_sorted, etype[by_row])
        assert np.array_equal(layout.order[layout.inverse], kept)
        assert np.array_equal(layout.entries, full.inverse[by_row])
        counts = np.bincount(dst[kept], minlength=n)
        assert np.array_equal(layout.counts, counts)
        assert np.array_equal(layout.filled, counts > 0)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        assert np.array_equal(layout.pattern.indptr, indptr)
        assert np.array_equal(layout.pattern.indices, src[by_row])
        assert np.array_equal(layout.starts, indptr[:-1][counts > 0])
        assert layout.pattern.shape == (n, n)
        assert layout.num_edges == full.num_edges == src.shape[0]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_csr_attention_on_a_restricted_layout(self, dtype):
        src, dst, etype, n = _random_topology(4)
        full = AttentionLayout.build(src, dst, etype, n)
        layout = full.restrict(np.array([3, 17, 4, 25]))
        rng = np.random.default_rng(9)
        data = [rng.standard_normal(shape).astype(dtype)
                for shape in ((n, 2), (n, 2), (4, 2), (src.shape[0], 2))]
        weight = rng.standard_normal((src.shape[0], 2)).astype(dtype)

        def run(layout, take):
            leaves = [Tensor(array.copy(), requires_grad=True)
                      for array in data]
            prev = leaves[3] if take is None else leaves[3][take]
            set_seed(8)
            alpha = csr_attention(*leaves[:3], layout, 0.05,
                                  alpha_prev=prev, beta=0.05,
                                  dropout_p=0.3, training=True)
            picked = weight if take is None else weight[take]
            (alpha * Tensor(picked)).sum().backward()
            return (alpha.data, [leaf.grad for leaf in leaves],
                    get_rng().bit_generator.state)

        with set_default_dtype(dtype), fused_kernels(True):
            entries = layout.entries
            weight[np.setdiff1d(np.arange(src.shape[0]), entries)] = 0
            want = run(full, None)
            got = run(layout, entries)
        assert got[0].tobytes() == want[0][entries].tobytes()
        for got_grad, want_grad in zip(got[1], want[1]):
            assert got_grad.tobytes() == want_grad.tobytes()
        assert got[2] == want[2]


@pytest.fixture()
def features(imdb_tiny):
    space = SearchSpace()
    assignment = np.random.default_rng(2).integers(
        0, len(space), size=imdb_tiny.missing_global_ids.shape[0])
    return FixedAssignmentFeatures(imdb_tiny, 16, assignment, space=space)


class TestCallers:
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_adapter_losses(self, imdb_tiny, features, split):
        model = _model(imdb_tiny, np.float64)
        adapter = NodeClassificationAdapter(imdb_tiny)
        rows = getattr(imdb_tiny.split, split)
        params = model.parameters() + features.parameters()

        def run(new):
            for param in params:
                param.zero_grad()
            set_seed(6)
            if new:
                loss = (adapter.train_loss(model, features) if split == "train"
                        else adapter.val_loss(model, features))
            else:  # the full-then-index code the adapter used to run
                logits = model(features())
                loss = cross_entropy(logits[rows], imdb_tiny.labels[rows])
            loss.backward()
            return loss.data, [param.grad for param in params]

        with fused_kernels(True):
            got, want = run(True), run(False)
        assert got[0].tobytes() == want[0].tobytes()
        for got_grad, want_grad in zip(got[1], want[1]):
            assert got_grad.tobytes() == want_grad.tobytes()

    def test_trainer_loss_and_predictions(self, imdb_tiny, features):
        model = _model(imdb_tiny, np.float64)
        trainer = NodeClassificationTrainer(model, features, imdb_tiny,
                                            TrainConfig(epochs=1))
        rows = imdb_tiny.split.train
        with fused_kernels(True):
            set_seed(6)
            loss = trainer._loss(rows)
            set_seed(6)
            logits = model(features())
            old = cross_entropy(logits[rows], imdb_tiny.labels[rows])
            assert loss.data.tobytes() == old.data.tobytes()
            for indices in (imdb_tiny.split.val, imdb_tiny.split.test):
                model.eval()
                features.eval()
                with no_grad():
                    full = model(features()).data
                model.train()
                features.train()
                assert np.array_equal(trainer._predict(indices),
                                      np.argmax(full, axis=-1)[indices])
