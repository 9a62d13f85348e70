"""Row-restricted passes: ``model(h0, rows=r)`` is ``model(h0)[r]``.

Under the fused kernels SimpleHGN (and GAT, its configuration without
edge types, residuals or output normalization) runs each layer only on
the rows the layers above (and finally the loss) read, over compact
:meth:`AttentionLayout.restrict`-ed layouts.  The parts that use no BLAS
are checked byte for byte: the compact layout against a brute-force edge
filter, :func:`csr_attention`, :func:`weighted_spmm` and row-drawn
:func:`dropout` against the kept rows of the full-shape ops, and the
state the dropout draws leave the generator in.  The logits, the
gradient of ``h0`` and every parameter gradient are compared with the
full pass to float precision: a BLAS product's bits may depend on its row
count (the 64→3 classifier on 117 rows differs in the last bits from the
same rows of a 2,141-row product), and the parameter gradients sum over
fewer rows.  The callers (the search adapter and the trainer) must
produce the losses and predictions of the full-then-index code.
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
    dropout,
    fused_kernels,
    get_rng,
    no_grad,
    set_default_dtype,
    weighted_spmm,
)
from repro.training import NodeClassificationTrainer, TrainConfig, set_seed

DTYPES = [np.float32, np.float64]
#: relative tolerance of the compact pass against the full one (of the
#: largest magnitude in each compared array)
RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-10}


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


def _assert_close(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    rtol = RTOL[want.dtype]
    np.testing.assert_allclose(got, want, rtol=rtol,
                               atol=rtol * float(np.abs(want).max()))


def _assert_equivalent(got, want):
    """Float-precision parity, with the generator state exact."""
    got_logits, got_grads, got_h0, got_state = got
    want_logits, want_grads, want_h0, want_state = want
    _assert_close(got_logits, want_logits)
    assert len(got_grads) == len(want_grads)
    for got_grad, want_grad in zip(got_grads, want_grads):
        _assert_close(got_grad, want_grad)
    _assert_close(got_h0, want_h0)
    assert got_state == want_state


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
        _assert_equivalent(restricted, full)

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
        _assert_equivalent(restricted, full)

    def test_eval_mode(self, imdb_tiny):
        model = _model(imdb_tiny, np.float32).eval()
        h0 = _h0(imdb_tiny, np.float32)
        with set_default_dtype(np.float32), fused_kernels(True):
            full = _pass(model, h0, imdb_tiny.split.test, restricted=False)
            restricted = _pass(model, h0, imdb_tiny.split.test,
                               restricted=True)
        _assert_equivalent(restricted, full)

    def test_layouts_nest_and_are_built_lazily(self, imdb_tiny):
        model = _model(imdb_tiny, np.float32, num_layers=3)
        assert model._restricted == {}
        rows = imdb_tiny.split.train[::-1].copy()
        plan = model.restricted_layouts(rows)
        assert model.restricted_layouts(rows.copy()) is plan
        steps, take = plan
        targets = imdb_tiny.graph.to_global(imdb_tiny.target_type, rows)
        assert steps[0][1] is None

        def computed(layout):
            return layout.columns[layout.row_columns]

        top = steps[-1][0]
        assert np.array_equal(computed(top), np.unique(targets))
        assert np.array_equal(computed(top)[take], targets)
        for layout, _ in steps:
            # compact: a row per computed node, a column per node read
            assert layout.pattern.shape == (layout.row_columns.shape[0],
                                            layout.columns.shape[0])
        for (below, _), (layout, link) in zip(steps, steps[1:]):
            # each layer computes exactly the rows the layer above reads
            assert np.array_equal(computed(below), layout.columns)
            assert np.array_equal(below.entries[link], layout.entries)
        assert steps[0][0].columns.shape[0] < imdb_tiny.graph.num_nodes

    def test_reference_profile_runs_the_full_pass(self, imdb_tiny):
        model = _model(imdb_tiny, np.float64)
        h0 = _h0(imdb_tiny, np.float64)
        with fused_kernels(False):
            full = _pass(model, h0, imdb_tiny.split.val, restricted=False)
            restricted = _pass(model, h0, imdb_tiny.split.val,
                               restricted=True)
        _assert_same(restricted, full)
        assert model._restricted == {}

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gat_takes_the_compact_pass(self, imdb_tiny, dtype):
        model = _model(imdb_tiny, dtype, name="gat")
        h0 = _h0(imdb_tiny, dtype)
        rows = imdb_tiny.split.train
        with set_default_dtype(dtype), fused_kernels(True):
            assert model.training
            full = _pass(model, h0, rows, restricted=False)
            assert model._restricted == {}
            restricted = _pass(model, h0, rows, restricted=True)
        assert len(model._restricted) == 1
        _assert_equivalent(restricted, full)

    @pytest.mark.parametrize("name", ["magnn"])
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


def _random_rows(seed, n):
    """Nine distinct rows in random order, one of them repeated."""
    rows = np.random.default_rng(seed + 10).choice(n, size=9, replace=False)
    return np.concatenate([rows, rows[:1]])


class TestRestrict:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_a_brute_force_edge_filter(self, seed):
        src, dst, etype, n = _random_topology(seed)
        full = AttentionLayout.build(src, dst, etype, n)
        rows = _random_rows(seed, n)
        layout = full.restrict(rows)
        kept_rows = sorted(set(rows.tolist()))
        kept = [e for e in range(src.shape[0]) if dst[e] in kept_rows]
        by_row = sorted(kept, key=lambda e: (dst[e], e))  # pattern order
        columns = sorted(set(src[kept].tolist()) | set(kept_rows))
        column_of = {node: column for column, node in enumerate(columns)}
        assert layout.pattern.shape == (len(kept_rows), len(columns))
        assert layout.columns.tolist() == columns
        assert layout.row_columns.tolist() == [column_of[r]
                                               for r in kept_rows]
        assert layout.order.tolist() == by_row
        assert layout.src.tolist() == [column_of[src[e]] for e in kept]
        assert layout.etype.tolist() == etype[kept].tolist()
        assert layout.etype_sorted.tolist() == etype[by_row].tolist()
        assert layout.order[layout.inverse].tolist() == kept
        assert np.array_equal(layout.entries, full.inverse[by_row])
        counts = [int(np.sum(dst[kept] == r)) for r in kept_rows]
        assert layout.counts.tolist() == counts
        assert layout.filled.tolist() == [c > 0 for c in counts]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        assert layout.pattern.indptr.tolist() == indptr.tolist()
        assert layout.pattern.indices.tolist() == [column_of[src[e]]
                                                   for e in by_row]
        assert layout.starts.tolist() == [indptr[i] for i, c
                                          in enumerate(counts) if c > 0]
        assert layout.num_edges == full.num_edges == src.shape[0]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_csr_attention_on_a_restricted_layout(self, dtype):
        src, dst, etype, n = _random_topology(4)
        full = AttentionLayout.build(src, dst, etype, n)
        layout = full.restrict(np.array([3, 17, 4, 25]))
        rows = layout.columns[layout.row_columns]
        entries = layout.entries
        rng = np.random.default_rng(9)
        data = [rng.standard_normal(shape).astype(dtype)
                for shape in ((n, 2), (n, 2), (4, 2), (src.shape[0], 2))]
        weight = rng.standard_normal((src.shape[0], 2)).astype(dtype)
        weight[np.setdiff1d(np.arange(src.shape[0]), entries)] = 0
        # per input, the rows a compact pass holds
        compact = (layout.columns, rows, np.arange(4), entries)

        def run(layout, takes):
            leaves = [Tensor(array[take].copy(), requires_grad=True)
                      for array, take in zip(data, takes)]
            set_seed(8)
            alpha = csr_attention(*leaves[:3], layout, 0.05,
                                  alpha_prev=leaves[3], beta=0.05,
                                  dropout_p=0.3, training=True)
            (alpha * Tensor(weight[takes[3]])).sum().backward()
            return (alpha.data, [leaf.grad for leaf in leaves],
                    get_rng().bit_generator.state)

        with set_default_dtype(dtype), fused_kernels(True):
            everything = tuple(np.arange(len(a)) for a in data)
            want = run(full, everything)
            got = run(layout, compact)
        assert got[0].tobytes() == want[0][entries].tobytes()
        for got_grad, want_grad, take in zip(got[1], want[1], compact):
            assert got_grad.tobytes() == want_grad[take].tobytes()
            rest = np.setdiff1d(np.arange(want_grad.shape[0]), take)
            assert not want_grad[rest].any()
        assert got[2] == want[2]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_weighted_spmm_on_a_restricted_layout(self, dtype):
        src, dst, etype, n = _random_topology(5)
        full = AttentionLayout.build(src, dst, etype, n)
        layout = full.restrict(_random_rows(5, n))
        rows = layout.columns[layout.row_columns]
        rng = np.random.default_rng(3)
        values = rng.standard_normal((src.shape[0], 2)).astype(dtype)
        x = rng.standard_normal((n, 2, 3)).astype(dtype)
        weight = np.zeros((n, 2, 3), dtype=dtype)
        weight[rows] = rng.standard_normal((rows.shape[0], 2, 3))

        def run(pattern, value_rows, x_rows, out_rows):
            leaves = (Tensor(values[value_rows].copy(), requires_grad=True),
                      Tensor(x[x_rows].copy(), requires_grad=True))
            out = weighted_spmm(pattern, *leaves)
            (out * Tensor(weight[out_rows])).sum().backward()
            return out.data, leaves[0].grad, leaves[1].grad

        everything = np.arange(n)
        with set_default_dtype(dtype):
            want = run(full.pattern, np.arange(src.shape[0]), everything,
                       everything)
            got = run(layout.pattern, layout.entries, layout.columns, rows)
        assert got[0].tobytes() == want[0][rows].tobytes()
        assert got[1].tobytes() == want[1][layout.entries].tobytes()
        assert got[2].tobytes() == want[2][layout.columns].tobytes()


class TestRowDrawnDropout:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_kept_rows_of_the_full_mask(self, dtype):
        x = np.random.default_rng(1).standard_normal((20, 3)).astype(dtype)
        rows = np.array([4, 0, 13, 19])
        weight = np.random.default_rng(2).standard_normal((4, 3)).astype(dtype)

        def run(restricted):
            leaf = Tensor(x.copy(), requires_grad=True)
            set_seed(4)
            out = (dropout(leaf[rows], 0.4, rows=rows, num_rows=20)
                   if restricted else dropout(leaf, 0.4)[rows])
            (out * Tensor(weight)).sum().backward()
            return out.data, leaf.grad, get_rng().bit_generator.state

        with set_default_dtype(dtype):
            got, want = run(True), run(False)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
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
        _assert_close(got[0], want[0])
        for got_grad, want_grad in zip(got[1], want[1]):
            _assert_close(got_grad, want_grad)

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
            _assert_close(loss.data, old.data)
            for indices in (imdb_tiny.split.val, imdb_tiny.split.test):
                model.eval()
                features.eval()
                with no_grad():
                    full = model(features()).data
                model.train()
                features.train()
                assert np.array_equal(trainer._predict(indices),
                                      np.argmax(full, axis=-1)[indices])
