"""The ``repro.perf`` layer: runtime profiles, fused kernels, profiler,
and the completion ops' kept outputs in the search loop.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.perf import (
    Profiler,
    current_profile,
    get_profile,
    profile_names,
    runtime_profile,
)
from repro.tensor import (
    Tensor,
    addmm,
    cross_entropy,
    fused_kernels,
    fused_kernels_enabled,
    get_default_dtype,
    head_dot,
    segment_softmax,
)
from repro.perf.profiler import OpStat
from repro.tensor.tensor import scatter_sum
from repro.training import MiniBatchConfig


def _t(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape),
                  requires_grad=True)


# ----------------------------------------------------------------------
# runtime profiles
# ----------------------------------------------------------------------
class TestRuntimeProfiles:
    def test_registry(self):
        assert set(profile_names()) == {"reference", "fast"}
        assert get_profile("fast").dtype == np.float32
        with pytest.raises(KeyError):
            get_profile("warp")

    def test_reference_is_default(self):
        assert current_profile().name == "reference"
        assert get_default_dtype() == np.float64
        assert not fused_kernels_enabled()

    def test_fast_profile_applies_and_restores(self):
        with runtime_profile("fast") as active:
            assert active.name == "fast"
            assert current_profile().name == "fast"
            assert get_default_dtype() == np.float32
            assert fused_kernels_enabled()
            assert Tensor([1.0]).dtype == np.float32
        assert current_profile().name == "reference"
        assert get_default_dtype() == np.float64
        assert not fused_kernels_enabled()

    def test_nested_profiles_restore_in_order(self):
        with runtime_profile("fast"):
            with runtime_profile("reference"):
                assert get_default_dtype() == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_exit_restores_manual_engine_state_not_profile_defaults(self):
        from repro.tensor import set_fused_kernels
        # engine flags set manually, outside any named profile
        set_fused_kernels(True)
        try:
            with runtime_profile("reference"):
                assert not fused_kernels_enabled()
            assert fused_kernels_enabled()  # manual setting survives
        finally:
            set_fused_kernels(False)


# ----------------------------------------------------------------------
# fused kernels match the composites
# ----------------------------------------------------------------------
class TestFusedEquivalence:
    def test_cross_entropy_forward_bit_identical(self):
        logits = np.random.default_rng(0).normal(size=(9, 5))
        targets = np.random.default_rng(1).integers(0, 5, size=9)
        for reduction in ("mean", "sum", "none"):
            composite = cross_entropy(Tensor(logits), targets,
                                      reduction=reduction)
            with fused_kernels():
                fused = cross_entropy(Tensor(logits), targets,
                                      reduction=reduction)
            np.testing.assert_array_equal(composite.data, fused.data)

    def test_addmm_bit_identical(self):
        x, w, b = _t((6, 4)), _t((4, 3), seed=1), _t((3,), seed=2)
        composite = addmm(x, w, b)
        with fused_kernels():
            fused = addmm(x, w, b)
        np.testing.assert_array_equal(composite.data, fused.data)

    def test_addmm_fused_is_one_node(self):
        x, w, b = _t((6, 4)), _t((4, 3), seed=1), _t((3,), seed=2)
        with fused_kernels():
            out = addmm(x, w, b)
        assert out._parents == (x, w, b)

    def test_segment_softmax_matches(self):
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        scores = _t((7, 3))
        composite = segment_softmax(scores, seg, 3)
        with fused_kernels():
            fused = segment_softmax(_t((7, 3)), seg, 3)
        np.testing.assert_allclose(composite.data, fused.data,
                                   rtol=1e-12, atol=1e-14)

    def test_head_dot_matches_composite(self):
        x, vec = _t((5, 3, 4)), _t((3, 4), seed=1)
        composite = (x * vec).sum(axis=-1)
        with fused_kernels():
            fused = head_dot(x, vec)
        np.testing.assert_allclose(composite.data, fused.data,
                                   rtol=1e-12, atol=1e-14)


# ----------------------------------------------------------------------
# scatter_sum: np.add.at into zeros, byte for byte
# ----------------------------------------------------------------------
def _add_at(values, index, shape, dtype=None):
    out = np.zeros(shape, dtype=values.dtype if dtype is None else dtype)
    np.add.at(out, index, values)
    return out


def _same_bits(a, b):
    """Byte-equal arrays, NaNs compared as NaNs: when two NaNs meet, IEEE
    754 leaves the sign of the sum open, and numpy's own 1-D and N-D
    ``np.add.at`` loops keep different ones."""
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    canonical = [np.where(np.isnan(x), np.nan, x).astype(x.dtype)
                 for x in (a, b)]
    assert canonical[0].tobytes() == canonical[1].tobytes()


#: index kinds, each drawn for ``n`` output rows
_SCATTER_INDICES = {
    "repeated": lambda rng, n: rng.integers(0, n, size=8 * n),
    "unsorted_unique": lambda rng, n: rng.permutation(n),
    "sorted": lambda rng, n: np.sort(rng.integers(0, n, size=3 * n)),
    "empty": lambda rng, n: np.zeros(0, dtype=np.int64),
    "single": lambda rng, n: np.array([n - 1]),
    "fewer_than_rows": lambda rng, n: rng.integers(0, n, size=n // 3),
}


class TestScatterSum:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_bitwise_add_at(self, dtype):
        # every width and index kind forms np.add.at's sums in the values'
        # own dtype, specials included; a float64 accumulator rounds
        # float32 sums differently and fails here
        rng = np.random.default_rng(7)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, tiny,
                             -3 * tiny], dtype=dtype)
        for kind, draw in _SCATTER_INDICES.items():
            for trailing in ((), (1,), (4,), (4, 5), (64,)):
                for trial in range(3):
                    n = 30
                    index = draw(rng, n)
                    values = (rng.normal(size=index.shape + trailing)
                              * 10.0 ** rng.integers(-3, 4)).astype(dtype)
                    flat = values.reshape(-1)
                    if trial and flat.size:
                        hit = rng.integers(0, flat.size,
                                           size=max(1, flat.size // 8))
                        flat[hit] = rng.choice(specials, size=hit.size)
                    shape = (n,) + trailing
                    with np.errstate(invalid="ignore", over="ignore"):
                        expected = _add_at(values, index, shape)
                        got = scatter_sum(values, index, shape)
                    _same_bits(got, expected)

    def test_sums_start_from_positive_zero(self):
        values = np.full((4, 3), -0.0)
        got = scatter_sum(values, np.array([0, 0, 2, 2]), (3, 3))
        assert not np.signbit(got).any()

    def test_negative_indices_wrap(self):
        rng = np.random.default_rng(1)
        index = rng.integers(-50, 50, size=400)
        for trailing in ((), (3,), (4, 5)):
            values = rng.normal(size=(400,) + trailing)
            shape = (50,) + trailing
            _same_bits(scatter_sum(values, index, shape),
                       _add_at(values, index, shape))

    def test_masks_slices_and_tuples(self):
        values = np.arange(12.0).reshape(4, 3)
        mask = np.array([True, False, True, True, False, True])
        for index, part in ((mask, values),
                            (slice(1, 5), values),
                            ((np.array([0, 2, 2]), np.array([1, 0, 1])),
                             values[:3, 0])):
            _same_bits(scatter_sum(part, index, (6, 3)),
                       _add_at(part, index, (6, 3)))

    def test_broadcastable_values_take_add_at(self):
        # np.add.at broadcasts values against out[index]
        index = np.array([0, 1, 1, 2])
        values = np.ones((4, 1))
        _same_bits(scatter_sum(values, index, (3, 5)),
                   _add_at(values, index, (3, 5)))

    def test_dtype_mismatch_casts_like_add_at(self):
        index = np.array([0, 1, 1, 2])
        values = np.random.default_rng(2).normal(size=(4, 3))
        got = scatter_sum(values, index, (3, 3), np.float32)
        _same_bits(got, _add_at(values, index, (3, 3), np.float32))

    def test_out_of_range_raises_index_error(self):
        values = np.ones((3, 2))
        for index in (np.array([0, 1, 10]), np.array([0, -11, 1])):
            with pytest.raises(IndexError):
                scatter_sum(values, index, (10, 2))


# ----------------------------------------------------------------------
# op-level profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_records_calls_time_and_bytes(self):
        with Profiler() as prof:
            a, b = _t((64, 64)), _t((64, 64), seed=1)
            (a @ b).sum().backward()
        report = prof.report()
        stats = {s.name: s for s in report.stats}
        assert stats["matmul"].calls == 1
        assert stats["matmul"].bytes_allocated == 64 * 64 * 8
        assert stats["matmul"].seconds >= 0.0
        assert "matmul.backward" in stats
        assert "tensor_sum" in stats

    def test_no_overhead_hook_removed_after_exit(self):
        from repro.tensor import _profile
        with Profiler():
            pass
        assert _profile.get_hook() is None

    def test_not_reentrant(self):
        prof = Profiler()
        with prof:
            with pytest.raises(RuntimeError):
                prof.__enter__()

    def test_nested_profilers_and_spans_see_every_op(self):
        from repro.telemetry import EventSink, Tracer
        from repro.tensor import _profile

        tracer = Tracer(EventSink(io.StringIO()))
        with Profiler() as outer:
            _t((4,)) * 2.0
            with tracer.span("work", capture_ops=True) as span:
                with Profiler() as inner:
                    (_t((8, 8)) @ _t((8, 8), seed=1)).sum().backward()
        assert _profile.get_hook() is None
        inner_calls = {s.name: s.calls for s in inner.report().stats}
        outer_calls = {s.name: s.calls for s in outer.report().stats}
        span_calls = {name: op["calls"]
                      for name, op in span.attrs["ops"].items()}
        assert inner_calls == span_calls
        assert inner_calls["matmul"] == outer_calls["matmul"] == 1
        assert outer_calls["mul"] == 1 and "mul" not in inner_calls

    def test_render_table(self):
        with Profiler() as prof:
            (_t((8, 8)) @ _t((8, 8), seed=1)).sum().backward()
        table = prof.report().render()
        assert "op" in table and "calls" in table and "total ms" in table
        assert "matmul" in table

    def test_report_rows_machine_readable(self):
        with Profiler() as prof:
            (_t((4,)) * 2.0).sum().backward()
        rows = prof.report().as_rows()
        assert all({"op", "calls", "total_ms", "bytes"} <= set(row)
                   for row in rows)

    def test_profiling_off_is_default(self):
        from repro.tensor import _profile
        assert _profile.get_hook() is None

    def test_identity_ops_do_not_steal_upstream_backward(self):
        from repro.tensor import dropout
        with Profiler() as prof:
            x = _t((8, 4))
            y = x * 2.0
            dropout(y, 0.0, training=True).sum().backward()  # identity
        stats = {s.name for s in prof.report().stats}
        assert "dropout" in stats           # the call itself is counted
        assert "dropout.backward" not in stats
        assert "mul.backward" in stats      # upstream label preserved


    @staticmethod
    def _fault_pages(count: int = 2048) -> None:
        """Touch ``count`` fresh pages: 1 MiB anonymous maps (too small
        for a huge page), each written through once and unmapped."""
        import mmap

        for _ in range(count * mmap.PAGESIZE >> 20):
            with mmap.mmap(-1, 1 << 20) as pages:
                pages.write(b"x" * (1 << 20))

    def test_counts_page_faults_and_system_time(self):
        with Profiler() as prof:
            self._fault_pages()
        report = prof.report()
        assert report.minor_faults >= 1000
        assert report.system_seconds >= 0.0
        assert prof.report().minor_faults == report.minor_faults  # closed
        payload = report.to_json()
        assert payload["minor_faults"] == report.minor_faults
        assert payload["system_seconds"] == report.system_seconds
        footer = report.render().splitlines()[-1]
        assert footer.startswith("minor page faults")
        assert f"{report.minor_faults:,}" in footer
        # per-op stats keep their shape
        assert all(isinstance(stat, OpStat) for stat in report.stats)

    def test_open_session_reports_faults_so_far(self):
        prof = Profiler().__enter__()
        try:
            self._fault_pages()
            assert prof.report().minor_faults >= 1000
            prof.reset()
            assert prof.report().minor_faults < 1000
        finally:
            prof.__exit__(None, None, None)


class TestRetainedHeap:
    """Importing the engine keeps freed temporaries on the heap."""

    CHURN = """
import resource
import numpy as np
{setup}
def churn():
    # a step's five temporaries of 0.2-1.1 MB: live together, then freed
    arrays = [np.ones(size // 8)
              for size in (200_000, 450_000, 700_000, 900_000, 1_100_000)]
    del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    @staticmethod
    def _faults(setup: str) -> int:
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", TestRetainedHeap.CHURN.format(setup=setup)],
            capture_output=True, text=True, check=True)
        return int(out.stdout.strip())

    @pytest.mark.skipif(not hasattr(__import__("ctypes").CDLL(None), "mallopt"),
                        reason="the C library exports no mallopt")
    def test_engine_import_stops_fault_churn(self):
        assert self._faults("import repro.tensor") < 1000

    def test_retain_heap_reports_whether_it_applied(self):
        import ctypes

        from repro.tensor._heap import retain_heap
        assert retain_heap() == hasattr(ctypes.CDLL(None), "mallopt")


# ----------------------------------------------------------------------
# search-loop candidates: the completion ops' kept outputs
# ----------------------------------------------------------------------
#: searches whose runs with and without kept op outputs must agree bit
#: for bit: (dataset, backbone, runtime profile, AutoACConfig overrides)
CACHE_CASES = {
    "imdb-reference": ("imdb", "simple_hgn", "reference", {}),
    "imdb-fast": ("imdb", "simple_hgn", "fast", {}),
    "dblp-magnn": ("dblp", "magnn", "reference", {}),
    "acm-em_warmup": ("acm", "simple_hgn", "reference",
                      {"cluster_method": "em_warmup", "em_warmup": 2}),
    "imdb-gat-mixture": ("imdb", "gat", "reference",
                         {"discrete": False, "unrolled": False}),
    "imdb-minibatch": ("imdb", "simple_hgn", "reference",
                       {"minibatch": MiniBatchConfig(batch_size=16,
                                                     fanout=4)}),
    "lastfm-link": ("lastfm", "gcn", "reference", {}),
    "imdb-unrolled": ("imdb", "simple_hgn", "reference",
                      {"discrete": False, "unrolled": True}),
}


class TestCandidateCache:
    """The search's candidates are the completion ops' and projections'
    kept outputs (``ConstantProduct``), reused while their parameters
    keep their bits."""

    @staticmethod
    def _searcher(dataset_name="imdb", model="simple_hgn",
                  claim_score=True, **cfg_kwargs):
        """A 5-epoch tiny search; ``claim_score=False`` makes its adapter
        not claim ``score == -val_loss``, so nothing is kept."""
        from repro.core import AutoACConfig
        from repro.core.adapters import (LinkPredictionAdapter,
                                         NodeClassificationAdapter)
        from repro.core.search import AutoACSearcher
        from repro.datasets import get_dataset
        from repro.training import LinkPredictionTask, set_seed

        set_seed(0)
        # a fresh dataset per search, in the active profile's dtype
        dataset = get_dataset(dataset_name, scale="tiny", seed=0,
                              use_cache=False)
        if dataset_name == "lastfm":
            adapter = LinkPredictionAdapter(
                LinkPredictionTask(dataset, mask_rate=0.1, seed=0))
        else:
            adapter = NodeClassificationAdapter(dataset)
        if not claim_score:
            adapter.score_is_neg_val_loss = False
        config = AutoACConfig(search_epochs=5, patience=50, warmup_epochs=1,
                              **cfg_kwargs)
        return AutoACSearcher(adapter, model, config, seed=0)

    @pytest.mark.parametrize("case", list(CACHE_CASES))
    def test_cache_is_bitwise_identical_to_uncached(self, case,
                                                    memo_lookups):
        """Reusing kept op outputs gives the search a run in which every
        lookup misses (and so recomputes) gives."""
        dataset_name, model, profile, cfg_kwargs = CACHE_CASES[case]
        results = []
        for miss in (True, False):
            with runtime_profile(profile):
                outcomes = memo_lookups(miss=miss)
                searcher = self._searcher(dataset_name, model,
                                          **cfg_kwargs)
                results.append(searcher.search())
            assert outcomes and any(outcomes) != miss
        uncached, cached = results
        for name in ("alpha", "assignment", "cluster_labels"):
            assert np.array_equal(getattr(uncached, name),
                                  getattr(cached, name)), name
        assert uncached.history == cached.history
        assert uncached.best_val_score == cached.best_val_score

    @pytest.mark.parametrize("case", list(CACHE_CASES))
    def test_kept_validation_graph_is_bitwise_identical(self, case):
        """Backpropagating the kept validation forward gives the search
        a control that runs a fresh upper-step forward gives."""
        dataset_name, model, profile, cfg_kwargs = CACHE_CASES[case]
        results = []
        for claim in (False, True):
            with runtime_profile(profile):
                searcher = self._searcher(dataset_name, model,
                                          claim_score=claim, **cfg_kwargs)
                keeps = (claim and searcher.config.discrete
                         and dataset_name != "lastfm")
                assert searcher._reuse_val_forward == keeps
                results.append(searcher.search())
        control, kept = results
        for name in ("alpha", "assignment", "cluster_labels"):
            assert np.array_equal(getattr(control, name),
                                  getattr(kept, name)), name
        assert control.history == kept.history
        assert control.best_val_score == kept.best_val_score

    @pytest.mark.parametrize("profile, passes", [("fast", 1),
                                                 ("reference", 2)])
    def test_lower_step_builder_passes(self, profile, passes, monkeypatch):
        """Under the fused kernels the loss and the cluster head share
        one builder pass; ``reference`` keeps its second pass."""
        from repro.completion import WeightedCompletionFeatures

        calls = []
        forward = WeightedCompletionFeatures.forward

        def spy_forward(features, *args, **kwargs):
            calls.append(args + tuple(kwargs.values()))  # no view
            return forward(features, *args, **kwargs)

        with runtime_profile(profile):
            searcher = self._searcher()
            assert searcher.cluster_head is not None
            monkeypatch.setattr(WeightedCompletionFeatures, "forward",
                                spy_forward)
            searcher._lower_step()
        assert calls == [()] * passes

    @staticmethod
    def _op():
        from repro.completion import MeanCompletion
        from repro.datasets import get_dataset

        return MeanCompletion(get_dataset("imdb", scale="tiny", seed=0), 8)

    @staticmethod
    def _assert_recomputed(op, kept):
        """``op()`` misses: a new value, ``base @ W`` at the current bits."""
        value = op().data
        assert value is not kept
        assert value.tobytes() == np.matmul(op._base,
                                            op.weight.data).tobytes()
        return value

    def test_memo_hits_only_on_equal_bits(self):
        from repro.tensor import Adam

        op = self._op()
        kept = op().data
        assert op().data is kept
        op.weight.data = op.weight.data.copy()  # a new array, equal bits
        assert op().data is kept
        # Adam writes the step into the same array
        data = op.weight.data
        optimizer = Adam([op.weight], lr=0.01)
        op().sum().backward()
        optimizer.step()
        assert op.weight.data is data
        kept = self._assert_recomputed(op, kept)
        assert op().data is kept
        op.weight.data = op.weight.data * 0.5  # the unrolled step's route
        kept = self._assert_recomputed(op, kept)
        op.weight.data[0, 0] = np.nan
        kept = self._assert_recomputed(op, kept)
        op.weight.data[0, 0] = 0.0
        kept = self._assert_recomputed(op, kept)
        op.weight.data[0, 0] = -0.0  # equal to 0.0, not the same bits
        self._assert_recomputed(op, kept)

    def test_memo_misses_after_restore_best(self):
        from repro.training.early_stopping import EarlyStopping

        op = self._op()
        stopper = EarlyStopping(patience=2, modules=[op])
        best = op().data
        stopper.step(1.0, epoch=0)
        op.weight.data += 1.0
        stepped = self._assert_recomputed(op, best)
        stopper.restore_best()
        restored = self._assert_recomputed(op, stepped)
        assert restored.tobytes() == best.tobytes()

    def test_rigged_projector_respects_frozen_parameters(self, memo_lookups):
        from repro.completion import WeightedCompletionFeatures
        from repro.datasets import get_dataset
        from repro.tensor import Tensor

        dataset = get_dataset("imdb", scale="tiny", seed=0)
        features = WeightedCompletionFeatures(dataset, 8)
        linear = features.projector.projections[dataset.attributed_types[0]]
        linear.weight.requires_grad = False
        num_missing = dataset.missing_global_ids.shape[0]
        weights = np.zeros((num_missing, len(features.space)))
        weights[:, 0] = 1.0
        features.set_weights(Tensor(weights))
        features.refresh_candidates()
        outcomes = memo_lookups()
        features().sum().backward()
        assert outcomes and all(outcomes)  # kept outputs only
        # the frozen projection weight gets no grad, matching the live path
        assert linear.weight.grad is None
        assert linear.bias.grad is not None


# ----------------------------------------------------------------------
# pipeline + CLI hooks
# ----------------------------------------------------------------------
class TestProfilingHooks:
    def test_run_autoac_profile_attaches_report(self):
        from repro.core import AutoACConfig, run_autoac
        from repro.datasets import get_dataset
        from repro.training import TrainConfig, set_seed

        set_seed(0)
        dataset = get_dataset("imdb", scale="tiny", seed=0)
        config = AutoACConfig(search_epochs=2, patience=10, warmup_epochs=1,
                              retrain=TrainConfig(epochs=2, patience=5))
        result = run_autoac(dataset, "simple_hgn", config, profile=True)
        assert result.profile is not None
        assert result.profile.total_calls > 0
        assert "matmul" in {s.name for s in result.profile.stats}

    def test_run_autoac_without_profile_has_none(self):
        from repro.core import AutoACConfig, run_autoac
        from repro.datasets import get_dataset
        from repro.training import TrainConfig, set_seed

        set_seed(0)
        dataset = get_dataset("imdb", scale="tiny", seed=0)
        config = AutoACConfig(search_epochs=2, patience=10, warmup_epochs=1,
                              retrain=TrainConfig(epochs=2, patience=5))
        assert run_autoac(dataset, "simple_hgn", config).profile is None

    def test_cli_profile_prints_table(self, capsys):
        from repro.cli import main

        code = main(["profile", "--dataset", "imdb", "--scale", "tiny",
                     "--epochs", "2", "--runtime", "fast", "--top", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "runtime profile: fast" in out
        assert "total ms" in out
