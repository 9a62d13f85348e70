"""The ``repro.perf`` layer: runtime profiles, fused kernels, profiler,
and the search-loop candidate cache.
"""

from __future__ import annotations

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
    attention_aggregate,
    cross_entropy,
    fused_kernels,
    fused_kernels_enabled,
    gather_rows,
    get_default_dtype,
    head_dot,
    scatter_add,
    segment_softmax,
)
from repro.tensor.tensor import scatter_accumulate


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

    def test_attention_aggregate_matches_composite(self):
        src = np.array([0, 1, 2, 3, 0, 2])
        dst = np.array([1, 1, 2, 0, 3, 3])
        alpha, x = _t((6, 2)), _t((4, 2, 5), seed=1)
        messages = gather_rows(x, src) * alpha.reshape(-1, 2, 1)
        composite = scatter_add(messages, dst, 4)
        with fused_kernels():
            fused = attention_aggregate(alpha, x, src, dst, 4)
        np.testing.assert_allclose(composite.data, fused.data,
                                   rtol=1e-12, atol=1e-14)

    def test_head_dot_matches_composite(self):
        x, vec = _t((5, 3, 4)), _t((3, 4), seed=1)
        composite = (x * vec).sum(axis=-1)
        with fused_kernels():
            fused = head_dot(x, vec)
        np.testing.assert_allclose(composite.data, fused.data,
                                   rtol=1e-12, atol=1e-14)

    def test_scatter_accumulate_fast_path_matches_add_at(self):
        rng = np.random.default_rng(0)
        index = rng.integers(0, 50, size=400)
        for trailing in ((), (3,), (4, 5)):  # 1-D, narrow, wide
            grad = rng.normal(size=(400,) + trailing)
            reference = np.zeros((50,) + trailing)
            np.add.at(reference, index, grad)
            fast = np.zeros((50,) + trailing)
            with fused_kernels():
                scatter_accumulate(fast, index, grad)
            np.testing.assert_allclose(reference, fast, rtol=1e-10,
                                       atol=1e-12)

    def test_scatter_accumulate_broadcastable_grad_falls_back(self):
        # np.add.at broadcasts grad against out[index]; the fast path must
        # not crash on those shapes — it falls back to the reference
        index = np.array([0, 1, 1, 2])
        grad = np.ones((4, 1))
        reference = np.zeros((3, 5))
        np.add.at(reference, index, grad)
        fast = np.zeros((3, 5))
        with fused_kernels():
            scatter_accumulate(fast, index, grad)
        np.testing.assert_array_equal(reference, fast)

    def test_scatter_accumulate_reference_is_bitwise_add_at(self):
        # the unfused bincount route must form np.add.at's exact sums,
        # signed zeros included; a non-zero or short target, too few
        # entries or an out-of-range index go through np.add.at itself
        rng = np.random.default_rng(1)
        index = rng.integers(0, 50, size=400)
        for trailing in ((), (3,), (4, 5), (1, 6)):
            grad = rng.normal(size=(400,) + trailing)
            grad[::7] = 0.0
            grad[::11] = -0.0
            for start in (0.0, -0.0, 1.5):
                reference = np.full((50,) + trailing, start)
                np.add.at(reference, index, grad)
                out = np.full((50,) + trailing, start)
                scatter_accumulate(out, index, grad)
                assert out.tobytes() == reference.tobytes()
        short = np.zeros((500, 3))
        reference = short.copy()
        grad = rng.normal(size=(400, 3))
        np.add.at(reference, index, grad)
        scatter_accumulate(short, index, grad)
        assert short.tobytes() == reference.tobytes()
        with pytest.raises(IndexError):
            scatter_accumulate(np.zeros((10, 3)), index, grad)


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


# ----------------------------------------------------------------------
# search-loop candidate cache
# ----------------------------------------------------------------------
class TestCandidateCache:
    @staticmethod
    def _search(candidate_cache, **cfg_kwargs):
        from repro.core import AutoACConfig
        from repro.core.adapters import NodeClassificationAdapter
        from repro.core.search import AutoACSearcher
        from repro.datasets import get_dataset
        from repro.training import set_seed

        set_seed(0)
        dataset = get_dataset("imdb", scale="tiny", seed=0)
        config = AutoACConfig(search_epochs=5, patience=50, warmup_epochs=1,
                              candidate_cache=candidate_cache, **cfg_kwargs)
        searcher = AutoACSearcher(NodeClassificationAdapter(dataset),
                                  "simple_hgn", config, seed=0)
        return searcher, searcher.search()

    def test_cache_is_bitwise_identical_to_uncached(self):
        _, uncached = self._search(False)
        _, cached = self._search(True)
        for key in uncached.history:
            assert uncached.history[key] == cached.history[key], key
        assert np.array_equal(uncached.assignment, cached.assignment)
        assert uncached.best_val_score == cached.best_val_score

    def test_cache_disabled_for_unrolled_mixture(self):
        searcher, _ = self._search(True, discrete=False, unrolled=True)
        assert not searcher.use_candidate_cache

    def test_cache_follows_runtime_profile_when_unset(self):
        from repro.core import AutoACConfig
        from repro.core.adapters import NodeClassificationAdapter
        from repro.core.search import AutoACSearcher
        from repro.datasets import get_dataset

        dataset = get_dataset("imdb", scale="tiny", seed=0)
        adapter = NodeClassificationAdapter(dataset)
        assert not AutoACSearcher(adapter, "simple_hgn",
                                  AutoACConfig()).use_candidate_cache
        with runtime_profile("fast"):
            dataset_fast = get_dataset("imdb", scale="tiny", seed=1)
            adapter_fast = NodeClassificationAdapter(dataset_fast)
            assert AutoACSearcher(adapter_fast, "simple_hgn",
                                  AutoACConfig()).use_candidate_cache

    def test_rigged_projector_respects_frozen_parameters(self):
        from repro.completion import WeightedCompletionFeatures
        from repro.datasets import get_dataset
        from repro.tensor import Tensor

        dataset = get_dataset("imdb", scale="tiny", seed=0)
        features = WeightedCompletionFeatures(dataset, 8)
        frozen = features.projector.projections[
            dataset.attributed_types[0]].weight
        frozen.requires_grad = False
        num_missing = dataset.missing_global_ids.shape[0]
        weights = np.zeros((num_missing, len(features.space)))
        weights[:, 0] = 1.0
        features.set_weights(Tensor(weights))
        features.refresh_candidates()
        with features.candidate_mode("rigged"):
            features().sum().backward()
        # the frozen projection weight gets no grad, matching the live path
        assert frozen.grad is None
        live = [p for p in features.projector.parameters()
                if p.requires_grad]
        assert any(p.grad is not None for p in live)

    def test_snapshot_invalidated_after_search_step(self):
        searcher, _ = self._search(True)
        # search ends right after a validation pass, which repopulates
        assert searcher.features.has_candidates()
        searcher.features.invalidate_candidates()
        assert not searcher.features.has_candidates()


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
