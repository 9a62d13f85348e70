"""``merge_snapshots`` across REAL process boundaries (fork + spawn).

The in-process tests (``tests/test_telemetry.py``) prove that merging
thread shards equals a single registry.  Snapshots are meant to cross
process boundaries too (e.g. over pipes from worker processes), so
these tests pin the full journey: registry → ``snapshot()`` → JSON → process boundary →
``merge_snapshots`` — including histogram-bucket addition, label-set
union across shards, and both gauge aggregations — under both the
``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

import _telemetry_mp_helpers as helpers
from repro.telemetry import merge_snapshots

NUM_SHARDS = 3

START_METHODS = [
    pytest.param(method, marks=() if method
                 in multiprocessing.get_all_start_methods()
                 else pytest.mark.skip(f"no {method} start method"))
    for method in ("fork", "spawn")
]


def _collect_shards(method: str):
    """Run NUM_SHARDS child processes; return snapshots in shard order."""
    ctx = multiprocessing.get_context(method)
    queue = ctx.Queue()
    procs = [ctx.Process(target=helpers.emit_snapshot, args=(queue, index))
             for index in range(NUM_SHARDS)]
    for proc in procs:
        proc.start()
    payloads = [json.loads(queue.get(timeout=120))
                for _ in range(NUM_SHARDS)]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0
    payloads.sort(key=lambda entry: entry["shard"])
    return [entry["snapshot"] for entry in payloads]


@pytest.mark.parametrize("method", START_METHODS)
class TestAcrossProcessBoundaries:
    def test_snapshot_survives_the_process_boundary_intact(self, method):
        shards = _collect_shards(method)
        expected = [helpers.build_shard_registry(index).snapshot()
                    for index in range(NUM_SHARDS)]
        assert shards == expected

    def test_merge_equals_in_process_merge(self, method):
        shards = _collect_shards(method)
        in_process = [helpers.build_shard_registry(index).snapshot()
                      for index in range(NUM_SHARDS)]
        assert merge_snapshots(shards) == merge_snapshots(in_process)

    def test_counter_labels_union_and_sum(self, method):
        merged = merge_snapshots(_collect_shards(method))
        samples = merged["mp_events_total"]["samples"]
        # overlapping label value: contributions add across processes
        assert samples[json.dumps(["shared"])] == sum(
            index + 1 for index in range(NUM_SHARDS))
        # disjoint label values: every shard's private label survives
        for index in range(NUM_SHARDS):
            assert samples[json.dumps([f"only_{index}"])] == 2

    def test_histogram_buckets_add_elementwise(self, method):
        merged = merge_snapshots(_collect_shards(method))
        entry = merged["mp_latency_seconds"]
        assert entry["buckets"] == list(helpers.BUCKETS)
        bounds = list(helpers.BUCKETS)
        for route in helpers.ROUTES:
            wanted = [0] * (len(bounds) + 1)
            total = 0.0
            count = 0
            for index in range(NUM_SHARDS):
                for value, value_route in helpers.shard_observations(index):
                    if value_route != route:
                        continue
                    count += 1
                    total += value
                    slot = next((i for i, bound in enumerate(bounds)
                                 if value <= bound), len(bounds))
                    wanted[slot] += 1
            sample = entry["samples"][json.dumps([route])]
            assert sample["counts"] == wanted
            assert sample["count"] == count
            assert sample["sum"] == pytest.approx(total)

    def test_gauge_aggregations(self, method):
        merged = merge_snapshots(_collect_shards(method))
        max_samples = merged["mp_depth_max"]["samples"]
        assert max_samples[json.dumps([])] == max(
            index * 3 for index in range(NUM_SHARDS))
        sum_samples = merged["mp_inflight"]["samples"]
        assert sum_samples[json.dumps([])] == sum(
            index + 1 for index in range(NUM_SHARDS))
