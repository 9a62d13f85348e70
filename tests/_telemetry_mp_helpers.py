"""Worker functions for ``tests/test_telemetry_multiprocess.py``.

Kept at module level in an importable module (not inside a test class)
so multiprocessing's *spawn* start method can re-import them by name in
a fresh interpreter; the *fork* start method inherits them either way.
"""

from __future__ import annotations

import json

#: deliberately tiny bucket ladder so the deterministic observations
#: below land in several different buckets (including the +Inf tail)
BUCKETS = (0.005, 0.05, 0.5)

ROUTES = ("predict", "onboard")

OBSERVATIONS_PER_SHARD = 10


def shard_observations(shard_index: int):
    """Deterministic per-shard ``(value, route)`` observations."""
    return [((shard_index + 1) * (step + 1) / 20.0, ROUTES[step % 2])
            for step in range(OBSERVATIONS_PER_SHARD)]


def build_shard_registry(shard_index: int):
    """One worker's private registry with deterministic traffic.

    Exercises all three instrument kinds, overlapping AND disjoint label
    values across shards, and both gauge aggregations (sum, max).
    """
    from repro.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    events = registry.counter("mp_events_total", "events", labels=("kind",))
    latency = registry.histogram("mp_latency_seconds", "latency",
                                 labels=("route",), buckets=BUCKETS)
    depth = registry.gauge("mp_depth_max", "peak depth", aggregation="max")
    inflight = registry.gauge("mp_inflight", "summed inflight")
    events.inc(shard_index + 1, kind="shared")
    events.inc(2, kind=f"only_{shard_index}")
    for value, route in shard_observations(shard_index):
        latency.observe(value, route=route)
    depth.set(float(shard_index * 3))
    inflight.set(float(shard_index + 1))
    return registry


def emit_snapshot(queue, shard_index: int) -> None:
    """Child-process entry point: snapshot → JSON → queue."""
    registry = build_shard_registry(shard_index)
    queue.put(json.dumps({"shard": shard_index,
                          "snapshot": registry.snapshot()}))
