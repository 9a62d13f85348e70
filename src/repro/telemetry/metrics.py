"""Thread-safe metric instruments: counters, gauges, histograms.

The registry is the in-process half of the runtime telemetry story
(:mod:`repro.telemetry`): every subsystem — the serving engine, the
HTTP front end, onboarding, both trainers, the trial scheduler, the
op-level profiler — records into instruments instead of ad-hoc
attributes, and anything that wants the numbers (``stats()``,
``/metrics``, the CLI) reads one consistent :meth:`MetricsRegistry.
snapshot`.

Three design decisions carry the multi-process future:

* **Snapshots are plain JSON-able dicts.**  A snapshot crosses process
  boundaries as-is (pipe, file), so registries of several processes
  can be shipped to one place and aggregated.
* **Histograms are fixed-bucket.**  A histogram is just per-bucket
  counts plus ``sum``/``count``; merging shards is element-wise
  addition (:func:`merge_snapshots`), and the merged histogram is
  *exactly* what a single process observing the union would hold —
  the property ``tests/test_telemetry.py`` pins down.  Quantiles
  (p50/p95/p99) are estimated by linear interpolation inside the
  bucket that holds the target rank.
* **One lock per registry.**  Every mutation and the snapshot take the
  same lock, so counters are exact under thread hammering and a
  snapshot is a consistent cut.  Contention is irrelevant at the
  frequencies involved (instruments are updated per batch/epoch/
  request, not per tensor op).

Instrument acquisition is idempotent: asking for an existing name with
the identical spec returns the existing instrument; a conflicting spec
raises :class:`MetricError`.  That lets every trainer instance say
``registry.counter("train_epochs_total", ...)`` without coordination.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "merge_snapshots",
    "percentile_from_buckets",
]

#: Default buckets for request-scale latencies, in seconds.  The low end
#: reaches 10µs because a warm cache hit is a dictionary lookup.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for long-running work (epochs, trials), in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0, 600.0, 1800.0,
)


class MetricError(ValueError):
    """Invalid metric name, label set, or conflicting redefinition."""


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"metric name cannot start with a digit: {name!r}")
    return name


def _encode_key(values: Tuple[str, ...]) -> str:
    """Label values → an unambiguous string snapshot key."""
    return json.dumps(list(values))


def _decode_key(key: str) -> Tuple[str, ...]:
    return tuple(json.loads(key))


def percentile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                            q: float) -> float:
    """Estimate the ``q``-quantile (0..1) from fixed-bucket counts.

    ``counts`` has one entry per bound plus a final overflow bucket.
    Linear interpolation inside the winning bucket; the overflow bucket
    cannot be interpolated so it reports the last finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= target and count > 0:
            if index >= len(bounds):          # overflow bucket
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (target - previous) / count
            return float(lower + (upper - lower) * min(max(fraction, 0.0),
                                                       1.0))
    return float(bounds[-1])


class _Instrument:
    """Shared bookkeeping: name, declared labels, the registry lock."""

    kind = "instrument"

    def __init__(self, name: str, help: str, labels: Tuple[str, ...],
                 lock: threading.RLock) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = labels
        self._lock = lock
        self._values: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    def spec(self) -> Dict:
        return {"kind": self.kind, "help": self.help,
                "labels": list(self.label_names)}


class Counter(_Instrument):
    """A monotonically increasing float (exposed with ``_total`` names)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return float(sum(self._values.values()))


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, overlay size).

    ``aggregation`` decides how per-process shards merge: ``"sum"``
    (queue depths add), ``"max"`` (watermarks), or ``"last"`` (a merged
    value is meaningless — keep the lexically last shard's).
    """

    kind = "gauge"

    def __init__(self, name, help, labels, lock,
                 aggregation: str = "sum") -> None:
        super().__init__(name, help, labels, lock)
        if aggregation not in ("sum", "max", "last"):
            raise MetricError(f"unknown gauge aggregation {aggregation!r}")
        self.aggregation = aggregation

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._values.get(key, 0.0))

    def spec(self) -> Dict:
        out = super().spec()
        out["aggregation"] = self.aggregation
        return out


class _HistogramData:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets     # per-bucket, NON-cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram with mergeable plain-sum state."""

    kind = "histogram"

    def __init__(self, name, help, labels, lock,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help, labels, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name} buckets must be strictly increasing")
        self.bounds = bounds

    def _data(self, key: Tuple[str, ...]) -> _HistogramData:
        data = self._values.get(key)
        if data is None:
            data = self._values[key] = _HistogramData(len(self.bounds) + 1)
        return data

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    def observe(self, value: float, count: int = 1, **labels) -> None:
        """Record ``value``; ``count`` repeats it (one lock acquisition
        for e.g. "these 12 cache hits each cost ~3µs")."""
        if count <= 0:
            return
        value = float(value)
        index = self._bucket_index(value)
        key = self._key(labels)
        with self._lock:
            data = self._data(key)
            data.counts[index] += count
            data.sum += value * count
            data.count += count

    # -- reading -------------------------------------------------------
    def sum_total(self) -> float:
        with self._lock:
            return float(sum(d.sum for d in self._values.values()))

    def percentile(self, q: float, **labels) -> float:
        """Quantile of one label combination's observations."""
        key = self._key(labels)
        with self._lock:
            data = self._values.get(key)
            counts = list(data.counts) if data is not None else []
        if not counts:
            return 0.0
        return percentile_from_buckets(self.bounds, counts, q)


class MetricsRegistry:
    """A named set of instruments with consistent snapshots.

    The serving engine owns a private registry (so two engines in one
    process never cross-count); library-wide instruments (trainers, the
    tuner, the profiler) live on the process-global default registry
    (:func:`repro.telemetry.get_registry`).  ``/metrics`` merges both.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, _Instrument] = {}

    # -- acquisition (get-or-create, spec-checked) ---------------------
    def _acquire(self, cls, name: str, help: str,
                 labels: Iterable[str], **extra) -> _Instrument:
        labels = tuple(labels)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"{name} already registered as {existing.kind}, "
                        f"not {cls.kind}")
                if existing.label_names != labels:
                    raise MetricError(
                        f"{name} already registered with labels "
                        f"{existing.label_names}, not {labels}")
                for attr, value in extra.items():
                    held = getattr(existing, "bounds" if attr == "buckets"
                                   else attr)
                    wanted = (tuple(float(b) for b in value)
                              if attr == "buckets" else value)
                    if held != wanted:
                        raise MetricError(
                            f"{name} already registered with {attr}={held}")
                return existing
            instrument = cls(name, help, labels, self._lock, **extra)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> Counter:
        return self._acquire(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = (),
              aggregation: str = "sum") -> Gauge:
        return self._acquire(Gauge, name, help, labels,
                             aggregation=aggregation)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Histogram:
        return self._acquire(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict:
        """A consistent, JSON-able cut of every instrument's state."""
        out: Dict[str, Dict] = {}
        with self._lock:
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                entry = instrument.spec()
                if isinstance(instrument, Histogram):
                    entry["buckets"] = list(instrument.bounds)
                    entry["samples"] = {
                        _encode_key(key): {"counts": list(data.counts),
                                           "sum": data.sum,
                                           "count": data.count}
                        for key, data in instrument._values.items()}
                else:
                    entry["samples"] = {_encode_key(key): value
                                        for key, value in
                                        instrument._values.items()}
                out[name] = entry
        return out

    def render(self) -> str:
        """This registry's state in Prometheus text exposition format."""
        from .exposition import render_prometheus
        return render_prometheus(self.snapshot())


def _merge_entry(merged: Dict, entry: Dict, name: str) -> None:
    for field in ("kind", "labels", "buckets", "aggregation"):
        if merged.get(field) != entry.get(field):
            raise MetricError(
                f"cannot merge {name}: shards disagree on {field} "
                f"({merged.get(field)!r} vs {entry.get(field)!r})")
    samples = merged["samples"]
    for key, value in entry["samples"].items():
        if key not in samples:
            samples[key] = (dict(value, counts=list(value["counts"]))
                            if merged["kind"] == "histogram" else value)
        elif merged["kind"] == "histogram":
            held = samples[key]
            held["counts"] = [a + b for a, b in zip(held["counts"],
                                                    value["counts"])]
            held["sum"] += value["sum"]
            held["count"] += value["count"]
        elif merged["kind"] == "counter":
            samples[key] += value
        else:  # gauge
            aggregation = merged.get("aggregation", "sum")
            if aggregation == "sum":
                samples[key] += value
            elif aggregation == "max":
                samples[key] = max(samples[key], value)
            else:  # "last"
                samples[key] = value


def merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Merge per-shard :meth:`MetricsRegistry.snapshot` dicts.

    Counters and histogram buckets/sums/counts add element-wise; gauges
    follow their declared aggregation.  The merge of N shard snapshots
    equals the snapshot a single process observing everything would
    produce — how ``/metrics`` joins the engine and process registries.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for name, entry in snapshot.items():
            if name not in merged:
                copied = dict(entry)
                copied["samples"] = {
                    key: (dict(value, counts=list(value["counts"]))
                          if entry["kind"] == "histogram" else value)
                    for key, value in entry["samples"].items()}
                merged[name] = copied
            else:
                _merge_entry(merged[name], entry, name)
    return merged
