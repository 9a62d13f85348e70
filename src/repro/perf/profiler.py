"""Op-level profiler for the autograd engine.

Every public op in ``repro.tensor`` routes through the instrumentation
choke point in :mod:`repro.tensor._profile`; this module installs a hook
there and aggregates, per op name, the call count, total wall time and
total bytes of output allocated.  Backward closures report separately as
``"<op>.backward"``.  Composite ops (e.g. the unfused ``cross_entropy``)
also record the primitives they call, so times are *inclusive* — the
table answers "where does wall time pass through", not "exclusive
self-time".  The session also counts the process's minor page faults
and system CPU seconds (``getrusage`` deltas over the profiled scope):
what allocations that go back to the kernel each step cost.

Usage::

    with Profiler() as prof:
        run_autoac(dataset, "simple_hgn")
    print(prof.report().render())

or via ``python -m repro profile`` / ``run_autoac(..., profile=True)``.
"""

from __future__ import annotations

import contextlib
import resource
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..tensor import _profile


@dataclass
class OpStat:
    """Aggregate statistics of one op name."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    bytes_allocated: int = 0

    def record(self, seconds: float, nbytes: int) -> None:
        self.calls += 1
        self.seconds += seconds
        self.bytes_allocated += nbytes


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value):,} B"
        value /= 1024.0
    return f"{int(count):,} B"


@dataclass
class ProfileReport:
    """Frozen snapshot of a profiling session, renderable as a table."""

    stats: List[OpStat] = field(default_factory=list)
    #: minor page faults of the whole process over the profiled scope
    minor_faults: int = 0
    #: system (kernel) CPU seconds of the process over the profiled scope
    system_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.stats)

    @property
    def total_calls(self) -> int:
        return sum(stat.calls for stat in self.stats)

    def top(self, n: Optional[int] = None) -> List[OpStat]:
        """Stats sorted by total time, slowest first (all when ``n`` is None)."""
        ranked = sorted(self.stats, key=lambda s: s.seconds, reverse=True)
        return ranked if n is None else ranked[:n]

    def as_rows(self) -> List[Dict]:
        """Machine-readable rows (used by tests and JSON dumps)."""
        return [
            {"op": stat.name, "calls": stat.calls,
             "total_ms": stat.seconds * 1e3,
             "bytes": stat.bytes_allocated}
            for stat in self.top()
        ]

    def to_json(self) -> Dict:
        """The whole report as one JSON-able dict (``repro profile
        --json``): totals, the scope's page faults and system time, and
        the ranked per-op rows."""
        return {"total_seconds": self.total_seconds,
                "total_calls": self.total_calls,
                "minor_faults": self.minor_faults,
                "system_seconds": self.system_seconds,
                "ops": self.as_rows()}

    def publish(self, registry=None) -> None:
        """Register per-op totals as ``tensor_op_*`` metrics.

        Targets the process-global registry by default, so a profiled
        run shows up in the same ``/metrics`` scrape as everything
        else.  Counters only ever add, so publishing two sessions
        accumulates — the Prometheus-native behaviour.
        """
        from ..telemetry import get_registry
        registry = registry or get_registry()
        seconds = registry.counter("tensor_op_seconds_total",
                                   "Inclusive wall time per autograd op",
                                   labels=("op",))
        calls = registry.counter("tensor_op_calls_total",
                                 "Calls per autograd op", labels=("op",))
        nbytes = registry.counter("tensor_op_bytes_total",
                                  "Output bytes allocated per autograd op",
                                  labels=("op",))
        for stat in self.stats:
            seconds.inc(stat.seconds, op=stat.name)
            calls.inc(stat.calls, op=stat.name)
            nbytes.inc(stat.bytes_allocated, op=stat.name)

    def render(self, limit: Optional[int] = 30) -> str:
        """Fixed-width per-op table: calls, total ms, share, bytes; a
        footer line gives the scope's page faults and system time."""
        rows = self.top(limit)
        total = self.total_seconds or 1.0
        header = (f"{'op':<28} {'calls':>8} {'total ms':>10} "
                  f"{'share':>7} {'bytes out':>12}")
        lines = [header, "-" * len(header)]
        for stat in rows:
            lines.append(
                f"{stat.name:<28} {stat.calls:>8} {stat.seconds * 1e3:>10.2f} "
                f"{stat.seconds / total:>7.1%} "
                f"{_format_bytes(stat.bytes_allocated):>12}")
        lines.append("-" * len(header))
        lines.append(
            f"{'total (inclusive)':<28} {self.total_calls:>8} "
            f"{self.total_seconds * 1e3:>10.2f} {'':>7} {'':>12}")
        lines.append(f"minor page faults {self.minor_faults:,}   "
                     f"system CPU {self.system_seconds:.3f} s")
        return "\n".join(lines)


class Profiler:
    """Collects per-op statistics while active (context manager).

    Profilers nest: an inner profiler chains to the hook it replaced
    (an outer profiler, or a span capturing ops) and restores it on
    exit, so every active profiler sees every op.
    """

    def __init__(self, registry=None) -> None:
        self._stats: Dict[str, OpStat] = {}
        self._previous = None
        self._active = False
        self._faults = 0
        self._system = 0.0
        self._usage = None  # getrusage at entry while active
        #: when set, the session's per-op totals are published into this
        #: telemetry registry (``tensor_op_*``) on context-manager exit
        self.registry = registry

    # the hook installed into repro.tensor._profile
    def _record(self, name: str, seconds: float, nbytes: int) -> None:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = OpStat(name)
        stat.record(seconds, nbytes)
        if self._previous is not None:
            self._previous(name, seconds, nbytes)

    def __enter__(self) -> "Profiler":
        if self._active:
            raise RuntimeError("Profiler is not reentrant")
        self._previous = _profile.set_hook(self._record)
        self._active = True
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        return self

    def __exit__(self, *exc) -> None:
        _profile.set_hook(self._previous)
        self._previous = None
        self._active = False
        self._faults, self._system = self._usage_so_far()
        self._usage = None
        if self.registry is not None:
            self.report().publish(self.registry)

    def _usage_so_far(self) -> Tuple[int, float]:
        """``(minor faults, system seconds)`` collected, the running
        scope's included."""
        if self._usage is None:
            return self._faults, self._system
        now = resource.getrusage(resource.RUSAGE_SELF)
        return (self._faults + now.ru_minflt - self._usage.ru_minflt,
                self._system + now.ru_stime - self._usage.ru_stime)

    def reset(self) -> None:
        """Drop all collected statistics."""
        self._stats.clear()
        self._faults, self._system = 0, 0.0
        if self._usage is not None:
            self._usage = resource.getrusage(resource.RUSAGE_SELF)

    def report(self) -> ProfileReport:
        """Snapshot the collected statistics."""
        faults, system = self._usage_so_far()
        return ProfileReport([OpStat(s.name, s.calls, s.seconds,
                                     s.bytes_allocated)
                              for s in self._stats.values()],
                             minor_faults=faults, system_seconds=system)


@contextlib.contextmanager
def profile() -> Iterator[Profiler]:
    """Shorthand ``with profile() as prof:`` (a fresh :class:`Profiler`)."""
    with Profiler() as prof:
        yield prof


__all__ = ["Profiler", "ProfileReport", "OpStat", "profile"]
