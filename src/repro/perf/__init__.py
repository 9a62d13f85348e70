"""``repro.perf`` — the runtime performance layer.

Two orthogonal tools:

* **Runtime profiles** (:mod:`.profiles`) — named bundles of engine
  settings.  ``"reference"`` (default) is bit-for-bit the historical
  float64 unfused engine; ``"fast"`` switches the whole stack to float32
  and enables the fused kernels, cutting AutoAC search wall-time ≥2×
  at numerically-equivalent quality (guarded by
  ``benchmarks/test_search_speedup.py``).
* **Op-level profiler** (:mod:`.profiler`) — per-op call counts, wall
  time and allocated bytes for every autograd op, exposed as
  ``python -m repro profile`` and ``run_autoac(..., profile=True)``.
"""

from .profiler import ProfileReport, Profiler, profile
from .recording import (current_commit, host_provenance, is_dirty_commit,
                        merge_bench_rows)
from .profiles import (
    RuntimeProfile,
    current_profile,
    get_profile,
    profile_names,
    runtime_profile,
    set_runtime_profile,
)

__all__ = [
    "RuntimeProfile",
    "current_profile",
    "get_profile",
    "profile_names",
    "runtime_profile",
    "set_runtime_profile",
    "Profiler",
    "ProfileReport",
    "profile",
    "current_commit",
    "host_provenance",
    "is_dirty_commit",
    "merge_bench_rows",
]
