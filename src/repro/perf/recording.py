"""Perf-trajectory recording: commit stamping and row-merge policy.

``BENCH_perf.json`` (repo root) is an append-mostly trajectory of
``{name, value, unit, commit}`` rows written by the benchmark suite's
``record_benchmark`` fixture.  Rows are stamped with ``git describe
--always --dirty`` so a measurement is never attributed to a commit it
was not taken on; an uncommitted tree stamps ``<sha>-dirty``.

The merge policy (:func:`merge_bench_rows`) keeps the trajectory free of
stale duplicates:

* re-recording a benchmark at the **same** commit (clean or dirty)
  replaces its earlier row — idempotent per ``(name, commit)``;
* a **clean**-commit row additionally evicts every ``-dirty`` row of the
  same benchmark, whatever commit the dirty row was stamped with.  Dirty
  rows are provisional by construction (the measured tree was never
  committed, so the stamped sha can never be checked out to reproduce
  them); once the benchmark is re-recorded at a clean commit they are
  superseded, not history.

Only moving to a *new clean commit* grows the trajectory.

Each row also carries :func:`host_provenance` (usable cores, Python and
numpy versions, ``REPRO_SCALE``), so two rows of one benchmark can be
told apart by the host and scale they were measured at.  It is data,
not part of the merge key.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Sequence

DIRTY_SUFFIX = "-dirty"


def is_dirty_commit(commit: str) -> bool:
    """True for rows stamped on an uncommitted tree (``<sha>-dirty``)."""
    return str(commit).endswith(DIRTY_SUFFIX)


def current_commit(repo_root) -> str:
    """Short HEAD hash via ``git describe --always --dirty``.

    Appends ``-dirty`` for uncommitted changes so trajectory rows are
    never attributed to a commit they weren't measured on; returns
    ``"unknown"`` outside a git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(repo_root), capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_provenance() -> Dict:
    """Where a row was measured: ``cores`` (CPUs this process may run
    on), ``python`` and ``numpy`` versions, and ``scale``
    (``REPRO_SCALE``, ``None`` when unset)."""
    import numpy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count()
    return {"cores": cores, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scale": os.environ.get("REPRO_SCALE")}


def merge_bench_rows(existing: Sequence[Dict],
                     fresh: Sequence[Dict]) -> List[Dict]:
    """Merge freshly measured rows into the rows already on disk.

    Returns ``existing`` (order preserved) with superseded rows dropped,
    followed by ``fresh``.  A fresh row supersedes an existing row when:

    * it has the same ``(name, commit)`` — a re-run at the same tree; or
    * the fresh row is stamped on a **clean** commit and the existing
      row is a ``-dirty`` row of the same benchmark name (provisional
      measurements give way to the committed one).

    Malformed existing entries (non-dicts) are dropped rather than
    crashing the flush — the trajectory file is best-effort history.
    """
    fresh = [dict(row) for row in fresh]
    direct = {(row.get("name"), row.get("commit")) for row in fresh}
    clean_names = {row.get("name") for row in fresh
                   if not is_dirty_commit(row.get("commit", ""))}
    kept = []
    for row in existing:
        if not isinstance(row, dict):
            continue
        name, commit = row.get("name"), row.get("commit")
        if (name, commit) in direct:
            continue
        if name in clean_names and is_dirty_commit(str(commit)):
            continue
        kept.append(row)
    return kept + fresh


__all__ = ["DIRTY_SUFFIX", "current_commit", "host_provenance",
           "is_dirty_commit", "merge_bench_rows"]
