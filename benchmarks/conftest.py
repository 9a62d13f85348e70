"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure at the scale given by
the ``REPRO_SCALE`` environment variable (default ``tiny`` so the full
suite finishes in minutes on CPU; use ``small`` for a faithful run).
Rendered tables are printed so the run log doubles as the reproduction
report (see EXPERIMENTS.md).

Perf trajectory: the ``record_benchmark`` fixture appends machine-readable
``{name, value, unit, commit}`` rows, stamped with the host's
provenance (cores, Python, numpy, scale), to ``BENCH_perf.json`` at the
repo root.  The guard benchmarks (sparse speedup, serving throughput, search
speedup) record their headline numbers there, so ``make bench`` leaves a
commit-stamped perf history behind.  Only rows of tests that passed are
written: a benchmark records before it asserts, so a failing run's
numbers never reach the trajectory.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import List, Set, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.recording import (  # noqa: E402
    current_commit,
    host_provenance,
    merge_bench_rows,
)

SCALE = os.environ.get("REPRO_SCALE", "tiny")

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


@pytest.fixture(scope="session")
def scale() -> str:
    return SCALE


#: autotune benchmark graph size per scale (nodes of tune_benchmark_spec)
TUNE_BENCH_NODES = {"tiny": 900, "small": 1500, "medium": 2500, "paper": 4000}

#: the trial journal the autotune benchmark leaves behind (CI uploads it)
TUNE_JOURNAL_PATH = BENCH_PATH.parent / "TUNE_journal.jsonl"


@pytest.fixture(scope="session")
def tune_spec():
    """The autotune speedup benchmark's synthetic schema, sized by scale."""
    from repro.datasets import tune_benchmark_spec

    return tune_benchmark_spec(
        num_nodes=TUNE_BENCH_NODES.get(SCALE, TUNE_BENCH_NODES["tiny"]))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


#: ``(nodeid, row)`` per recorded row, flushed at session end
_ROWS: List[Tuple[str, dict]] = []
#: tests that failed in setup, call or teardown
_FAILED: Set[str] = set()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if report.failed:
        _FAILED.add(item.nodeid)


@pytest.fixture()
def record_benchmark(request):
    """Recorder for perf rows of the requesting test.

    Usage inside a benchmark test::

        def test_x(benchmark, record_benchmark):
            ...
            record_benchmark("sparse_speedup", result["speedup"], "x")

    Rows are tagged with the test's nodeid and buffered; at session end
    the rows of tests that passed are merged with the rows already on
    disk via :func:`repro.perf.recording.merge_bench_rows`, so repeated
    ``make bench`` runs accumulate a trajectory.  The merge is
    idempotent per ``(name, commit)``, and a re-record at a *clean*
    commit evicts any provisional ``-dirty`` rows of the same benchmark
    — only moving to a new clean commit grows the trajectory.  Each
    row carries :func:`repro.perf.recording.host_provenance` as
    ``host``.
    """
    commit = current_commit(BENCH_PATH.parent)
    host = host_provenance()

    def record(name: str, value: float, unit: str) -> None:
        _ROWS.append((request.node.nodeid,
                      {"name": str(name), "value": float(value),
                       "unit": str(unit), "commit": commit, "host": host}))

    return record


def pytest_sessionfinish(session, exitstatus):
    rows = [row for nodeid, row in _ROWS if nodeid not in _FAILED]
    if not rows:
        return
    existing = []
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            existing = []
    if not isinstance(existing, list):
        existing = []
    BENCH_PATH.write_text(
        json.dumps(merge_bench_rows(existing, rows), indent=2) + "\n")
