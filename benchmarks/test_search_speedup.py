"""End-to-end AutoAC search — fast runtime profile vs float64 baseline.

Not a paper table: this benchmark guards ``repro.perf``.  It runs the
*identical* bi-level search twice on a synthetic citation graph
(``search_benchmark_spec``: papers attributed, authors missing):

* **reference** — float64, unfused kernels.  This is the bit-for-bit
  historical engine and the baseline of the paper's runtime claims
  (Table IV).
* **fast** — float32, fused kernels (addmm, fused cross-entropy, fused
  segment softmax, fused attention score/aggregate).  Both profiles
  scatter through the same exact CSR-transpose product.

In both runs the completion ops keep their outputs between the passes
of a search epoch, as in every search (results are bit-identical to
recomputing them).

Asserted floors: the fast profile finishes the same number of epochs
**≥ 2× faster** while landing within a small tolerance of the reference
best validation score (the search is numerically equivalent — only float
precision and op fusion differ).  Measured margin is ~3× on a laptop
CPU, so the 2× floor stays robust on slow CI machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import AutoACConfig
from repro.core.adapters import NodeClassificationAdapter
from repro.core.search import AutoACSearcher
from repro.datasets import generate, search_benchmark_spec
from repro.perf import runtime_profile
from repro.training import set_seed

from conftest import SCALE, run_once

#: |best_val_score(ref) - best_val_score(fast)| ceiling; scores are
#: negative validation losses with magnitude ~2 on this dataset, and the
#: observed float32 drift is ~2e-3
SCORE_TOLERANCE = 0.1

SEARCH_EPOCHS = 6
NUM_NODES = {"tiny": 2000, "small": 3000, "medium": 5000, "paper": 8000}


def _run_search(profile_name: str, num_nodes: int):
    """One full search under a runtime profile; returns (result, seconds).

    Dataset, model and searcher are constructed inside the profile so
    every array uses the profile's dtype; only ``search()`` is timed
    (construction cost is identical either way and dominated by the
    one-off sparse propagations).
    """
    with runtime_profile(profile_name):
        set_seed(0)
        dataset = generate(search_benchmark_spec(num_nodes=num_nodes), seed=0)
        config = AutoACConfig(search_epochs=SEARCH_EPOCHS,
                              patience=10 * SEARCH_EPOCHS,  # no early stop
                              warmup_epochs=1, hidden_dim=64)
        searcher = AutoACSearcher(NodeClassificationAdapter(dataset),
                                  "simple_hgn", config, seed=0)
        start = time.perf_counter()
        result = searcher.search()
        seconds = time.perf_counter() - start
    return result, seconds


def drive(scale: str = SCALE) -> dict:
    num_nodes = NUM_NODES.get(scale, NUM_NODES["tiny"])
    reference, reference_seconds = _run_search("reference", num_nodes)
    fast, fast_seconds = _run_search("fast", num_nodes)
    return {
        "num_nodes": num_nodes,
        "epochs": SEARCH_EPOCHS,
        "reference_seconds": reference_seconds,
        "fast_seconds": fast_seconds,
        "speedup": reference_seconds / fast_seconds,
        "reference_score": reference.best_val_score,
        "fast_score": fast.best_val_score,
        "score_gap": abs(reference.best_val_score - fast.best_val_score),
        "reference_epochs_run": reference.epochs_run,
        "fast_epochs_run": fast.epochs_run,
    }


def test_search_speedup(benchmark, record_benchmark):
    result = run_once(benchmark, drive)
    print()
    print(f"nodes={result['num_nodes']}  epochs={result['epochs']}")
    print(f"reference {result['reference_seconds']:7.2f}s  "
          f"score {result['reference_score']:.4f}")
    print(f"fast      {result['fast_seconds']:7.2f}s  "
          f"score {result['fast_score']:.4f}")
    print(f"speedup   {result['speedup']:.2f}x  "
          f"score gap {result['score_gap']:.2e}")

    record_benchmark("search_speedup", result["speedup"], "x")
    record_benchmark("search_reference_seconds",
                     result["reference_seconds"], "s")
    record_benchmark("search_fast_seconds", result["fast_seconds"], "s")
    record_benchmark("search_score_gap", result["score_gap"], "val-score")

    # identical amount of search work on both sides
    assert result["reference_epochs_run"] == result["fast_epochs_run"]
    # quality parity: the fast profile finds an equivalent completion
    assert result["score_gap"] <= SCORE_TOLERANCE, (
        f"fast profile val score drifted {result['score_gap']:.3f} "
        f"from the float64 reference (tolerance {SCORE_TOLERANCE})")
    # the headline: end-to-end search at least 2x faster
    assert result["speedup"] >= 2.0, (
        f"fast runtime profile only {result['speedup']:.2f}x faster than "
        f"the float64 unfused baseline")
