"""Print one SHA-1 per runtime profile and seed of a full AutoAC run.

Each line digests what a search and its retrain produce: the final α,
the op assignment, the cluster labels, every ``history`` series (floats
as hex, so no digit is lost) and the retrained macro-F1.  Two trees that
print the same lines ran the same search bit for bit.  The run is the
perfbench ``search`` workload's: ``run_autoac`` with simple_hgn on imdb,
40 search + 40 retrain epochs, early stopping off::

    PYTHONPATH=src python3 scripts/search_digest.py             # imdb small
    PYTHONPATH=src python3 scripts/search_digest.py --scale tiny

``reference`` runs seed 1 and ``fast`` seeds 1–5.  The ``alpha`` column
is the SHA-1 of α's bytes alone.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

import numpy as np

#: the searched dataset is fixed; the seed drives the search itself
DATASET_SEED = 0
EPOCHS = 40
SEEDS = {"reference": (1,), "fast": (1, 2, 3, 4, 5)}


def digest(profile: str, seed: int, scale: str) -> tuple:
    """``(run digest, α digest)`` of one seeded run under ``profile``."""
    from repro.core import AutoACConfig, run_autoac
    from repro.datasets import get_dataset
    from repro.perf import runtime_profile
    from repro.training import TrainConfig, set_seed

    never = 10 ** 9  # patience that early stopping never exhausts
    config = AutoACConfig(search_epochs=EPOCHS, patience=never,
                          retrain=TrainConfig(epochs=EPOCHS, patience=never))
    with runtime_profile(profile):
        dataset = get_dataset("imdb", scale=scale, seed=DATASET_SEED,
                              use_cache=False)
        set_seed(seed)
        result = run_autoac(dataset, "simple_hgn", config, seed=seed)
    search = result.search
    run = hashlib.sha1()
    for array in (search.alpha, search.assignment, search.cluster_labels):
        run.update(np.ascontiguousarray(array).tobytes())
    for name in sorted(search.history):
        series = ",".join(float(v).hex() for v in search.history[name])
        run.update(f"{name}:{series};".encode())
    run.update(float(result.final.macro_f1).hex().encode())
    alpha = hashlib.sha1(np.ascontiguousarray(search.alpha).tobytes())
    return run.hexdigest(), alpha.hexdigest()


def main() -> int:
    from repro.datasets.registry import SCALES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    args = parser.parse_args()
    for profile, seeds in SEEDS.items():
        for seed in seeds:
            start = time.perf_counter()
            run, alpha = digest(profile, seed, args.scale)
            print(f"{profile:9s} seed {seed}  {run}  alpha {alpha[:10]}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
