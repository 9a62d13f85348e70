"""Print one SHA-1 per runtime profile and seed of a full AutoAC run.

Each line digests what a search and its retrain produce: the final α,
the op assignment, the cluster labels, every search ``history`` series,
the retrain's per-epoch train loss and validation macro-F1, and its
final validation macro-F1, test macro-F1 and test micro-F1 (floats as
hex, so no digit is lost).  Two trees that print the same lines ran the
same search and retrain bit for bit.  The run is the perfbench
``search`` workload's: ``run_autoac`` on imdb, 40 search + 40 retrain
epochs, early stopping off, with simple_hgn unless ``--model`` names
another backbone::

    PYTHONPATH=src python3 scripts/search_digest.py             # imdb small
    PYTHONPATH=src python3 scripts/search_digest.py --scale tiny
    PYTHONPATH=src python3 scripts/search_digest.py --model gat --scale tiny
    PYTHONPATH=src python3 scripts/search_digest.py --base main

``reference`` runs seed 1 and ``fast`` seeds 1–5.  The ``alpha`` column
is the SHA-1 of α's bytes alone; the ``outcome`` column digests only what
the search decided and what the retrain scored (the op assignment, the
cluster labels and the final F1 scores), so a float-order change that
leaves the result alone moves the run digest but not the outcome.

BLAS is pinned to one thread (as perfbench pins it) before numpy is
imported, here and in the ``--base`` subprocesses: a multi-threaded BLAS
may sum in another order, so without the pin the digests would depend
on the host's core count.

``--base REV`` runs this script on the sources (``src/``) of an export
of git revision ``REV`` (``git archive`` into a temporary directory) and
on this tree's, so both sides digest the same fields, prints each line
of the two side by side, with ``same``/``DIFFERS`` for the run digest
and for the outcome, and exits 1 if any ``reference`` line differs:
``reference`` results must stay bit-identical, while a ``fast`` change
may be stated instead.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy loads its BLAS

import numpy as np  # noqa: E402

#: the searched dataset is fixed; the seed drives the search itself
DATASET_SEED = 0
EPOCHS = 40
SEEDS = {"reference": (1,), "fast": (1, 2, 3, 4, 5)}


def hex_series(values) -> str:
    return ",".join(float(v).hex() for v in values)


def digest(profile: str, seed: int, scale: str, model: str) -> tuple:
    """``(run digest, α digest, outcome digest)`` of one seeded run under
    ``profile``."""
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
        result = run_autoac(dataset, model, config, seed=seed)
    search = result.search
    run = hashlib.sha1()
    for array in (search.alpha, search.assignment, search.cluster_labels):
        run.update(np.ascontiguousarray(array).tobytes())
    for name in sorted(search.history):
        run.update(f"{name}:{hex_series(search.history[name])};".encode())
    final = result.final
    for name in sorted(final.history):
        run.update(f"retrain.{name}:{hex_series(final.history[name])};"
                   .encode())
    scores = hex_series((final.val_macro_f1, final.macro_f1,
                         final.micro_f1)).encode()
    run.update(scores)
    alpha = hashlib.sha1(np.ascontiguousarray(search.alpha).tobytes())
    outcome = hashlib.sha1()
    for array in (search.assignment, search.cluster_labels):
        outcome.update(np.ascontiguousarray(array).tobytes())
    outcome.update(scores)
    return run.hexdigest(), alpha.hexdigest(), outcome.hexdigest()


LINE = re.compile(r"^(\w+)\s+seed (\d+)\s+([0-9a-f]{40})\s+alpha ([0-9a-f]+)"
                  r"\s+outcome ([0-9a-f]+)")


def tree_digests(tree: Path, scale: str, model: str) -> dict:
    """``{(profile, seed): (run digest, α prefix, outcome prefix)}`` of
    ``tree``'s sources, digested by this script in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_THREADS)
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--scale", scale, "--model", model],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    lines = (LINE.match(line) for line in result.stdout.splitlines())
    return {(m[1], int(m[2])): (m[3], m[4], m[5]) for m in lines if m}


def compare_with_base(rev: str, scale: str, model: str) -> int:
    """Digest ``rev`` and this tree; 1 if a ``reference`` line differs."""
    here = Path(__file__).resolve().parent.parent
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=here, stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory(prefix="search-digest-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter (where this Python has it) refuses links
            # and paths that leave the directory
            safe = hasattr(tarfile, "data_filter")
            tar.extractall(tmp, **({"filter": "data"} if safe else {}))
        base = tree_digests(Path(tmp), scale, model)
    current = tree_digests(here, scale, model)
    print(f"{'profile':9s} {'seed':>4s}  {'base ' + rev:71s}  this tree")
    failed = False
    verdict = {True: "same", False: "DIFFERS"}
    for key in sorted(set(base) | set(current),
                      key=lambda k: (k[0] != "reference", k)):
        old, new = base.get(key), current.get(key)
        same = old == new
        failed |= key[0] == "reference" and not same
        show = [f"{d[0]}  alpha {d[1]}  outcome {d[2]}" if d else "(missing)"
                for d in (old, new)]
        same_outcome = bool(old and new) and old[2] == new[2]
        print(f"{key[0]:9s} {key[1]:4d}  {show[0]:71s}  {show[1]}  "
              f"{verdict[same]}  outcome {verdict[same_outcome]}")
    if failed:
        print("reference digests differ from the base", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    from repro.datasets.registry import SCALES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument("--model", default="simple_hgn",
                        help="backbone to search and retrain")
    parser.add_argument("--base", metavar="REV",
                        help="compare with git revision REV")
    args = parser.parse_args()
    if args.base:
        return compare_with_base(args.base, args.scale, args.model)
    for profile, seeds in SEEDS.items():
        for seed in seeds:
            start = time.perf_counter()
            run, alpha, outcome = digest(profile, seed, args.scale,
                                         args.model)
            print(f"{profile:9s} seed {seed}  {run}  alpha {alpha[:10]}  "
                  f"outcome {outcome[:10]}  "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
