"""Print one SHA-1 per paper table and figure under the reference profile.

Each line digests what one ``repro.experiments`` driver returns when run
as its benchmark runs it (``benchmarks/test_table*.py`` and
``test_fig*.py``: the same datasets, backbones and sweep values) at
``tiny`` scale, together with every result of the ``runner`` functions
the driver called (F1s, assignments, cluster labels, search histories),
so a table whose cells are all times (Table IV) still digests the runs
behind it.  Timing keys are removed first: ``*_seconds``, ``runtime_*``,
``prelearn_*`` and Table IV's cells (``hgnnac_*``, ``autoac_*``,
``speedup``), which hold nothing but times.
Floats are written as hex, so no digit is lost.  Two trees that print
the same lines produced the same tables bit for bit::

    PYTHONPATH=src python3 scripts/table_digest.py
    PYTHONPATH=src python3 scripts/table_digest.py --only table2,figure4
    PYTHONPATH=src python3 scripts/table_digest.py --base main

BLAS is pinned to one thread before numpy is imported, here and in the
``--base`` subprocesses, so the digests do not depend on the host's core
count.

``--base REV`` runs this script on the sources (``src/``) of an export
of git revision ``REV`` (``git archive`` into a temporary directory) and
on this tree's, side by side in two processes, prints each line of the
two with ``same``/``DIFFERS``, and exits 1 if any line differs: every
line is a ``reference`` result, which must stay bit-identical.
"""

from __future__ import annotations

import argparse
import functools
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

SCALE = "tiny"

#: each driver's arguments, as its benchmark passes them
DRIVERS = {
    "table2": ("tables", {}),
    "table3": ("tables", {"backbones": ("simple_hgn",)}),
    "table4": ("tables", {"datasets": ("dblp", "imdb"),
                          "backbones": ("simple_hgn",)}),
    "table5": ("tables", {"datasets": ("lastfm", "imdb")}),
    "table6": ("tables", {}),
    "table7": ("tables", {"datasets": ("dblp", "imdb")}),
    "table8": ("tables", {"datasets": ("imdb",),
                          "backbones": ("simple_hgn",)}),
    "table9": ("tables", {"datasets": ("imdb",)}),
    "table10": ("tables", {"datasets": ("imdb",),
                           "mask_rates": (0.05, 0.10, 0.30)}),
    "figure3": ("figures", {"datasets": ("imdb",),
                            "backbones": ("simple_hgn",)}),
    "figure4": ("figures", {}),
    "figure5": ("figures", {"backbones": ("simple_hgn",)}),
    "figure6_7": ("figures", {}),
    "figure8": ("figures", {"datasets": ("imdb",),
                            "backbones": ("simple_hgn",),
                            "m_values": (2, 4, 8, 16)}),
    "figure9": ("figures", {"datasets": ("imdb",),
                            "backbones": ("simple_hgn",),
                            "lambda_values": (0.1, 0.3, 0.5)}),
    "figure10_11": ("figures", {"datasets": ("imdb",),
                                "lr_values": (3e-3, 5e-3, 7e-3),
                                "wd_values": (5e-6, 2e-5, 4e-3)}),
}

#: timing keys, Table IV's cells included
TIMING = re.compile(r"_seconds$|^runtime_|^prelearn_|^speedup$"
                    r"|^(hgnnac|autoac)_(prelearn|train|search|retrain|total)$")


def canonical(value) -> str:
    """A text form of ``value`` with timing keys dropped, floats as hex."""
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v))
                       for k, v in value.items()
                       if not (isinstance(k, str) and TIMING.search(k)))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}" + canonical(value.tolist())
    if isinstance(value, (bool, np.bool_)) or value is None:
        return repr(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str):
        return repr(value)
    raise TypeError(f"cannot digest {type(value).__name__}")


def recording(module, runs: list) -> None:
    """Make ``module``'s runner functions append each result to ``runs``."""
    for name in dir(module):
        fn = getattr(module, name)
        if callable(fn) and (name.startswith("train_")
                             or name == "tune_sweep"):
            @functools.wraps(fn)
            def wrapper(*args, _fn=fn, **kwargs):
                result = _fn(*args, **kwargs)
                runs.append(result)
                return result
            setattr(module, name, wrapper)


def digest(name: str, runs: list) -> str:
    """SHA-1 of driver ``name``'s result and its runner results."""
    from repro.experiments import figures, tables
    from repro.perf import runtime_profile

    module_name, kwargs = DRIVERS[name]
    driver = getattr({"tables": tables, "figures": figures}[module_name],
                     name)
    runs.clear()
    with runtime_profile("reference"):
        result = driver(scale=SCALE, **kwargs)
    text = canonical(result) + canonical(runs)
    return hashlib.sha1(text.encode()).hexdigest()


LINE = re.compile(r"^(\w+)\s+([0-9a-f]{40})")


def tree_digests(tree: Path, only: list) -> subprocess.Popen:
    """Start this script on ``tree``'s sources in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_THREADS)
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--only", ",".join(only)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)


def parse(process: subprocess.Popen, out: str) -> dict:
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode,
                                            process.args, out)
    lines = (LINE.match(line) for line in out.splitlines())
    return {m[1]: m[2] for m in lines if m}


def compare_with_base(rev: str, only: list) -> int:
    """Digest ``rev`` and this tree; 1 if any line differs."""
    here = Path(__file__).resolve().parent.parent
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=here, stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory(prefix="table-digest-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            # the "data" filter (where this Python has it) refuses links
            # and paths that leave the directory
            safe = hasattr(tarfile, "data_filter")
            tar.extractall(tmp, **({"filter": "data"} if safe else {}))
        processes = (tree_digests(Path(tmp), only), tree_digests(here, only))
        outputs = [p.communicate()[0] for p in processes]
    base, current = (parse(p, out) for p, out in zip(processes, outputs))
    print(f"{'driver':12s} {'base ' + rev:41s}  this tree")
    failed = False
    for name in only:
        old, new = base.get(name), current.get(name)
        same = old is not None and old == new
        failed |= not same
        print(f"{name:12s} {old or '(missing)':41s}  {new or '(missing)':40s}"
              f"  {'same' if same else 'DIFFERS'}")
    if failed:
        print("table digests differ from the base", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(DRIVERS),
                        help="comma-separated drivers (default: all)")
    parser.add_argument("--base", metavar="REV",
                        help="compare with git revision REV")
    args = parser.parse_args()
    only = [name for name in args.only.split(",") if name]
    unknown = sorted(set(only) - set(DRIVERS))
    if unknown:
        parser.error(f"unknown drivers {unknown}; "
                     f"choose from {', '.join(DRIVERS)}")
    if args.base:
        return compare_with_base(args.base, only)
    from repro.experiments import figures, tables

    runs: list = []
    for module in (tables, figures):
        recording(module, runs)
    for name in only:
        start = time.perf_counter()
        print(f"{name:12s} {digest(name, runs)}  "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
