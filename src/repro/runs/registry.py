"""The run registry — completed searches as first-class, comparable objects.

A *run* is one trial journal: header fingerprint, trial results,
per-trial timelines and the closing footer.  The registry keeps runs
under one directory (``runs/`` by default, one ``<name>.jsonl`` each),
fingerprints them, and answers the questions a finished search leaves
behind:

* *what runs do I have?* — :meth:`RunRegistry.index`;
* *how do two searches compare?* — :meth:`RunRegistry.compare`
  (leaderboard deltas, shared-trial score deltas, best-trial curve
  overlays);
* *what changed between their configs?* — :meth:`RunRegistry.diff`
  (recursive fingerprint diff, the "why are these different" answer).

Everything is plain stdlib + the journal reader: no run can become
uncomparable because a plotting stack is missing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

# import autotune *submodules* only: this module is (indirectly) imported
# while ``repro.autotune.__init__`` is still executing, so the package
# attributes do not exist yet — the completed submodules do
from ..autotune.journal import JournalContents, TrialJournal
from ..autotune.trial import TrialResult, leaderboard_key
from .timeline import MetricTimeline


def run_fingerprint_id(fingerprint: Optional[Dict[str, Any]]) -> str:
    """Short, stable content id of a run setup (task+strategy+stopper)."""
    digest = hashlib.sha256(
        json.dumps(fingerprint or {}, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()[:12]


@dataclass
class RunRecord:
    """One parsed run: identity, results, timelines, accounting."""

    name: str
    path: Path
    contents: JournalContents

    @classmethod
    def load(cls, path, name: Optional[str] = None) -> "RunRecord":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no run journal at {path}")
        return cls(name=name or path.stem, path=path,
                   contents=TrialJournal.read_all(path))

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> Dict[str, Any]:
        header = self.contents.header or {}
        return header.get("fingerprint") or {}

    @property
    def run_id(self) -> str:
        return run_fingerprint_id(self.fingerprint)

    @property
    def strategy_name(self) -> str:
        return str((self.fingerprint.get("strategy") or {})
                   .get("strategy", "?"))

    @property
    def footer(self) -> Dict[str, Any]:
        return self.contents.footer or {}

    def results(self) -> List[TrialResult]:
        return [TrialResult.from_dict(entry["result"])
                for entry in self.contents.trials]

    def leaderboard(self, k: Optional[int] = None) -> List[TrialResult]:
        ranked = sorted((r for r in self.results() if not r.failed),
                        key=leaderboard_key)
        return ranked if k is None else ranked[:k]

    @property
    def best(self) -> Optional[TrialResult]:
        ranked = self.leaderboard(1)
        return ranked[0] if ranked else None

    def timeline(self, trial_id: int) -> Optional[MetricTimeline]:
        payload = self.contents.timelines.get(int(trial_id))
        return None if payload is None else MetricTimeline.from_dict(payload)

    def summary(self) -> Dict[str, Any]:
        """One index row: what `repro runs list` prints per run."""
        results = self.results()
        best = self.best
        stats = self.footer.get("stats") or {}
        stopped = self.footer.get("stopped")
        return {
            "name": self.name,
            "run_id": self.run_id,
            "strategy": self.strategy_name,
            "trials": len(results),
            "failed": sum(1 for r in results if r.failed),
            "best_score": None if best is None else float(best.score),
            "best_trial": None if best is None else int(best.trial_id),
            "timelines": len(self.contents.timelines),
            "worker_deaths": int(stats.get("worker_deaths", 0)),
            "stopped": (None if not stopped
                        else f"{stopped.get('stopper')}: "
                             f"{stopped.get('reason')}"),
        }


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------

def fingerprint_diff(a: Any, b: Any, prefix: str = "") -> List[Dict[str, Any]]:
    """Recursive structural diff of two JSON-able fingerprints.

    Returns one row per differing leaf: ``{"path", "a", "b"}`` with
    dotted paths (``task.max_budget``); a missing side reads ``None``.
    Rows come back sorted by path, so the diff itself is deterministic.
    """
    rows: List[Dict[str, Any]] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(fingerprint_diff(a.get(key), b.get(key), path))
    elif a != b:
        rows.append({"path": prefix or "<root>", "a": a, "b": b})
    return rows


@dataclass
class RunDiff:
    """Everything :meth:`RunRegistry.compare` derives from two runs."""

    a: RunRecord
    b: RunRecord
    #: dotted-path config differences (empty → identical setups)
    config: List[Dict[str, Any]] = field(default_factory=list)
    #: ``best_score(b) - best_score(a)`` (None when either has no winner)
    best_delta: Optional[float] = None
    #: per shared trial id: ``{"trial_id", "a", "b", "delta"}``
    shared_trials: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def same_setup(self) -> bool:
        return not self.config



# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

class RunRegistry:
    """A directory of run journals, indexed and comparable by name."""

    def __init__(self, root="runs") -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(path.stem for path in self.root.glob("*.jsonl"))

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.jsonl"

    def load(self, name) -> RunRecord:
        """Load a registered run by name — or any journal by path."""
        as_path = Path(str(name))
        if as_path.suffix == ".jsonl" and as_path.exists():
            return RunRecord.load(as_path)
        path = self.path_for(str(name))
        if not path.exists():
            raise FileNotFoundError(
                f"no run named {name!r} under {self.root} "
                f"(registered: {self.names() or 'none'})")
        return RunRecord.load(path, name=str(name))

    def records(self) -> List[RunRecord]:
        return [self.load(name) for name in self.names()]

    def index(self) -> List[Dict[str, Any]]:
        """Summary rows for every registered run (name-sorted)."""
        return [record.summary() for record in self.records()]

    # ------------------------------------------------------------------
    def ingest(self, journal_path, name: Optional[str] = None,
               overwrite: bool = False) -> RunRecord:
        """Copy a finished journal into the registry under ``name``.

        The journal is validated first (it must parse and carry a
        header); the default name is the journal's file stem suffixed
        with the run fingerprint id, so re-ingesting the same setup is
        idempotent while two different setups never collide.
        """
        source = Path(journal_path)
        contents = TrialJournal.read_all(source)  # raises on non-journals
        if contents.header is None:
            raise ValueError(f"{source} has no journal header — refusing "
                             f"to register an unidentifiable run")
        if name is None:
            fingerprint = contents.header.get("fingerprint") or {}
            name = f"{source.stem}-{run_fingerprint_id(fingerprint)}"
        destination = self.path_for(name)
        if destination.exists() and not overwrite \
                and destination.resolve() != source.resolve():
            raise FileExistsError(
                f"run {name!r} already registered at {destination}; "
                f"pass overwrite=True to replace it")
        self.root.mkdir(parents=True, exist_ok=True)
        if destination.resolve() != source.resolve():
            shutil.copyfile(source, destination)
        return RunRecord(name=name, path=destination, contents=contents)

    # ------------------------------------------------------------------
    def diff(self, a, b) -> List[Dict[str, Any]]:
        """Config-only diff of two runs (see :func:`fingerprint_diff`)."""
        record_a, record_b = self.load(a), self.load(b)
        return fingerprint_diff(record_a.fingerprint, record_b.fingerprint)

    def compare(self, a, b) -> RunDiff:
        """Full comparison: config diff + leaderboard and trial deltas."""
        record_a, record_b = self.load(a), self.load(b)
        diff = RunDiff(a=record_a, b=record_b,
                       config=fingerprint_diff(record_a.fingerprint,
                                               record_b.fingerprint))
        best_a, best_b = record_a.best, record_b.best
        if best_a is not None and best_b is not None:
            diff.best_delta = float(best_b.score) - float(best_a.score)
        scores_a = {r.trial_id: float(r.score)
                    for r in record_a.results() if not r.failed}
        scores_b = {r.trial_id: float(r.score)
                    for r in record_b.results() if not r.failed}
        for trial_id in sorted(set(scores_a) & set(scores_b)):
            diff.shared_trials.append({
                "trial_id": int(trial_id),
                "a": scores_a[trial_id],
                "b": scores_b[trial_id],
                "delta": scores_b[trial_id] - scores_a[trial_id],
            })
        return diff


__all__ = ["RunRecord", "RunRegistry", "RunDiff", "fingerprint_diff",
           "run_fingerprint_id"]
