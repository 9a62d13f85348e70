"""Table-backed inference over a loaded :class:`~repro.serving.ModelBundle`.

After search and retrain, the completed attributes, the searched ops and
the model weights are fixed, so every base prediction is a constant.  The
engine therefore does all model work once, at load:

* it freezes the reconstructed initial embedding ``h0`` (one pass
  through the retrained feature builder, reusing ``HeteroGraph``'s cached
  normalized CSR operators), then
* runs ONE ``model.encode(h0)`` and keeps the answer table: the target
  logits (``classifier(encoded[target_ids])``, the code path of
  ``model(h0)``) and, for full-graph backbones, every node's embedding.

``predict*`` and ``embed`` are then an index into that table.  Onboarded
nodes (see :mod:`repro.serving.onboarding`) are served from an overlay:
their results are computed once at onboarding time against the updated
graph, while every pre-existing node keeps its table row — so onboarding
can never change an existing prediction.

Every counter lives on a per-engine
:class:`~repro.telemetry.MetricsRegistry` (queries, lookup calls, the
load-time forward, lookup latency), surfaced by
:meth:`InferenceEngine.stats` (the ``/stats`` endpoint) and the
Prometheus ``/metrics`` endpoint.  When a :class:`~repro.telemetry.Tracer`
is attached, the table build reports as a ``forward`` span with per-op
timings (through :mod:`repro.tensor._profile`), and each lookup call as a
``batch`` span under the caller's trace id (the HTTP handler's
``http_request`` span).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..datasets import HeteroDataset
from ..faults import fault_site
from ..telemetry import MetricsRegistry, Tracer, get_tracer
from ..tensor import Tensor, no_grad
from .admission import check_deadline
from .artifact import ModelBundle
from .onboarding import OnboardingManager, OnboardResult
from .wal import OnboardWAL, WalReplayError


@dataclass
class EngineConfig:
    """Serving knobs."""

    #: optional per-relation cap on the in-neighbours an onboarding
    #: forward keeps (backbones with ``supports_sampling``).  None, the
    #: default, keeps every one: the new node's exact receptive field,
    #: whose answer equals a full forward over the updated graph; a cap
    #: trades that exactness for a bounded view on high-degree nodes
    onboard_fanout: Optional[int] = None

    def __post_init__(self) -> None:
        if self.onboard_fanout is not None and self.onboard_fanout <= 0:
            raise ValueError("onboard_fanout must be positive when set")


def _as_ids(node_ids) -> np.ndarray:
    """One id, a list/tuple of ids or an integer array, as 1-D int64.

    The one place ids are checked: anything but integers (bools, floats,
    strings, nested lists) raises ``ValueError``, which both HTTP fronts
    answer with 400.
    """
    if isinstance(node_ids, np.ndarray):
        if node_ids.ndim > 1 or (node_ids.size
                                 and node_ids.dtype.kind not in "iu"):
            raise ValueError(f"node ids must be integers, got a "
                             f"{node_ids.dtype} array of shape "
                             f"{node_ids.shape}")
        return node_ids.astype(np.int64).reshape(-1)
    items = node_ids if isinstance(node_ids, (list, tuple)) else [node_ids]
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            raise ValueError(f"node ids must be integers, got {item!r}")
    try:
        return np.array(items, dtype=np.int64)
    except OverflowError:
        raise ValueError("node id out of the int64 range") from None


class InferenceEngine:
    """Answers ``predict`` / ``embed`` queries from a table built at load."""

    def __init__(self, bundle: ModelBundle,
                 config: Optional[EngineConfig] = None,
                 dataset: Optional[HeteroDataset] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.bundle = bundle
        self.config = config or EngineConfig()
        self.dataset, self.model, self.features = bundle.instantiate(dataset)
        #: a PRIVATE registry per engine, so two engines in one process
        #: never cross-count; the HTTP server merges it with the global
        #: registry for /metrics
        self.metrics = registry or MetricsRegistry()
        self.tracer = tracer or get_tracer()
        m = self.metrics
        self._m_queries = m.counter(
            "engine_queries_total", "Queries answered", labels=("kind",))
        self._m_batches = m.counter(
            "engine_batches_total", "Lookup calls answered")
        self._m_forwards = m.counter(
            "engine_forward_passes_total", "Full model forward passes",
            labels=("kind",))
        self._m_batch_seconds = m.histogram(
            "engine_batch_seconds", "Wall time per lookup call")
        with no_grad():
            self._h0 = np.asarray(self.features().data).copy()
        graph = self.dataset.graph
        self._num_target = graph.num_nodes_of(bundle.target_type)
        self._num_nodes = graph.num_nodes
        self._logits, self._embeddings = self._build_table()
        self._lock = threading.RLock()
        self._onboarding: Optional[OnboardingManager] = None
        #: overlay deltas *installed* from a peer's onboard (see
        #: :meth:`install_overlay`) — served exactly like locally
        #: onboarded nodes but never recomputed here
        self._installed: Dict[Tuple[str, int], OnboardResult] = {}
        self._wal: Optional[OnboardWAL] = None
        self._started = time.perf_counter()

    @classmethod
    def from_path(cls, path, config: Optional[EngineConfig] = None,
                  dataset: Optional[HeteroDataset] = None,
                  registry: Optional[MetricsRegistry] = None,
                  tracer: Optional[Tracer] = None) -> "InferenceEngine":
        """Load a saved bundle file and build an engine around it."""
        return cls(ModelBundle.load(path), config=config, dataset=dataset,
                   registry=registry, tracer=tracer)

    # ------------------------------------------------------------------
    # The answer table (one forward, at load)
    # ------------------------------------------------------------------
    def _build_table(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Target logits, plus every node's embedding for full-graph
        backbones (None otherwise), from the frozen base state."""
        fault_site("engine.forward", key="table")
        self._m_forwards.inc(kind="table")
        with self.tracer.span("forward", capture_ops=True, kind="table"):
            with no_grad():
                encoded = self.model.encode(Tensor(self._h0))
                logits = self.model.classifier(
                    self.model.target_rows(encoded))
        return (np.asarray(logits.data),
                np.asarray(encoded.data) if self.model.full_graph else None)

    def _overlay_targets(self) -> Dict[int, OnboardResult]:
        overlay: Dict[int, OnboardResult] = {
            local_id: result
            for (node_type, local_id), result in self._installed.items()
            if node_type == self.bundle.target_type}
        if self._onboarding is not None:
            # a locally computed result is authoritative over an
            # installed copy of itself (they are identical by contract)
            overlay.update(self._onboarding.target_overlay())
        return overlay

    def _rows(self, kind: str, node_ids) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the table (or overlay) row of every queried id."""
        ids = _as_ids(node_ids)
        with self._lock:
            overlay: Dict[int, OnboardResult] = {}
            if kind == "predict":
                table = self._logits
                if ids.size and ids.max() >= len(table):
                    overlay = self._overlay_targets()
            elif self._embeddings is None:
                raise ValueError(
                    f"backbone {self.bundle.model_name!r} only embeds the "
                    f"target type; embed() needs a full-graph model")
            else:
                table = self._embeddings
            limit = len(table) + len(overlay)
            if ids.size and (ids.min() < 0 or ids.max() >= limit):
                raise ValueError(
                    f"{kind} ids out of range [0, {limit}) "
                    f"(got min={ids.min()}, max={ids.max()})")
            fault_site("engine.flush")
            check_deadline("batch")
            with self.tracer.span("batch", kind=kind, queries=len(ids)):
                start = time.perf_counter()
                if overlay:
                    rows = np.stack([table[i] if i < len(table)
                                     else overlay[i].logits
                                     for i in ids.tolist()])
                else:
                    rows = table[ids]
                self._m_queries.inc(len(ids), kind=kind)
                self._m_batches.inc()
                self._m_batch_seconds.observe(time.perf_counter() - start)
        return ids, rows

    def predict(self, node_ids) -> np.ndarray:
        """Class index per target-type *local* node id."""
        return np.argmax(self._rows("predict", node_ids)[1], axis=1)

    def predict_batch(self, node_ids) -> List[Dict]:
        """Predictions as JSON-able dicts (the HTTP path)."""
        ids, rows = self._rows("predict", node_ids)
        names = self.bundle.label_names
        return [{"node_id": node_id, "prediction": index,
                 "label": names[index]}
                for node_id, index in zip(ids.tolist(),
                                          np.argmax(rows, axis=1).tolist())]

    def predict_logits(self, node_ids) -> np.ndarray:
        """Raw classifier logits, one row per queried node."""
        return self._rows("predict", node_ids)[1]

    def predict_labels(self, node_ids) -> List[str]:
        """Human-readable label (bundle label map) per queried node."""
        return [self.bundle.label_names[index]
                for index in self.predict(node_ids)]

    def embed(self, node_ids) -> np.ndarray:
        """Node embeddings by *global* id (base id space; full-graph models)."""
        return self._rows("embed", node_ids)[1]

    # ------------------------------------------------------------------
    # Online onboarding
    # ------------------------------------------------------------------
    def onboard(self, node_type: str, edges,
                raw_features=None) -> OnboardResult:
        """Add a new node online and return its (frozen) serving result.

        With a WAL attached (:meth:`attach_wal`), the request is
        durably logged *after* the in-memory onboard succeeds and
        *before* this method returns — so every result a caller ever
        saw is replayable, and a crashed half-onboard (which the
        manager rolled back anyway) never reaches the log.
        """
        with self._lock:
            if self._onboarding is None:
                self._onboarding = OnboardingManager(
                    self.bundle, self.dataset, self._h0, self.model,
                    fanout=self.config.onboard_fanout,
                    registry=self.metrics, tracer=self.tracer)
            fault_site("onboard.apply", key=node_type)
            result = self._onboarding.onboard(node_type, edges,
                                              raw_features=raw_features)
            if self._wal is not None and self._wal.writable:
                self._wal.append(node_type, edges, raw_features=raw_features)
            return result

    def install_overlay(self, result: OnboardResult) -> OnboardResult:
        """Adopt a peer's onboard result into this engine's overlay.

        The tier's single-writer protocol: one writer process computes
        an onboard (:meth:`onboard`, WAL first), then broadcasts the
        result as a compact delta (:meth:`OnboardResult.to_wire`); every
        reader installs it here.  Installation is pure bookkeeping — no
        graph mutation, no forward pass — so readers never block reads
        on writes, and the installed node serves the *writer's* exact
        logits.  Idempotent: re-installing the same node overwrites the
        same entry.
        """
        with self._lock:
            self._installed[(result.node_type, result.local_id)] = result
            return result

    def attach_wal(self, wal, replay: bool = True) -> int:
        """Attach an onboarding WAL (path or :class:`OnboardWAL`).

        Replays existing records through the normal onboarding path
        first (rebuilding the overlay a crash dropped), then opens the
        log for appending.  Returns the number of records replayed.
        Replay runs with the WAL closed, so replayed onboards are not
        re-appended.
        """
        if not isinstance(wal, OnboardWAL):
            wal = OnboardWAL(wal)
        with self._lock:
            if self._wal is not None:
                raise ValueError("engine already has a WAL attached")
            replayed = 0
            if replay:
                for index, record in enumerate(wal.records()):
                    try:
                        self.onboard(record["node_type"],
                                     record.get("edges") or {},
                                     raw_features=record.get("raw_features"))
                    except Exception as error:
                        raise WalReplayError(
                            f"replaying {wal.path} record {index} "
                            f"({record.get('node_type')!r}) failed: "
                            f"{error}") from error
                    replayed += 1
            self._wal = wal.open()
            return replayed

    def close(self) -> None:
        """Release owned resources (currently: the WAL file handle)."""
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    @property
    def num_onboarded(self) -> int:
        with self._lock:
            keys = set(self._installed)
            if self._onboarding is not None:
                keys.update(self._onboarding._results)
            return len(keys)

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Serving counters (JSON-able), read from the metrics registry.

        Every answer is a table or overlay lookup, so ``cache.hits``
        counts every answered query and ``cache.misses`` stays 0.
        ``forward_passes`` is the one load-time forward that built the
        table.  The ``latency`` block is per lookup call (one
        ``predict*``/``embed`` call, i.e. one HTTP request):
        ``mean_query_ms`` divides the total call time by the answered
        queries, the percentiles come from ``engine_batch_seconds``.
        """
        with self._lock:
            queries = int(self._m_queries.total())
            hist = self._m_batch_seconds
            seconds = hist.sum_total()
            return {
                "bundle": {
                    "dataset": self.bundle.dataset.name,
                    "scale": self.bundle.dataset.scale,
                    "model": self.bundle.model_name,
                    "target_type": self.bundle.target_type,
                    "num_target_nodes": self._num_target,
                    "num_nodes": self._num_nodes,
                },
                "uptime_seconds": time.perf_counter() - self._started,
                "queries": queries,
                "batches": int(self._m_batches.total()),
                "forward_passes": int(self._m_forwards.total()),
                "onboarded": self.num_onboarded,
                "cache": {"hits": queries, "misses": 0},
                "latency": {
                    "total_batch_seconds": seconds,
                    "mean_query_ms": (1e3 * seconds / queries
                                      if queries else 0.0),
                    "queries_per_second": (queries / seconds
                                           if seconds > 0 else 0.0),
                    "p50_ms": 1e3 * hist.percentile(0.50),
                    "p95_ms": 1e3 * hist.percentile(0.95),
                    "p99_ms": 1e3 * hist.percentile(0.99),
                },
            }


__all__ = ["EngineConfig", "InferenceEngine"]
