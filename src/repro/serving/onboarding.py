"""Online onboarding of new nodes — the serving-time analogue of AutoAC.

The paper completes attributes for the no-attribute nodes (V⁻) that exist
at training time.  A live system keeps receiving *new* nodes (a fresh
movie, a new user) that must be served before the next retrain.  This
module implements that path on top of a loaded bundle:

1. the node (plus its edges to existing nodes) is appended to a private
   copy of the graph — :meth:`~repro.graph.HeteroGraph.append_node`
   invalidates only the adjacency-cache entries whose node type is
   affected, so unrelated cached CSR blocks survive;
2. if its type has no raw attributes, the node is routed to a completion
   cluster by majority vote over its onboarded/base V⁻ neighbors and the
   cluster's *searched* completion op is run inductively to synthesize
   its attribute (``one_hot``, the only non-inductive op, falls back to
   the cluster centroid of the bundle's completed attributes);
3. one forward (existing rows of ``h0`` frozen) yields the node's
   prediction/embedding, which is stored in an overlay.  Message passing
   is L layers deep, so the node's output depends only on its L-hop
   in-neighbourhood: backbones that accept a view (``supports_sampling``)
   run the serving model as loaded on exactly that receptive field, with
   every in-neighbour kept.  View operators take their coefficients from
   the updated graph, so the answer is the full forward's.
   ``onboard_fanout`` optionally caps the in-neighbours per relation (an
   approximation).  Other backbones are rebuilt over the updated graph
   and run one full forward, their only path.

Pre-existing nodes keep being served from the *base* state, so onboarding
never changes an existing answer; the overlay is folded into ground truth
at the next offline retrain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

import time

from ..completion import build_op
from ..datasets import HeteroDataset
from ..graph import Relation
from ..graph.sampler import NeighborSampler
from ..models import BaseHGNN, build_model
from ..telemetry import MetricsRegistry, Tracer
from ..tensor import Tensor, no_grad
from .artifact import ModelBundle

EdgeSpec = Mapping[Union[Relation, str], "np.ndarray"]


def parse_relation(key: Union[Relation, str]) -> Relation:
    """Accept ``(src, name, dst)`` tuples or ``"src:name:dst"`` strings."""
    if isinstance(key, str):
        parts = tuple(key.split(":"))
        if len(parts) != 3:
            raise ValueError(
                f"relation string must look like 'src:name:dst', got {key!r}")
        return parts  # type: ignore[return-value]
    key = tuple(key)
    if len(key) != 3:
        raise ValueError(f"relation must have 3 components, got {key!r}")
    return key  # type: ignore[return-value]


@dataclass
class OnboardResult:
    """Everything the serving layer knows about one onboarded node."""

    node_type: str
    local_id: int                       # local id within its type (stable)
    global_id: int                      # in the updated graph at onboard time
    cluster: Optional[int]              # completion cluster (V⁻ types only)
    op_name: Optional[str]              # searched op used for the attribute
    completed: Optional[np.ndarray]     # synthesized attribute (hidden dim)
    logits: Optional[np.ndarray]        # classifier logits (target type only)
    prediction: Optional[int]
    label: Optional[str]
    embedding: Optional[np.ndarray]

    def to_json(self) -> Dict:
        return {
            "node_type": self.node_type,
            "node_id": self.local_id,
            "global_id": self.global_id,
            "cluster": self.cluster,
            "op": self.op_name,
            "prediction": self.prediction,
            "label": self.label,
            "embedding": (None if self.embedding is None
                          else self.embedding.tolist()),
        }

    def to_wire(self) -> Dict:
        """The *complete* result as a JSON-able overlay delta.

        Unlike :meth:`to_json` (the client-facing reply, which drops
        the logits), the wire form carries everything a reader process
        needs to serve this node from its overlay without recomputing —
        the payload the tier's writer broadcasts after an onboard.
        Python floats round-trip JSON exactly, so an installed delta
        serves bit-identical answers.
        """

        def _array(value):
            if value is None:
                return None
            value = np.asarray(value)
            return {"dtype": value.dtype.str, "data": value.tolist()}

        return {
            "node_type": self.node_type,
            "local_id": self.local_id,
            "global_id": self.global_id,
            "cluster": self.cluster,
            "op_name": self.op_name,
            "completed": _array(self.completed),
            "logits": _array(self.logits),
            "prediction": self.prediction,
            "label": self.label,
            "embedding": _array(self.embedding),
        }

    @classmethod
    def from_wire(cls, payload: Mapping) -> "OnboardResult":
        """Rebuild a result from :meth:`to_wire` output (exact)."""

        def _array(entry):
            if entry is None:
                return None
            return np.asarray(entry["data"], dtype=np.dtype(entry["dtype"]))

        return cls(
            node_type=payload["node_type"],
            local_id=int(payload["local_id"]),
            global_id=int(payload["global_id"]),
            cluster=(None if payload.get("cluster") is None
                     else int(payload["cluster"])),
            op_name=payload.get("op_name"),
            completed=_array(payload.get("completed")),
            logits=_array(payload.get("logits")),
            prediction=(None if payload.get("prediction") is None
                        else int(payload["prediction"])),
            label=payload.get("label"),
            embedding=_array(payload.get("embedding")),
        )


class OnboardingManager:
    """Owns the mutable serving-side graph and the onboarded-node overlay."""

    def __init__(self, bundle: ModelBundle, base_dataset: HeteroDataset,
                 base_h0: np.ndarray, model: BaseHGNN,
                 fanout: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.bundle = bundle
        self.base = base_dataset
        #: the serving model (eval mode); view-capable backbones run it as
        #: is on the new node's receptive field
        self.model = model
        #: optional per-relation cap on the in-neighbours of that view
        #: (None keeps every one: exact)
        self._fanout = fanout
        # the engine hands down its private registry/tracer so onboarding
        # shows up in the same /metrics scrape and trace stream
        self.metrics = registry or MetricsRegistry()
        self.tracer = tracer or Tracer(None)
        self._m_onboards = self.metrics.counter(
            "onboard_nodes_total", "Nodes onboarded online",
            labels=("node_type",))
        self._m_failures = self.metrics.counter(
            "onboard_failures_total", "Onboard attempts rolled back",
            labels=("node_type",))
        self._m_seconds = self.metrics.histogram(
            "onboard_seconds", "Wall time per onboarded node")
        self._m_overlay = self.metrics.gauge(
            "onboard_overlay_size", "Onboarded nodes served from overlay",
            aggregation="max")
        self._dataset: Optional[HeteroDataset] = None  # mutable copy, lazy
        self._h0 = np.asarray(base_h0).copy()
        self._results: Dict[Tuple[str, int], OnboardResult] = {}
        # bundle rows (assignment / cluster_labels / completed) follow the
        # base dataset's missing_global_ids: per-type contiguous blocks
        self._missing_row_start: Dict[str, int] = {}
        offset = 0
        for node_type in base_dataset.missing_types:
            self._missing_row_start[node_type] = offset
            offset += base_dataset.graph.num_nodes_of(node_type)

    def __len__(self) -> int:
        return len(self._results)

    def target_overlay(self) -> Dict[int, OnboardResult]:
        """Onboarded *target-type* nodes keyed by their stable local id."""
        return {local_id: result
                for (node_type, local_id), result in self._results.items()
                if node_type == self.bundle.target_type}

    def result(self, node_type: str, local_id: int) -> OnboardResult:
        return self._results[(node_type, local_id)]

    # ------------------------------------------------------------------
    def _mutable_dataset(self) -> HeteroDataset:
        if self._dataset is None:
            self._dataset = replace(
                self.base,
                graph=self.base.graph.copy(),
                features=dict(self.base.features),
                labels=self.base.labels.copy(),
                latent_communities=None,
            )
        return self._dataset

    def _base_cluster(self, node_type: str, local_id: int) -> Optional[int]:
        """Completion cluster of an existing V⁻ node (None for V⁺ nodes)."""
        if node_type not in self._missing_row_start:
            return None
        if local_id >= self.base.graph.num_nodes_of(node_type):
            onboarded = self._results.get((node_type, local_id))
            return None if onboarded is None else onboarded.cluster
        row = self._missing_row_start[node_type] + local_id
        if row >= self.bundle.cluster_labels.shape[0]:
            return None
        return int(self.bundle.cluster_labels[row])

    def _vote_cluster(self, node_type: str,
                      neighbors: List[Tuple[str, int]]) -> int:
        """Majority completion cluster over V⁻ neighbors, with fallbacks."""
        votes = [cluster for other_type, local_id in neighbors
                 for cluster in [self._base_cluster(other_type, local_id)]
                 if cluster is not None]
        if not votes:  # fall back to the node type's own majority cluster
            start = self._missing_row_start[node_type]
            count = self.base.graph.num_nodes_of(node_type)
            votes = self.bundle.cluster_labels[start:start + count].tolist()
        if not votes:
            return 0
        return int(np.bincount(np.asarray(votes, dtype=np.int64)).argmax())

    def _cluster_op(self, cluster: int) -> int:
        """The searched op of a cluster (majority over its members)."""
        members = self.bundle.assignment[self.bundle.cluster_labels == cluster]
        pool = members if members.size else self.bundle.assignment
        if not pool.size:
            raise ValueError("bundle has no completion assignment to "
                             "onboard attribute-less nodes with")
        return int(np.bincount(np.asarray(pool, dtype=np.int64)).argmax())

    def _synthesize_attribute(self, dataset: HeteroDataset, node_type: str,
                              new_local: int, cluster: int,
                              op_index: int) -> np.ndarray:
        """Run the cluster's searched completion op for the new node.

        Topology ops are rebuilt on the updated graph and applied with the
        *saved* transform weights — the inductive analogue of training-time
        completion.  ``one_hot`` has no inductive form, so the cluster
        centroid of the bundle's completed attributes stands in.
        """
        op_name = self.bundle.op_names[op_index]
        if op_name == "one_hot":
            members = np.flatnonzero(self.bundle.cluster_labels == cluster)
            pool = (self.bundle.completed[members] if members.size
                    else self.bundle.completed)
            if pool.shape[0] == 0:
                return np.zeros(self.bundle.hidden_dim)
            return pool.mean(axis=0)
        op = build_op(op_name, dataset, self.bundle.hidden_dim)
        gid = dataset.graph.to_global(node_type, np.array([new_local]))[0]
        row = int(np.flatnonzero(dataset.missing_global_ids == gid)[0])
        weight = self.bundle.features_state[f"ops.{op_index}.weight"]
        return np.asarray(op._base[row] @ weight)

    def _updated_model(self, dataset: HeteroDataset) -> BaseHGNN:
        """The bundle's backbone rebuilt over the updated graph (for
        backbones that cannot run on a view)."""
        try:
            model = build_model(self.bundle.model_name, dataset,
                                hidden_dim=self.bundle.hidden_dim,
                                out_dim=self.bundle.out_dim,
                                **self.bundle.model_kwargs)
            model.load_state_dict(self.bundle.model_state)
        except (KeyError, ValueError) as error:
            raise RuntimeError(
                f"backbone {self.bundle.model_name!r} cannot be rebuilt "
                f"inductively after onboarding: {error}") from error
        model.eval()
        return model

    # ------------------------------------------------------------------
    def onboard(self, node_type: str, edges: EdgeSpec,
                raw_features=None) -> OnboardResult:
        """Append one node, synthesize its attribute, freeze its result."""
        start = time.perf_counter()
        with self.tracer.span("onboard", node_type=node_type) as span:
            try:
                result = self._onboard(node_type, edges, raw_features, span)
            except Exception:
                # the rollback in _onboard already ran; count the attempt
                self._m_failures.inc(node_type=node_type)
                raise
        self._m_onboards.inc(node_type=node_type)
        self._m_seconds.observe(time.perf_counter() - start)
        self._m_overlay.set(len(self._results))
        return result

    def _encode_new_node(self, dataset: HeteroDataset, node_type: str,
                         new_local: int, gid: int, h0_updated: np.ndarray,
                         span) -> Tuple[Optional[np.ndarray],
                                        Optional[np.ndarray]]:
        """``(logits_row, embedding)`` of the new node.

        Sets ``view_nodes``/``view_edges`` on the ``onboard`` span: the
        receptive field's size, or the whole graph's on the full path.
        """
        graph = dataset.graph
        target = node_type == dataset.target_type
        with no_grad():
            if self.model.supports_sampling:
                # seeded by the global id, so a capped (random) view is
                # the same on a retry or a WAL replay
                view = NeighborSampler(
                    graph, fanout=self._fanout,
                    num_layers=getattr(self.model, "num_layers", 2),
                    seed=gid).sample(np.array([gid], dtype=np.int64))
                span.set(view_nodes=view.num_nodes,
                         view_edges=view.num_edges())
                encoded = self.model.encode(
                    Tensor(h0_updated[view.node_ids]), view=view)
                rows, model = encoded[view.seed_local], self.model
            else:
                span.set(view_nodes=graph.num_nodes,
                         view_edges=graph.num_edges())
                model = self._updated_model(dataset)
                encoded = model.encode(Tensor(h0_updated))
                if not (model.full_graph or target):
                    return None, None  # only the target type is embedded
                rows = encoded[np.array([gid if model.full_graph
                                         else new_local])]
            embedding = np.asarray(rows.data[0]).copy()
            logits_row = (np.asarray(model.classifier(rows).data[0]).copy()
                          if target else None)
        return logits_row, embedding

    def _onboard(self, node_type: str, edges: EdgeSpec,
                 raw_features, span) -> OnboardResult:
        dataset = self._mutable_dataset()
        graph = dataset.graph
        if node_type not in graph.node_types:
            raise KeyError(f"unknown node type {node_type!r}")
        parsed = {parse_relation(key): np.asarray(value, dtype=np.int64).ravel()
                  for key, value in edges.items()}
        neighbors: List[Tuple[str, int]] = []
        for relation, ids in parsed.items():
            other = relation[2] if relation[0] == node_type else relation[0]
            neighbors.extend((other, int(local_id)) for local_id in ids)

        attributed = dataset.features[node_type] is not None
        raw = None
        if attributed:
            if raw_features is None:
                raise ValueError(
                    f"type {node_type!r} is attributed; onboarding needs "
                    f"its raw feature vector")
            raw = np.asarray(raw_features, dtype=np.float64).ravel()
            raw_dim = dataset.features[node_type].shape[1]
            if raw.shape[0] != raw_dim:
                raise ValueError(
                    f"raw feature dim {raw.shape[0]} != {raw_dim} "
                    f"for type {node_type!r}")

        # everything past this point must be atomic: a failure (e.g. a
        # full-forward backbone with node-count-dependent parameters that
        # cannot be rebuilt inductively) rolls the graph/features/labels
        # back so retried onboards cannot grow ghost state
        old_features = dataset.features[node_type]
        old_labels = dataset.labels
        new_local = graph.append_node(node_type, parsed)
        try:
            gid = int(graph.to_global(node_type, np.array([new_local]))[0])
            cluster: Optional[int] = None
            op_name: Optional[str] = None
            if attributed:
                dataset.features[node_type] = np.vstack([old_features, raw])
                weight = self.bundle.features_state[
                    f"projector.projections.{node_type}.weight"]
                bias = self.bundle.features_state[
                    f"projector.projections.{node_type}.bias"]
                h0_row = raw @ weight + bias
                completed_row = None
            else:
                cluster = self._vote_cluster(node_type, neighbors)
                op_index = self._cluster_op(cluster)
                op_name = self.bundle.op_names[op_index]
                completed_row = self._synthesize_attribute(
                    dataset, node_type, new_local, cluster, op_index)
                h0_row = completed_row
            if node_type == dataset.target_type:
                dataset.labels = np.concatenate(
                    [old_labels, np.array([-1], dtype=old_labels.dtype)])

            h0_updated = np.insert(self._h0, gid, h0_row, axis=0)

            logits_row, embedding = self._encode_new_node(
                dataset, node_type, new_local, gid, h0_updated, span)
            prediction = label = None
            if logits_row is not None:
                prediction = int(np.argmax(logits_row))
                label = self.bundle.label_names[prediction]
        except Exception:
            graph.pop_node(node_type)
            dataset.features[node_type] = old_features
            dataset.labels = old_labels
            raise

        self._h0 = h0_updated
        result = OnboardResult(
            node_type=node_type, local_id=new_local, global_id=gid,
            cluster=cluster, op_name=op_name, completed=completed_row,
            logits=logits_row, prediction=prediction, label=label,
            embedding=embedding)
        self._results[(node_type, new_local)] = result
        return result


__all__ = ["OnboardResult", "OnboardingManager", "parse_relation"]
