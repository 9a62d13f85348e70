"""Shared plumbing for the heterogeneous GNN zoo.

Every model consumes the global initial embedding ``h0`` (``(N, hidden)``,
produced by a feature builder) and exposes:

* ``encode(h0)`` — node representations; ``(N, d)`` for full-graph models,
  ``(N_target, d)`` for metapath models that only embed the target type;
* ``forward(h0, rows=None)`` — classification logits over the target
  type, or over its ``rows`` only (what a loss or an evaluation reads).

Link prediction uses ``encode`` directly (only full-graph models qualify).

Sampled execution: models that declare ``supports_sampling = True``
additionally accept a :class:`~repro.graph.GraphView` — ``encode(h0_view,
view=view)`` runs the same layer math over the view's sub-operators and
returns ``(V, d)`` where ``V`` is the view size, with the batch's seed
nodes in the first rows.  Full-graph-only models keep the default
``supports_sampling = False`` and raise a clear error if handed a view.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..datasets import HeteroDataset
from ..graph.sampler import GraphView
from ..tensor import Linear, Module, Tensor


class BaseHGNN(Module):
    """Base heterogeneous GNN: encode + target-type classifier head."""

    #: whether ``encode`` covers all global nodes (needed for link prediction)
    full_graph: bool = True
    #: whether ``encode``/``forward`` accept a sampled ``view=`` (mini-batch
    #: execution); models without a view-aware message-passing path keep
    #: False and are rejected by the mini-batch trainer up front
    supports_sampling: bool = False

    def __init__(self, dataset: HeteroDataset, hidden_dim: int,
                 out_dim: int) -> None:
        super().__init__()
        self.dataset = dataset
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim
        self.classifier = Linear(out_dim, dataset.num_classes)

    # ------------------------------------------------------------------
    def encode(self, h0: Tensor,
               view: Optional[GraphView] = None) -> Tensor:
        raise NotImplementedError

    def _require_sampling(self) -> None:
        if not self.supports_sampling:
            raise ValueError(
                f"{type(self).__name__} is full-graph only "
                f"(supports_sampling=False); it cannot run on a sampled "
                f"GraphView")

    def target_embeddings(self, h0: Tensor,
                          view: Optional[GraphView] = None) -> Tensor:
        """Target-type representations.

        Full graph: ``(N_target, out_dim)``.  With a view whose seeds are
        target-type nodes: ``(B, out_dim)`` — the seed rows, which the
        sampler places first in the view.
        """
        if view is not None:
            self._require_sampling()
            encoded = self.encode(h0, view=view)
            return encoded[view.seed_local]
        return self.target_rows(self.encode(h0))

    def target_rows(self, encoded: Tensor) -> Tensor:
        """The target-type rows of a full-graph ``encode`` output."""
        if self.full_graph:
            return encoded[self.dataset.graph.global_ids(self.dataset.target_type)]
        return encoded

    def forward(self, h0: Tensor, view: Optional[GraphView] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        """Target-type logits; only those of ``rows`` (target-type local
        indices, as the split arrays are) when given.  Models may compute
        just the work those rows read; the logits then equal the full
        pass's rows to float precision, not bit for bit."""
        logits = self.classifier(self.target_embeddings(h0, view=view))
        return logits if rows is None else logits[rows]


def edge_arrays_with_self_loops(
    dataset: HeteroDataset,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Global ``(src, dst, etype)`` arrays plus a self-loop pseudo-relation.

    Self loops get their own edge-type id (``num_relations``), the HGB
    convention SimpleHGN relies on.  Returns ``(src, dst, etype,
    num_edge_types)``.  The arrays are built once per graph and cached on
    it (see :meth:`repro.graph.HeteroGraph.edge_arrays_with_self_loops`) —
    every edge-list model constructed over the same topology shares them;
    sampled views cache their own analogue per view.
    """
    return dataset.graph.edge_arrays_with_self_loops()


__all__ = ["BaseHGNN", "edge_arrays_with_self_loops"]
