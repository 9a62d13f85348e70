"""Feature builders: assemble the global initial embedding ``h0``.

Every trainer in this repo consumes a :class:`FeatureBuilder` whose
``forward()`` returns an ``(N, hidden)`` tensor: raw attributes of V⁺
projected per type, plus completed attributes for V⁻ produced by some
completion policy.  Builders provided here:

* :class:`HandcraftedFeatures` — HGB's default: one-hot (embedding) per
  missing node; the baseline used by every handcrafted model in Table II.
* :class:`SingleOpFeatures`    — one fixed op for all V⁻ (Tables VI/VII).
* :class:`RandomOpFeatures`    — a random op per node (Tables VI/VII).
* :class:`WeightedCompletionFeatures` — mixes all candidate ops with
  per-node weights; AutoAC's relaxed/discrete search drives the weights
  (see :mod:`repro.core.search`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..datasets import HeteroDataset
from ..graph.sampler import GraphView
from ..tensor import (
    Linear,
    Module,
    ModuleDict,
    ModuleList,
    Tensor,
    gather_rows,
    get_default_dtype,
    no_grad,
    place_rows,
)
from .base import CompletionOp, ConstantProduct
from .ops import OneHotCompletion
from .space import SearchSpace


#: rows of ``h0`` and where they go: ``(values, row ids)``
Block = Tuple[Tensor, np.ndarray]


class AttributeProjector(Module):
    """Per-type linear projection of raw attributes into the hidden space."""

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__()
        self.dataset = dataset
        self.hidden_dim = hidden_dim
        self.projections = ModuleDict({
            node_type: Linear(dataset.features[node_type].shape[1], hidden_dim)
            for node_type in dataset.attributed_types
        })
        # raw attributes cast to the engine dtype once, not per forward
        self._raw = {
            node_type: np.asarray(dataset.features[node_type],
                                  dtype=get_default_dtype())
            for node_type in dataset.attributed_types
        }
        # full-graph blocks: kept while each projection keeps its bits
        self._products = {node_type: ConstantProduct()
                          for node_type in dataset.attributed_types}

    def forward(self, view: Optional[GraphView] = None) -> List[Block]:
        """Project every attributed type into ``(rows, ids)`` blocks.

        ``ids`` are the block's rows in ``h0``: global ids on the full
        graph, view-local ids for a :class:`~repro.graph.GraphView` (only
        the view's attributed members are gathered and projected, so
        every block is view-sized).  :class:`FeatureBuilder` places the
        blocks; V⁻ rows are not in any of them.  A full-graph block is a
        :class:`~repro.completion.base.ConstantProduct`, reused while its
        projection keeps its bits.
        """
        blocks = []
        for node_type in self.dataset.attributed_types:
            linear = self.projections[node_type]
            if view is None:
                block = self._products[node_type](
                    self._raw[node_type], linear.weight, linear.bias)
                ids = self.dataset.graph.global_ids(node_type)
            else:
                ids, parent_local = view.type_members(node_type)
                if ids.size == 0:
                    continue
                block = linear(Tensor(np.take(self._raw[node_type],
                                              parent_local, axis=0)))
            blocks.append((block, ids))
        if view is None and not blocks:
            raise ValueError("dataset has no attributed node types")
        return blocks

class FeatureBuilder(Module):
    """Base: produce the global initial embedding ``h0`` of shape (N, hidden)."""

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__()
        self.dataset = dataset
        self.hidden_dim = hidden_dim
        self.projector = AttributeProjector(dataset, hidden_dim)

    def completed(self) -> Optional[Tensor]:
        """Completed attributes for V⁻ (``(num_missing, hidden)``) or None."""
        raise NotImplementedError

    def completed_rows(self, rows: np.ndarray) -> Optional[Tensor]:
        """Completed attributes for the given ``missing_global_ids`` rows.

        The sampled execution path: shape ``(len(rows), hidden)``.  The
        base implementation slices the full completion (correct but not
        memory-bounded); builders whose ops support ``forward_rows``
        override it.
        """
        completed = self.completed()
        if completed is None:
            return None
        return gather_rows(completed, np.asarray(rows, dtype=np.int64))

    def _missing_blocks(self, rows: Optional[np.ndarray] = None
                        ) -> List[Tuple[Tensor, Optional[np.ndarray]]]:
        """The completed V⁻ rows as ``(values, at)`` blocks for ``h0``.

        ``at`` are the block's positions among V⁻ (``rows`` when given),
        ``None`` for all of them.  The base is one block:
        :meth:`completed` (or :meth:`completed_rows`) whole.
        """
        completed = (self.completed() if rows is None
                     else self.completed_rows(rows))
        return [] if completed is None else [(completed, None)]

    def _view_missing(self, view: GraphView) -> tuple:
        """``(view_local_positions, missing_rows)`` of the view's V⁻ nodes.

        Keyed per dataset: two datasets can share a graph (e.g. the
        lowered-missing-rate protocol) yet disagree on which types are V⁻.
        """
        def build() -> tuple:
            lookup = self.dataset.missing_row_of_global()
            rows_all = lookup[view.node_ids]
            positions = np.flatnonzero(rows_all >= 0).astype(np.int64)
            return positions, rows_all[positions]
        return view.cached(("missing_rows", id(self.dataset)), build)

    def forward(self, view: Optional[GraphView] = None) -> Tensor:
        """``h0``: the projected V⁺ blocks and the completed V⁻ blocks
        (:meth:`_missing_blocks`), placed by one
        :func:`~repro.tensor.place_rows` node (node types partition the
        rows)."""
        blocks = self.projector(view)
        if view is None:
            n = self.dataset.graph.num_nodes
            targets = self.dataset.missing_global_ids
            missing = self._missing_blocks() if targets.size else []
        else:
            n = view.num_nodes
            targets, rows = self._view_missing(view)
            missing = self._missing_blocks(rows) if rows.size else []
        blocks += [(values, targets if at is None else np.take(targets, at))
                   for values, at in missing]
        if not blocks:  # a batch may touch no attributed node at all
            return Tensor(np.zeros((n, self.hidden_dim),
                                   dtype=get_default_dtype()))
        return place_rows([block for block, _ in blocks],
                          [ids for _, ids in blocks], n)


class HandcraftedFeatures(FeatureBuilder):
    """HGB default: missing attributes replaced by one-hot × linear."""

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        self.one_hot = OneHotCompletion(dataset, hidden_dim)

    def completed(self) -> Optional[Tensor]:
        if not self.dataset.missing_global_ids.size:
            return None
        return self.one_hot()

    def completed_rows(self, rows: np.ndarray) -> Optional[Tensor]:
        if not self.dataset.missing_global_ids.size:
            return None
        return self.one_hot.forward_rows(rows)


class SingleOpFeatures(FeatureBuilder):
    """Every V⁻ node completed by the same single operation (ablation)."""

    def __init__(self, dataset: HeteroDataset, hidden_dim: int, op_name: str,
                 space: Optional[SearchSpace] = None) -> None:
        super().__init__(dataset, hidden_dim)
        space = space or SearchSpace()
        if op_name not in list(space):
            raise KeyError(f"op {op_name!r} not in search space {list(space)}")
        ops = space.build_ops(dataset, hidden_dim)
        self.op = ops[space.index(op_name)]
        self.op_name = op_name

    def completed(self) -> Optional[Tensor]:
        if not self.dataset.missing_global_ids.size:
            return None
        return self.op()

    def completed_rows(self, rows: np.ndarray) -> Optional[Tensor]:
        if not self.dataset.missing_global_ids.size:
            return None
        return self.op.forward_rows(rows)


class WeightedCompletionFeatures(FeatureBuilder):
    """Mix all candidate ops with per-node weights ``(num_missing, |O|)``.

    The weight matrix is supplied externally before each forward pass via
    :meth:`set_weights`; AutoAC's search sets either softmax-relaxed rows
    (continuous mode) or one-hot rows (discrete mode).  Constant one-hot
    weights (the discrete lower step, validation, retraining,
    :class:`FixedAssignmentFeatures`) are not multiplied in: each op's
    output gives only the rows assigned to it (one row gather), and the
    blocks are placed straight into ``h0`` — the saving the paper's
    discrete constraints buy (Table VIII).  An op with no row is skipped.
    Weights that require grad, or fractional ones, take the mixture
    ``Σ_k w[:, k] * op_k``; there a constant all-zero column is skipped.
    Both give the same ``h0`` and gradients bit for bit.

    Within one search epoch the upper step, the lower step and the
    validation pass read the same op outputs and projected V⁺ blocks
    (only the mixing weights differ); each op and projection keeps its
    output while its parameters keep their bits
    (:class:`~repro.completion.base.ConstantProduct`), so the epoch
    multiplies once.
    """

    def __init__(self, dataset: HeteroDataset, hidden_dim: int,
                 space: Optional[SearchSpace] = None) -> None:
        super().__init__(dataset, hidden_dim)
        self.space = space or SearchSpace()
        self.ops: ModuleList = self.space.build_ops(dataset, hidden_dim)
        self._weights: Optional[Tensor] = None

    def set_weights(self, weights: Tensor) -> None:
        """Set the per-node op weights used by the next forward pass."""
        expected = (self.dataset.missing_global_ids.shape[0], len(self.space))
        if tuple(weights.shape) != expected:
            raise ValueError(f"weights must have shape {expected}, "
                             f"got {tuple(weights.shape)}")
        self._weights = weights

    def refresh_candidates(self) -> None:
        """Compute every candidate (projected V⁺ blocks and op outputs) at
        the current parameters; each keeps its output for the next pass."""
        with no_grad():
            self.projector()
            for op in self.ops:
                op()

    def completed(self) -> Optional[Tensor]:
        return self._assemble(self._missing_blocks(),
                              self.dataset.missing_global_ids.shape[0])

    def completed_rows(self, rows: np.ndarray) -> Optional[Tensor]:
        """Completed attributes of the sampled V⁻ rows only.

        Every op used by one of these rows contributes
        ``forward_rows(rows)``; ops that no row uses are skipped, so
        discrete constraints save the same work per batch they save
        full-graph.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return self._assemble(self._missing_blocks(rows), rows.shape[0])

    @staticmethod
    def _assemble(blocks: List[Tuple[Tensor, Optional[np.ndarray]]],
                  num_rows: int) -> Optional[Tensor]:
        """:meth:`_missing_blocks` as one ``(num_rows, hidden)`` tensor."""
        if not blocks:
            return None
        if blocks[0][1] is None:
            return blocks[0][0]
        return place_rows([values for values, _ in blocks],
                          [at for _, at in blocks], num_rows)

    def _missing_blocks(self, rows: Optional[np.ndarray] = None
                        ) -> List[Tuple[Tensor, Optional[np.ndarray]]]:
        """Per-op row blocks under one-hot weights, else the mixture."""
        if not self.dataset.missing_global_ids.size:
            return []
        if rows is not None and rows.size == 0:
            return []
        if self._weights is None:
            raise RuntimeError("call set_weights() before forward()")
        assignment = self._one_hot_assignment()
        if assignment is None:
            return [(self._mixture(rows), None)]
        if rows is not None:
            assignment = assignment[rows]
        blocks = []
        for op_index, op in enumerate(self.ops):
            at = np.flatnonzero(assignment == op_index)
            if at.size:
                # the op runs on every row and its rows are gathered
                # after: a product over fewer rows may round differently
                blocks.append((gather_rows(self._op_rows(op, rows), at),
                               at))
        return blocks

    def _one_hot_assignment(self) -> Optional[np.ndarray]:
        """Each row's op when the weights are a constant one-hot matrix
        (no grad; every row a single 1 among zeros), else ``None``."""
        if self._weights.requires_grad:
            return None
        weights = self._weights.data
        assignment = weights.argmax(axis=1)
        # every row holds a 1 and there are as many nonzeros as rows
        if (np.count_nonzero(weights) != weights.shape[0]
                or not np.all(weights[np.arange(weights.shape[0]),
                                      assignment] == 1.0)):
            return None
        return assignment

    @staticmethod
    def _op_rows(op: CompletionOp, rows: Optional[np.ndarray]) -> Tensor:
        """The op's output on all V⁻ rows, or on ``rows`` only."""
        return op() if rows is None else op.forward_rows(rows)

    def _mixture(self, rows: Optional[np.ndarray] = None) -> Tensor:
        """``Σ_k w[:, k] * op_k``: the composite for weights that require
        grad (the α step) or are fractional.  A constant all-zero
        column's op is skipped."""
        weights = (self._weights if rows is None
                   else gather_rows(self._weights, rows))
        total = None
        for op_index, op in enumerate(self.ops):
            column = weights[:, op_index].reshape(-1, 1)
            if not column.requires_grad and not np.any(column.data):
                continue
            term = column * self._op_rows(op, rows)
            total = term if total is None else total + term
        if total is None:  # all weights zero
            raise RuntimeError("no completion op active")
        return total


class FixedAssignmentFeatures(WeightedCompletionFeatures):
    """Completion driven by a frozen per-node op assignment.

    Used for (a) the random-completion ablation and (b) retraining from a
    searched assignment.
    """

    def __init__(self, dataset: HeteroDataset, hidden_dim: int,
                 assignment: np.ndarray,
                 space: Optional[SearchSpace] = None) -> None:
        super().__init__(dataset, hidden_dim, space=space)
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape[0] != dataset.missing_global_ids.shape[0]:
            raise ValueError("assignment must cover every V⁻ node")
        if assignment.size and (assignment.min() < 0
                                or assignment.max() >= len(self.space)):
            raise ValueError("assignment indices out of range for the space")
        self.assignment = assignment
        weights = np.zeros((assignment.shape[0], len(self.space)))
        if assignment.size:
            weights[np.arange(assignment.shape[0]), assignment] = 1.0
        self.set_weights(Tensor(weights))

    @classmethod
    def random(cls, dataset: HeteroDataset, hidden_dim: int,
               rng: np.random.Generator,
               space: Optional[SearchSpace] = None) -> "FixedAssignmentFeatures":
        space = space or SearchSpace()
        assignment = rng.integers(0, len(space),
                                  size=dataset.missing_global_ids.shape[0])
        return cls(dataset, hidden_dim, assignment, space=space)


__all__ = [
    "AttributeProjector",
    "FeatureBuilder",
    "HandcraftedFeatures",
    "SingleOpFeatures",
    "WeightedCompletionFeatures",
    "FixedAssignmentFeatures",
]
