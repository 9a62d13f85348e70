"""The four completion operations of the AutoAC search space (paper §IV-A).

* :class:`MeanCompletion`   — average of attributed 1-hop neighbors (GraphSage
  style), ``x_v = W · mean{x_u : u ∈ N_v⁺}``.
* :class:`GCNCompletion`    — renormalized spectral aggregation,
  ``x_v = Σ_u (deg v · deg u)^{-1/2} x_u W`` over attributed neighbors.
* :class:`PPNPCompletion`   — personalized-PageRank diffusion of the
  zero-filled attribute matrix (global, multi-hop).
* :class:`OneHotCompletion` — learnable per-node embedding (one-hot encoding
  followed by a linear projection, fused into an embedding table).

Every topology-dependent op factors as ``completed = (P X)[V⁻] @ W`` with a
*constant* propagation operator ``P``.  ``P`` is assembled from the
graph's LRU-cached CSR adjacency
(:meth:`repro.graph.HeteroGraph.normalized_adjacency`), column-restricted
/ normalized with :class:`~repro.tensor.SparseTensor` transforms, and the
product ``P X`` runs through compiled CSR×dense kernels.
"""

from __future__ import annotations

import numpy as np

from .. import graph as G
from ..datasets import HeteroDataset
from ..tensor import (Parameter, SparseTensor, Tensor, gather_rows,
                      get_default_dtype, init)
from .base import CompletionOp, ConstantProduct


def _attributed_mask(dataset: HeteroDataset) -> np.ndarray:
    """Boolean mask over global node ids marking attributed (V⁺) nodes."""
    mask = np.zeros(dataset.graph.num_nodes, dtype=bool)
    mask[dataset.attributed_global_ids] = True
    return mask


def _attributed_restricted_adjacency(dataset: HeteroDataset) -> SparseTensor:
    """Global adjacency with non-attributed columns dropped (CSR)."""
    return (dataset.graph.adjacency_sparse(symmetric=True)
            .restrict_columns(_attributed_mask(dataset)))


def _propagate(operator: SparseTensor, features: np.ndarray) -> np.ndarray:
    """``operator @ features`` through the CSR kernel.

    The result is cast to the engine default dtype once here so op
    forwards never re-cast it (``Tensor(...)`` would copy otherwise).
    """
    return operator.matmul_data(features).astype(get_default_dtype(),
                                                 copy=False)


class PropagatedCompletion(CompletionOp):
    """Shared machinery for ops of the form ``base @ weight``.

    Subclasses precompute the constant propagated block ``self._base``
    (``(num_missing, raw_dim)``, in the engine dtype) in their
    constructor and register ``self.weight``.  The forward is a
    :class:`~repro.completion.base.ConstantProduct`: it keeps its output
    and reuses it while ``weight`` keeps its bits, so the passes of one
    search epoch (α step, ``w`` step, validation) multiply once.
    """

    _base: np.ndarray
    weight: Parameter

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        self._product = ConstantProduct()

    def forward(self) -> Tensor:
        return self._product(self._base, self.weight)

    def forward_rows(self, rows: np.ndarray) -> Tensor:
        """``base[rows] @ W`` — per-row completion for the sampled path.

        The gathered base block is ``(len(rows), raw_dim)``, so neither
        the forward nor its backward (``dL/dW = base[rows].T @ grad``)
        ever touches a ``(num_missing, ·)`` activation.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return Tensor(self._base[rows]) @ self.weight


class MeanCompletion(PropagatedCompletion):
    """Mean over attributed 1-hop neighbors, then a learnable transform.

    ``P = D⁺^{-1} A⁺`` where ``A⁺`` is the adjacency restricted to
    attributed columns and ``D⁺`` counts attributed neighbors only.
    """

    name = "mean"

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        raw = dataset.feature_matrix_zero_filled()
        operator = _attributed_restricted_adjacency(dataset).row_normalize()
        self._base = _propagate(operator, raw)[self.missing_ids]
        self.weight = Parameter(init.xavier_uniform((raw.shape[1], hidden_dim)),
                                name="weight")


class GCNCompletion(PropagatedCompletion):
    """Symmetric-renormalized aggregation of attributed neighbors (Eq. 3).

    ``P`` is the full-graph GCN operator ``D^{-1/2} A D^{-1/2}`` with its
    columns restricted to attributed nodes *after* normalization, so the
    spectral weights still reflect true degrees.
    """

    name = "gcn"

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        raw = dataset.feature_matrix_zero_filled()
        operator = (dataset.graph
                    .normalized_adjacency(mode="sym", self_loops=False)
                    .restrict_columns(_attributed_mask(dataset)))
        self._base = _propagate(operator, raw)[self.missing_ids]
        self.weight = Parameter(init.xavier_uniform((raw.shape[1], hidden_dim)),
                                name="weight")


class PPNPCompletion(PropagatedCompletion):
    """Personalized-PageRank diffusion of the zero-filled attributes (Eq. 4).

    Uses the APPNP power iteration, which converges geometrically to the
    closed form ``alpha (I - (1-alpha) Â)^{-1} X`` without a dense inverse.
    The normalized operator ``Â`` comes from the graph's LRU cache, so the
    many PPNP ops built during a search share one CSR matrix.
    """

    name = "ppnp"

    def __init__(self, dataset: HeteroDataset, hidden_dim: int,
                 alpha: float = 0.1, iterations: int = 10) -> None:
        super().__init__(dataset, hidden_dim)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"restart probability must be in (0, 1], got {alpha}")
        self.alpha = alpha
        raw = dataset.feature_matrix_zero_filled()
        a_hat = dataset.graph.normalized_adjacency(mode="sym", self_loops=True)
        diffused = G.appnp_propagate(None, raw, alpha=alpha,
                                     iterations=iterations, a_hat=a_hat)
        self._base = diffused[self.missing_ids].astype(get_default_dtype(),
                                                       copy=False)
        self.weight = Parameter(init.xavier_uniform((raw.shape[1], hidden_dim)),
                                name="weight")


class OneHotCompletion(CompletionOp):
    """Topology-independent completion: a learnable embedding per V⁻ node."""

    name = "one_hot"

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__(dataset, hidden_dim)
        self.table = Parameter(init.normal((self.num_missing, hidden_dim), std=0.1),
                               name="table")

    def forward(self) -> Tensor:
        return self.table

    def forward_rows(self, rows: np.ndarray) -> Tensor:
        """Embedding lookup for the sampled rows only."""
        return gather_rows(self.table, np.asarray(rows, dtype=np.int64))


__all__ = [
    "PropagatedCompletion",
    "MeanCompletion",
    "GCNCompletion",
    "PPNPCompletion",
    "OneHotCompletion",
]
