"""GCN (Kipf & Welling) on the homogenized heterogeneous graph.

The HGB benchmark's strongest "simple" baseline: node types are ignored,
messages flow over the symmetric renormalized adjacency.  The operator is
fetched from the graph's LRU cache as a CSR
:class:`~repro.tensor.SparseTensor` and applied through the autograd-aware
:func:`~repro.tensor.spmm` kernel.
"""

from __future__ import annotations

from typing import Optional

from ..datasets import HeteroDataset
from ..graph.sampler import GraphView
from ..tensor import Dropout, Linear, ModuleList, Tensor, relu, spmm
from .base import BaseHGNN


class GCN(BaseHGNN):
    full_graph = True
    supports_sampling = True

    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2,
                 dropout: float = 0.5) -> None:
        super().__init__(dataset, hidden_dim, out_dim)
        self.num_layers = num_layers
        self.adj = dataset.graph.normalized_adjacency(mode="sym",
                                                      self_loops=True)
        dims = [hidden_dim] * num_layers + [out_dim]
        self.layers = ModuleList([
            Linear(dims[i], dims[i + 1]) for i in range(num_layers)
        ])
        self.dropout = Dropout(dropout)

    def encode(self, h0: Tensor, view: Optional[GraphView] = None) -> Tensor:
        adj = self.adj
        if view is not None:
            # normalized sub-adjacency, memoized on the (immutable) view
            adj = view.normalized_adjacency(mode="sym", self_loops=True)
        h = h0
        for index, layer in enumerate(self.layers):
            h = layer(self.dropout(h))
            h = spmm(adj, h)
            if index < self.num_layers - 1:
                h = relu(h)
        return h


__all__ = ["GCN"]
