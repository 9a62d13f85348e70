"""HetSANN (Hong et al., AAAI'20) — type-aware attention without metapaths.

Each relation carries its own source-side transform and attention vector;
attention is normalized per destination node across *all* incoming
relations jointly (the paper's "type-aware" softmax).
"""

from __future__ import annotations

import numpy as np

from ..datasets import HeteroDataset
from ..tensor import (
    Dropout,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Tensor,
    concat,
    elu,
    gather_rows,
    init,
    leaky_relu,
    scatter_add,
    segment_softmax,
)
from .base import BaseHGNN, edge_arrays_with_self_loops


class HetSANNLayer(Module):
    def __init__(self, in_dim: int, out_dim: int, num_heads: int,
                 num_edge_types: int, src: np.ndarray, dst: np.ndarray,
                 etype: np.ndarray, num_nodes: int,
                 negative_slope: float = 0.2,
                 attn_dropout: float = 0.3) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.num_nodes = num_nodes
        self.negative_slope = negative_slope
        self.rel_proj = ModuleList([Linear(in_dim, out_dim, bias=False)
                                    for _ in range(num_edge_types)])
        self.attn_src = Parameter(
            init.xavier_uniform((num_edge_types, num_heads, self.head_dim)),
            name="attn_src")
        self.attn_dst = Parameter(
            init.xavier_uniform((num_edge_types, num_heads, self.head_dim)),
            name="attn_dst")
        self.attn_dropout = Dropout(attn_dropout)
        # ``(relation, src, dst)`` of every relation that has edges, in
        # the order its messages are concatenated
        self._relations = []
        for rel in range(num_edge_types):
            mask = etype == rel
            if mask.any():
                self._relations.append((rel, src[mask], dst[mask]))
        self._all_dst = np.concatenate([rel_dst for _, _, rel_dst
                                        in self._relations])

    def forward(self, h: Tensor) -> Tensor:
        n = self.num_nodes
        # relation-specific projections of all nodes (dense but few relations)
        projected = [proj(h).reshape(n, self.num_heads, self.head_dim)
                     for proj in self.rel_proj]
        # per-edge source message under its relation's transform
        msg, logits = [], []
        for rel, rel_src, rel_dst in self._relations:
            h_rel = projected[rel]
            m = gather_rows(h_rel, rel_src)
            score = (m * self.attn_src[rel]).sum(axis=-1) + \
                (gather_rows(h_rel, rel_dst) * self.attn_dst[rel]).sum(axis=-1)
            msg.append(m)
            logits.append(score)
        all_msg = concat(msg, axis=0)
        all_logits = leaky_relu(concat(logits, axis=0), self.negative_slope)
        alpha = self.attn_dropout(segment_softmax(all_logits, self._all_dst,
                                                  n))
        out = scatter_add(all_msg * alpha.reshape(-1, self.num_heads, 1),
                          self._all_dst, n)
        return out.reshape(n, self.num_heads * self.head_dim)


class HetSANN(BaseHGNN):
    full_graph = True

    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 dropout: float = 0.5) -> None:
        super().__init__(dataset, hidden_dim, out_dim)
        src, dst, etype, num_edge_types = edge_arrays_with_self_loops(dataset)
        n = dataset.graph.num_nodes
        self.num_layers = num_layers
        dims = [hidden_dim] * num_layers + [out_dim]
        self.layers = ModuleList([
            HetSANNLayer(dims[i], dims[i + 1], num_heads, num_edge_types,
                         src, dst, etype, n)
            for i in range(num_layers)
        ])
        self.dropout = Dropout(dropout)

    def encode(self, h0: Tensor) -> Tensor:
        h = h0
        for index, layer in enumerate(self.layers):
            h = layer(self.dropout(h))
            if index < self.num_layers - 1:
                h = elu(h)
        return h


__all__ = ["HetSANN", "HetSANNLayer"]
