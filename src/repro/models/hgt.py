"""HGT (Hu et al., WWW'20) — heterogeneous graph transformer, compact form.

Type-specific K/Q/V projections, per-relation attention priors and
per-relation diagonal key/message scalings (the full HGT uses dense
per-relation matrices; diagonal scaling keeps the parameter count sane at
this scale while staying relation-aware), softmax attention per destination
node, and a type-specific output projection with residual.
"""

from __future__ import annotations

import math

import numpy as np

from ..datasets import HeteroDataset
from ..tensor import (
    Dropout,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Tensor,
    elu,
    gather_rows,
    init,
    scatter_add,
    segment_softmax,
    sigmoid,
)
from .base import BaseHGNN, edge_arrays_with_self_loops


class HGTLayer(Module):
    def __init__(self, dim: int, num_heads: int, num_node_types: int,
                 num_edge_types: int, src: np.ndarray, dst: np.ndarray,
                 etype: np.ndarray, node_type_index: np.ndarray,
                 num_nodes: int, attn_dropout: float = 0.3) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.src, self.dst, self.etype = src, dst, etype
        self.node_type_index = node_type_index
        self.num_nodes = num_nodes
        self.scale = 1.0 / math.sqrt(self.head_dim)

        self.key_proj = ModuleList([Linear(dim, dim, bias=False)
                                    for _ in range(num_node_types)])
        self.query_proj = ModuleList([Linear(dim, dim, bias=False)
                                      for _ in range(num_node_types)])
        self.value_proj = ModuleList([Linear(dim, dim, bias=False)
                                      for _ in range(num_node_types)])
        self.out_proj = ModuleList([Linear(dim, dim, bias=False)
                                    for _ in range(num_node_types)])
        self.rel_prior = Parameter(init.ones((num_edge_types, num_heads)),
                                   name="rel_prior")
        self.rel_key_scale = Parameter(init.ones((num_edge_types, num_heads,
                                                  self.head_dim)),
                                       name="rel_key_scale")
        self.rel_msg_scale = Parameter(init.ones((num_edge_types, num_heads,
                                                  self.head_dim)),
                                       name="rel_msg_scale")
        self.attn_dropout = Dropout(attn_dropout)
        self.skip = Parameter(init.ones((num_node_types,)), name="skip")

    def _typed_projection(self, h: Tensor, projections: ModuleList) -> Tensor:
        """Apply the type-specific projection to every node."""
        pieces = None
        for type_id, proj in enumerate(projections):
            mask = (self.node_type_index == type_id).astype(np.float64)
            term = proj(h) * Tensor(mask.reshape(-1, 1))
            pieces = term if pieces is None else pieces + term
        return pieces

    def forward(self, h: Tensor) -> Tensor:
        n = self.num_nodes
        keys = self._typed_projection(h, self.key_proj).reshape(
            n, self.num_heads, self.head_dim)
        queries = self._typed_projection(h, self.query_proj).reshape(
            n, self.num_heads, self.head_dim)
        values = self._typed_projection(h, self.value_proj).reshape(
            n, self.num_heads, self.head_dim)

        k_edge = gather_rows(keys, self.src) * gather_rows(self.rel_key_scale,
                                                           self.etype)
        q_edge = gather_rows(queries, self.dst)
        prior = gather_rows(self.rel_prior, self.etype)
        logits = (k_edge * q_edge).sum(axis=-1) * self.scale * prior
        alpha = self.attn_dropout(segment_softmax(logits, self.dst, n))
        messages = gather_rows(values, self.src) * gather_rows(
            self.rel_msg_scale, self.etype)
        aggregated = scatter_add(messages * alpha.reshape(-1, self.num_heads, 1),
                                 self.dst, n).reshape(n, -1)
        out = self._typed_projection(elu(aggregated), self.out_proj)
        # sigmoid-gated residual per node type (HGT's skip connection)
        gate = gather_rows(sigmoid(self.skip),
                           self.node_type_index).reshape(-1, 1)
        return out * gate + h * (1.0 - gate)


class HGT(BaseHGNN):
    full_graph = True

    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 dropout: float = 0.5) -> None:
        super().__init__(dataset, hidden_dim, out_dim)
        if hidden_dim != out_dim:
            raise ValueError("HGT keeps one width; set hidden_dim == out_dim")
        src, dst, etype, num_edge_types = edge_arrays_with_self_loops(dataset)
        n = dataset.graph.num_nodes
        self.layers = ModuleList([
            HGTLayer(hidden_dim, num_heads, len(dataset.graph.node_types),
                     num_edge_types, src, dst, etype,
                     dataset.graph.node_type_index, n)
            for _ in range(num_layers)
        ])
        self.dropout = Dropout(dropout)

    def encode(self, h0: Tensor) -> Tensor:
        h = h0
        for layer in self.layers:
            h = layer(self.dropout(h))
        return h


__all__ = ["HGT", "HGTLayer"]
