"""HAN (Wang et al., WWW'19) — hierarchical attention over metapaths.

Node-level: a GAT layer per metapath over the metapath-induced graph of the
target type; the layers of one metapath share its attention layout.
Semantic-level: attention across metapath-specific embeddings.  Only
target-type nodes are embedded (``full_graph = False``).
"""

from __future__ import annotations

import numpy as np

from ..datasets import HeteroDataset
from ..graph import metapath_edge_list
from ..tensor import AttentionLayout, Dropout, ModuleList, Tensor, elu
from .base import BaseHGNN
from .gat import GATLayer
from .semantic import SemanticAttention


class HAN(BaseHGNN):
    full_graph = False

    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 attn_dim: int = 128, dropout: float = 0.5) -> None:
        super().__init__(dataset, hidden_dim, out_dim)
        if not dataset.metapaths:
            raise ValueError("HAN requires the dataset to define metapaths")
        self.target_ids = dataset.graph.global_ids(dataset.target_type)
        n_target = self.target_ids.shape[0]
        self.num_layers = num_layers

        # per metapath: edge list with self loops over local target ids
        self.edge_lists = []
        for metapath in dataset.metapaths:
            if metapath[0] != dataset.target_type:
                continue
            src, dst, _ = metapath_edge_list(dataset.graph, metapath)
            loops = np.arange(n_target, dtype=np.int64)
            self.edge_lists.append((np.concatenate([src, loops]),
                                    np.concatenate([dst, loops])))
        if not self.edge_lists:
            raise ValueError("no metapath starts at the target type")

        layouts = [AttentionLayout.build(src, dst, np.zeros_like(src), n_target)
                   for (src, dst) in self.edge_lists]
        dims = [hidden_dim] * num_layers + [out_dim]
        self.path_layers = ModuleList()
        for layer_index in range(num_layers):
            per_path = ModuleList([
                GATLayer(dims[layer_index], dims[layer_index + 1], num_heads,
                         src, dst, n_target, layout=layout)
                for (src, dst), layout in zip(self.edge_lists, layouts)
            ])
            self.path_layers.append(per_path)
        self.semantic = ModuleList([
            SemanticAttention(dims[layer_index + 1], attn_dim)
            for layer_index in range(num_layers)
        ])
        self.dropout = Dropout(dropout)

    def encode(self, h0: Tensor) -> Tensor:
        h = h0[self.target_ids]
        for layer_index in range(self.num_layers):
            h = self.dropout(h)
            per_path = [layer(h)[0] for layer in self.path_layers[layer_index]]
            h = self.semantic[layer_index](per_path)
            if layer_index < self.num_layers - 1:
                h = elu(h)
        return h


__all__ = ["HAN"]
