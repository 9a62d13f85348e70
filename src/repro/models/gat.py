"""GAT (Veličković et al.) on the homogenized heterogeneous graph.

Multi-head additive attention over the global edge list (self loops
included), matching the HGB configuration (LeakyReLU slope ``s`` is a
hyperparameter per dataset in the paper's Appendix B).

SimpleHGN is GAT plus edge-type attention, node and α residuals and L2
output normalization, so GAT is :class:`~.simple_hgn.SimpleHGN`'s layer
stack without those extras: :class:`GATLayer` has no edge-type term
(``edge_dim=0``), β = 0 and no residual projection, and :class:`GAT` does
not normalize its output.  Both therefore share SimpleHGN's fused
attention route (:func:`~repro.tensor.csr_attention` +
:func:`~repro.tensor.weighted_spmm`), its row-restricted passes and its
sampled path.  The unfused (``reference``) aggregation stays the
gather × α → scatter composite, whose gradients sum in edge order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datasets import HeteroDataset
from ..tensor import AttentionLayout, Tensor, gather_rows, scatter_add
from .simple_hgn import SimpleHGN, SimpleHGNLayer


class GATLayer(SimpleHGNLayer):
    """One multi-head GAT layer over a fixed edge list; its forward
    returns ``(out, alpha)`` as :class:`SimpleHGNLayer`'s does."""

    def __init__(self, in_dim: int, out_dim: int, num_heads: int,
                 src: np.ndarray, dst: np.ndarray, num_nodes: int,
                 negative_slope: float = 0.2, attn_dropout: float = 0.3,
                 layout: Optional[AttentionLayout] = None) -> None:
        super().__init__(in_dim, out_dim, num_heads, 0, 0, src, dst,
                         np.zeros_like(src), num_nodes,
                         negative_slope=negative_slope, beta=0.0,
                         attn_dropout=attn_dropout, residual=False,
                         layout=layout)

    def _aggregate(self, alpha: Tensor, projected: Tensor, src: np.ndarray,
                   dst: np.ndarray, layout: AttentionLayout) -> Tensor:
        # the composite, not weighted_spmm: its gradients sum in edge
        # order, which the reference profile's GAT and HAN figures need
        messages = gather_rows(projected, src) * alpha.reshape(
            -1, self.num_heads, 1)
        return scatter_add(messages, dst, layout.pattern.shape[0])


class GAT(SimpleHGN):
    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 negative_slope: float = 0.05, dropout: float = 0.5) -> None:
        super().__init__(dataset, hidden_dim, out_dim, num_layers, num_heads,
                         negative_slope=negative_slope, dropout=dropout,
                         normalize_output=False)

    @staticmethod
    def _layer(in_dim: int, out_dim: int, num_heads: int, topo: tuple,
               negative_slope: float, **unused) -> GATLayer:
        """A :class:`GATLayer`; SimpleHGN's ``edge_dim`` and ``beta`` do
        not apply."""
        src, dst, _, n, layout = topo
        return GATLayer(in_dim, out_dim, num_heads, src, dst, n,
                        negative_slope=negative_slope, layout=layout)


__all__ = ["GAT", "GATLayer"]
