"""SimpleHGN (Lv et al., KDD'21) — the HGB SOTA and AutoAC's main backbone.

GAT-style attention extended with (1) learnable edge-type embeddings inside
the attention logits, (2) node-level residual connections, and (3) an edge
attention residual ``alpha = (1-beta) * alpha + beta * alpha_prev`` carried
across layers.  Final-layer outputs are L2-normalized as in the HGB
implementation.  GAT (:mod:`.gat`) is this layer stack without those
extras: no edge-type term (``edge_dim=0``), no residuals and no output
normalization, so the attention, the compact passes and the sampled
path below serve both models.

Aggregation: the attention-weighted neighborhood sum
``out[v] = Σ_e α_e · proj[src_e]`` is a CSR×dense product with a *fixed*
sparsity pattern (edges grouped by destination, an
:class:`~repro.tensor.AttentionLayout` built once per model or graph view
and shared by every layer) and per-forward attention values, via
:func:`~repro.tensor.weighted_spmm`.

Under the fused kernels the attention itself (logits, leaky ReLU,
segment softmax, the β residual and attention dropout) is one
:func:`~repro.tensor.csr_attention` node that works in the pattern's
order.  There α is in pattern order: it goes straight into
``weighted_spmm`` and, as ``alpha_prev``, into the next layer.  The
unfused (``reference``) path keeps the composite in edge order, and its
α is in edge order; its aggregation is :meth:`SimpleHGNLayer._aggregate`
(GAT's layer keeps the gather × α → scatter composite there).

Row-restricted passes: ``forward(h0, rows=r)`` under the fused kernels
runs each layer only on the rows the next one reads
(:meth:`SimpleHGN.restricted_layouts`): the last layer computes the
target rows ``r``, each earlier layer the rows the layer above reads
(the sources of its kept entries and its own rows).  Hidden states hold
those rows only, over compact :meth:`AttentionLayout.restrict`-ed
layouts, so the projections, scores, attention, aggregation, residual,
ELU, normalization and classifier all run on the receptive field.  Only
``h0`` (the completion's output) is full; feature and attention dropout
draw over the full shapes and take the kept rows, so the generator
advances as in the full pass.  The logits equal ``forward(h0)[r]`` to
float precision, not bit for bit: BLAS products and gradient sums over
fewer rows may round differently.

Edge-type scores: ``<edge_table[etype_e], attn_edge>`` takes one value
per edge type.  Under the fused kernels it is computed once per type
(:meth:`SimpleHGNLayer.type_scores`).  That sums the ``edge_table``
gradient in another order, so the unfused path keeps the per-edge gather.
A layer with ``edge_dim=0`` has no edge-type table and no such term.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datasets import HeteroDataset
from ..graph.sampler import GraphView
from ..tensor import (
    AttentionLayout,
    Dropout,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Tensor,
    csr_attention,
    dropout,
    elu,
    fused_kernels_enabled,
    gather_rows,
    head_dot,
    init,
    l2_normalize,
    leaky_relu,
    segment_softmax,
    weighted_spmm,
)
from .base import BaseHGNN, edge_arrays_with_self_loops


class SimpleHGNLayer(Module):
    def __init__(self, in_dim: int, out_dim: int, num_heads: int,
                 edge_dim: int, num_edge_types: int,
                 src: np.ndarray, dst: np.ndarray, etype: np.ndarray,
                 num_nodes: int, negative_slope: float = 0.05,
                 beta: float = 0.05, attn_dropout: float = 0.3,
                 residual: bool = True,
                 layout: Optional[AttentionLayout] = None) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.src, self.dst, self.etype = src, dst, etype
        self.num_nodes = num_nodes
        self.negative_slope = negative_slope
        self.beta = beta
        self.proj = Linear(in_dim, out_dim, bias=False)
        # edge_dim=0: no edge-type term in the attention
        self.edge_table = Parameter(
            init.xavier_uniform((num_edge_types, num_heads * edge_dim)),
            name="edge_table") if edge_dim else None
        self.edge_dim = edge_dim
        self.attn_src = Parameter(init.xavier_uniform((num_heads, self.head_dim)),
                                  name="attn_src")
        self.attn_dst = Parameter(init.xavier_uniform((num_heads, self.head_dim)),
                                  name="attn_dst")
        self.attn_edge = Parameter(init.xavier_uniform((num_heads, edge_dim)),
                                   name="attn_edge") if edge_dim else None
        self.residual_proj = Linear(in_dim, out_dim, bias=False) if residual else None
        self.attn_dropout = Dropout(attn_dropout)
        # static CSR pattern (dst rows, src cols); attention values are
        # filled in per forward through weighted_spmm
        if layout is None:
            layout = AttentionLayout.build(src, dst, etype, num_nodes)
        self._layout = layout

    def type_scores(self) -> Tensor:
        """``<edge_table[t], attn_edge>`` per edge type and head, (T, H)."""
        return head_dot(
            self.edge_table.reshape(-1, self.num_heads, self.edge_dim),
            self.attn_edge)

    def edge_scores(self, etype: np.ndarray) -> Tensor:
        """``<edge_table[etype_e], attn_edge>`` per edge and head, (E, H),
        by a per-edge gather (the unfused path; forward bits equal to
        :meth:`type_scores` gathered to the edges)."""
        edge_embed = gather_rows(self.edge_table, etype).reshape(
            -1, self.num_heads, self.edge_dim)
        return head_dot(edge_embed, self.attn_edge)

    def forward(self, h: Tensor, alpha_prev: Optional[Tensor] = None,
                topo: Optional[tuple] = None,
                layout: Optional[AttentionLayout] = None):
        """One layer over the constructor topology or, for the sampled
        path, an explicit ``(src, dst, etype, num_nodes, layout)`` tuple
        in view-local ids.  Edge-type ids are shared with the full graph,
        so the edge-type table transfers.  Under the fused kernels
        ``layout`` may restrict the constructor topology's layout
        (:meth:`AttentionLayout.restrict`): ``h`` then holds the layout's
        columns and the output its rows.  Returns ``(out, alpha)``, with
        ``alpha`` in pattern order under the fused kernels and in edge
        order otherwise (``alpha_prev`` must be in the same order)."""
        if topo is None:
            src, dst, etype, n = self.src, self.dst, self.etype, self.num_nodes
            if layout is None:
                layout = self._layout
        else:
            src, dst, etype, n, layout = topo
        heads = self.num_heads
        typed = self.edge_table is not None
        projected = self.proj(h).reshape(h.shape[0], heads, self.head_dim)
        score_src = head_dot(projected, self.attn_src)
        score_dst = head_dot(projected, self.attn_dst)
        if layout.row_columns is not None:
            # compact: the output rows are a subset of the input rows
            score_dst = gather_rows(score_dst, layout.row_columns)
            if self.residual_proj is not None:
                h = gather_rows(h, layout.row_columns)
        if fused_kernels_enabled():
            dropout = self.attn_dropout
            alpha = csr_attention(score_src, score_dst,
                                  self.type_scores() if typed else None,
                                  layout, self.negative_slope,
                                  alpha_prev=alpha_prev, beta=self.beta,
                                  dropout_p=dropout.p,
                                  training=dropout.training)
            out = weighted_spmm(layout.pattern, alpha, projected)
        else:
            logits = gather_rows(score_src, src) + gather_rows(score_dst, dst)
            if typed:
                logits = logits + self.edge_scores(etype)
            alpha = segment_softmax(
                leaky_relu(logits, self.negative_slope), dst, n,
                sorted_by=(layout.order, layout.pattern.indptr))
            if alpha_prev is not None and self.beta > 0:
                alpha = alpha * (1.0 - self.beta) + alpha_prev * self.beta
            alpha = self.attn_dropout(alpha)
            out = self._aggregate(alpha, projected, src, dst, layout)
        out = out.reshape(layout.pattern.shape[0], heads * self.head_dim)
        if self.residual_proj is not None:
            out = out + self.residual_proj(h)
        return out, alpha

    def _aggregate(self, alpha: Tensor, projected: Tensor, src: np.ndarray,
                   dst: np.ndarray, layout: AttentionLayout) -> Tensor:
        """``out[v] = Σ_{e into v} α_e · projected[src_e]`` from the
        unfused path's edge-order α, ``(rows, H, head_dim)``."""
        return weighted_spmm(layout.pattern, gather_rows(alpha, layout.order),
                             projected)


class SimpleHGN(BaseHGNN):
    full_graph = True
    supports_sampling = True

    def __init__(self, dataset: HeteroDataset, hidden_dim: int = 64,
                 out_dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 edge_dim: int = 16, negative_slope: float = 0.05,
                 beta: float = 0.05, dropout: float = 0.5,
                 normalize_output: bool = True) -> None:
        super().__init__(dataset, hidden_dim, out_dim)
        src, dst, etype, num_edge_types = edge_arrays_with_self_loops(dataset)
        n = dataset.graph.num_nodes
        self.num_layers = num_layers
        self.normalize_output = normalize_output
        topo = (src, dst, etype, n, AttentionLayout.build(src, dst, etype, n))
        dims = [hidden_dim] * num_layers + [out_dim]
        self.layers = ModuleList([
            self._layer(dims[i], dims[i + 1], num_heads, topo,
                        negative_slope, edge_dim=edge_dim,
                        num_edge_types=num_edge_types, beta=beta)
            for i in range(num_layers)
        ])
        self.dropout = Dropout(dropout)
        self._restricted: dict = {}

    @staticmethod
    def _layer(in_dim: int, out_dim: int, num_heads: int, topo: tuple,
               negative_slope: float, edge_dim: int, num_edge_types: int,
               beta: float) -> SimpleHGNLayer:
        """One layer over the model's ``(src, dst, etype, n, layout)``
        topology; the layers share its layout."""
        src, dst, etype, n, layout = topo
        return SimpleHGNLayer(in_dim, out_dim, num_heads, edge_dim,
                              num_edge_types, src, dst, etype, n,
                              negative_slope=negative_slope, beta=beta,
                              layout=layout)

    def restricted_layouts(self, rows: np.ndarray) -> tuple:
        """``(steps, take)`` of a pass read only at ``rows``.

        ``rows`` are target-type local indices.  ``steps`` holds, per
        layer, a compact :meth:`AttentionLayout.restrict`-ed layout and a
        ``link``.  The last layer's layout computes the target rows; each
        earlier layer's computes the columns the layer above reads.  Rows
        nest, so each layer's entries are a subset of the previous
        layer's, and ``link`` takes the previous layer's α to this
        layer's entries (``None`` for the first layer).  ``take`` picks
        ``rows`` from the last layer's rows.  Memoized per row set.
        """
        rows = np.asarray(rows, dtype=np.int64)
        key = rows.tobytes()
        cached = self._restricted.get(key)
        if cached is None:
            full = self.layers[0]._layout
            targets = self.dataset.graph.to_global(self.dataset.target_type,
                                                   rows)
            needed = targets
            layouts = []
            for _ in range(self.num_layers):
                layout = full.restrict(needed)
                layouts.append(layout)
                needed = layout.columns
            layouts.reverse()
            links = [None] + [np.searchsorted(below.entries, above.entries)
                              for below, above in zip(layouts, layouts[1:])]
            take = np.unique(targets, return_inverse=True)[1].reshape(-1)
            cached = (list(zip(layouts, links)), take)
            if len(self._restricted) >= 8:
                self._restricted.pop(next(iter(self._restricted)))
            self._restricted[key] = cached
        return cached

    def forward(self, h0: Tensor, view: Optional[GraphView] = None,
                rows: Optional[np.ndarray] = None) -> Tensor:
        if rows is None or view is not None or not fused_kernels_enabled():
            return super().forward(h0, view=view, rows=rows)
        steps, take = self.restricted_layouts(rows)
        return gather_rows(self.classifier(self._encode(h0, steps=steps)),
                           take)

    def _view_topology(self, view: GraphView) -> tuple:
        """The layer-shared topology tuple of a view, memoized on it.

        The attention layout depends only on the view's topology, so
        every SimpleHGN layer — and every SimpleHGN instance run over the
        same view — shares one layout.
        """
        src, dst, etype, _ = view.edge_arrays_with_self_loops()
        n = view.num_nodes
        layout = view.cached(
            ("attention_layout",),
            lambda: AttentionLayout.build(src, dst, etype, n))
        return (src, dst, etype, n, layout)

    def encode(self, h0: Tensor, view: Optional[GraphView] = None) -> Tensor:
        topo = None if view is None else self._view_topology(view)
        return self._encode(h0, topo=topo)

    def _encode(self, h0: Tensor, topo: Optional[tuple] = None,
                steps: Optional[list] = None) -> Tensor:
        """The layer stack over the model's topology, a view's ``topo`` or
        the compact ``steps`` of :meth:`restricted_layouts` (then the
        output holds the last layer's rows only)."""
        h = h0 if steps is None else gather_rows(h0, steps[0][0].columns)
        alpha = None
        for index, layer in enumerate(self.layers):
            if steps is None:
                layout = None
                h = self.dropout(h)
            else:
                layout, link = steps[index]
                if link is not None:  # α is read only as β's residual
                    alpha = gather_rows(alpha, link) if layer.beta > 0 \
                        else None
                h = dropout(h, self.dropout.p, self.dropout.training,
                            rows=layout.columns, num_rows=h0.shape[0])
            h, alpha = layer(h, alpha, topo, layout)
            if index < self.num_layers - 1:
                h = elu(h)
        if self.normalize_output:
            h = l2_normalize(h, axis=-1)
        return h


__all__ = ["SimpleHGN", "SimpleHGNLayer"]
