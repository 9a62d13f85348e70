"""Neural-network functional operations built on the autograd primitives.

Everything here composes the primitives in :mod:`repro.tensor.tensor` (so
gradients come for free) or defines a fused primitive with an explicit
backward where stability or speed demands it (softmax, losses, dropout,
segment softmax).

Fused kernels
-------------
A second, faster implementation exists for the hottest composites:
``addmm`` (matmul + bias in one node), ``cross_entropy`` (log-softmax +
NLL in one node), ``segment_softmax`` (one node instead of five),
``csr_attention`` (attention logits to dropped-out α in one node) and
``l2_normalize`` (one node instead of five).  Each avoids materializing
intermediate tensors and graph nodes.  They are gated behind
:func:`set_fused_kernels` — default **off** — because most of their
backward passes associate float operations differently from the
composites: results are equal to numerical precision but not bit-for-bit,
and the float64 reference profile guarantees bit-identical paper figures.
(``l2_normalize`` is byte-equal to its chain only when its input feeds
nothing else, so the reference profile keeps the chain.)
The fast runtime profile (:mod:`repro.perf.profiles`) switches them on.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ._profile import profiled
from .dtype import get_default_dtype
from .random import get_rng, random_values
from .sparse import SparseTensor
from .tensor import (
    Tensor,
    ensure_tensor,
    gather_rows,
    is_grad_enabled,
    leaky_relu_data,
    leaky_relu_factor,
    scatter_add,
    scatter_sum,
    unbroadcast,
)


def _needs_grad(*tensors: Tensor) -> bool:
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


# ----------------------------------------------------------------------
# Fused-kernel gate
# ----------------------------------------------------------------------
_FUSED = False


def fused_kernels_enabled() -> bool:
    """Whether the fused fast-path kernels are active."""
    return _FUSED


def set_fused_kernels(enabled: bool) -> bool:
    """Toggle the fused kernels; returns the previous setting."""
    global _FUSED
    previous, _FUSED = _FUSED, bool(enabled)
    return previous


@contextlib.contextmanager
def fused_kernels(enabled: bool = True):
    """Scoped :func:`set_fused_kernels` (restores the previous setting)."""
    previous = set_fused_kernels(enabled)
    try:
        yield
    finally:
        set_fused_kernels(previous)


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
@profiled
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax with a fused backward."""
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)
    out = Tensor(out_data, requires_grad=_needs_grad(x))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x.accumulate_grad(out_data * (grad - dot))
        out._rig((x,), backward)
    return out


@profiled
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable ``log(softmax(x))`` with a fused backward."""
    x = ensure_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    out = Tensor(out_data, requires_grad=_needs_grad(x))
    if out.requires_grad:
        soft = np.exp(out_data)
        def backward(grad: np.ndarray) -> None:
            x.accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True))
        out._rig((x,), backward)
    return out


def _cross_entropy_composite(logits: Tensor, targets: np.ndarray,
                             reduction: str) -> Tensor:
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = gather_rows(log_probs.reshape(-1),
                         targets + np.arange(n) * logits.shape[-1])
    loss = -picked
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def _cross_entropy_fused(logits: Tensor, targets: np.ndarray,
                         reduction: str) -> Tensor:
    """Single-node log-softmax + NLL: no (N, C) log-prob tensor survives.

    Forward reproduces the composite bit-for-bit; the backward is the
    closed form ``(softmax - onehot) · upstream`` computed in one shot.
    """
    x = logits.data
    n = x.shape[0]
    rows = np.arange(n)
    shifted = x - x.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = shifted[rows, targets] - log_norm[:, 0]
    loss_data = -picked
    if reduction == "mean":
        out_data = loss_data.mean()
    elif reduction == "sum":
        out_data = loss_data.sum()
    else:
        out_data = loss_data
    out = Tensor(out_data, requires_grad=_needs_grad(logits))
    if out.requires_grad:
        soft = np.exp(shifted - log_norm)
        def backward(grad: np.ndarray) -> None:
            local = soft.copy()
            local[rows, targets] -= 1.0
            if reduction == "mean":
                logits.accumulate_grad(local * (grad / n))
            elif reduction == "sum":
                logits.accumulate_grad(local * grad)
            else:
                logits.accumulate_grad(local * grad.reshape(-1, 1))
        out._rig((logits,), backward)
    return out


@profiled
def cross_entropy(logits: Tensor, targets: np.ndarray,
                  reduction: str = "mean") -> Tensor:
    """Multi-class cross entropy on integer targets ``(N,)``.

    Dispatches to a single fused autograd node when
    :func:`fused_kernels_enabled` (same values, one node, no ``(N, C)``
    intermediate); otherwise composes ``log_softmax`` + gather.
    """
    logits = ensure_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if _FUSED and logits.ndim == 2:
        return _cross_entropy_fused(logits, targets, reduction)
    return _cross_entropy_composite(logits, targets, reduction)


@profiled
def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                                     reduction: str = "mean") -> Tensor:
    """Stable BCE: ``max(x,0) - x*z + log1p(exp(-|x|))`` with fused backward."""
    logits = ensure_tensor(logits)
    x = logits.data
    z = np.asarray(targets, dtype=x.dtype)
    loss_data = np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))
    if reduction == "mean":
        out_data = loss_data.mean()
    elif reduction == "sum":
        out_data = loss_data.sum()
    else:
        out_data = loss_data
    out = Tensor(out_data, requires_grad=_needs_grad(logits))
    if out.requires_grad:
        sig = 0.5 * (1.0 + np.tanh(0.5 * x))
        def backward(grad: np.ndarray) -> None:
            local = sig - z
            if reduction == "mean":
                logits.accumulate_grad(grad * local / x.size)
            else:  # "sum" and "none"
                logits.accumulate_grad(grad * local)
        out._rig((logits,), backward)
    return out


# ----------------------------------------------------------------------
# Linear algebra fusions
# ----------------------------------------------------------------------
@profiled
def addmm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as one autograd node.

    The composite builds two nodes and materializes the pre-bias matmul
    result; the fused path writes the bias into the matmul output in
    place.  Falls back to the composite when the fused kernels are off or
    ``x`` is not 2-D (values match either way).
    """
    x, weight, bias = ensure_tensor(x), ensure_tensor(weight), ensure_tensor(bias)
    if not _FUSED or x.ndim != 2:
        return x @ weight + bias
    out_data = np.matmul(x.data, weight.data)
    out_data += bias.data
    out = Tensor(out_data, requires_grad=_needs_grad(x, weight, bias))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(np.matmul(grad, weight.data.T))
            if weight.requires_grad:
                weight.accumulate_grad(np.matmul(x.data.T, grad))
            if bias.requires_grad:
                bias.accumulate_grad(grad.sum(axis=0))
        out._rig((x, weight, bias), backward)
    return out


# ----------------------------------------------------------------------
# Regularisation
# ----------------------------------------------------------------------
@profiled
def dropout(x: Tensor, p: float, training: bool = True,
            rows: Optional[np.ndarray] = None, num_rows: int = 0) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``.

    With ``rows``, ``x`` holds those rows of a ``(num_rows, ...)`` array:
    the mask is drawn over the whole array and its ``rows`` are taken, so
    the generator advances, and every row keeps its random numbers, as
    when the whole array is dropped out.
    """
    if not training or p <= 0.0:
        return ensure_tensor(x)
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    x = ensure_tensor(x)
    dtype = x.data.dtype
    if rows is None:
        draws = random_values(x.shape, dtype=dtype)
    else:
        draws = np.take(random_values((num_rows,) + x.shape[1:], dtype=dtype),
                        rows, axis=0)
    mask = (draws >= p).astype(dtype) / (1.0 - p)
    out = Tensor(x.data * mask, requires_grad=_needs_grad(x))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            x.accumulate_grad(grad * mask)
        out._rig((x,), backward)
    return out


def _l2_normalize_fused(x: Tensor, axis: int, eps: float) -> Tensor:
    """:func:`l2_normalize`'s chain as one node, byte-equal to it.

    The forward runs the chain's float operations in its order.  The
    backward forms what the chain's nodes deliver to ``x``, summed in
    the order they deliver it: the division's ``g / norm`` first, then
    ``p`` once for each operand of ``x * x``, so ``((g / norm) + p) + p``.
    (The chain's sum equals this one when ``x`` feeds nothing else; a
    second consumer could add its share in between.)
    """
    data = x.data
    squared = (data * data).sum(axis=axis, keepdims=True)
    shifted = squared + np.asarray(eps, dtype=data.dtype)
    norm = shifted ** 0.5
    out = Tensor(data / norm, requires_grad=_needs_grad(x))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            g_norm = unbroadcast(-grad * data / (norm ** 2), norm.shape)
            g_squared = g_norm * 0.5 * (shifted ** (0.5 - 1))
            p = np.broadcast_to(g_squared, data.shape) * data
            x.accumulate_grad((grad / norm + p) + p)
        out._rig((x,), backward)
    return out


@profiled
def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows to unit L2 norm (differentiable).

    One node under the fused kernels (:func:`_l2_normalize_fused`, the
    same bits); otherwise the composite of five primitives.
    """
    x = ensure_tensor(x)
    if _FUSED and x.data.dtype == get_default_dtype():
        return _l2_normalize_fused(x, axis, eps)
    squared = (x * x).sum(axis=axis, keepdims=True)
    norm = (squared + eps) ** 0.5
    return x / norm


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis (composite)."""
    x = ensure_tensor(x)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = (var + eps) ** -0.5
    return centered * inv_std * weight + bias


# ----------------------------------------------------------------------
# Segment operations (per-destination-node softmax etc.)
# ----------------------------------------------------------------------
def segment_max_data(x: np.ndarray, segment_ids: np.ndarray,
                     num_segments: int,
                     sorted_by: Optional[Tuple[np.ndarray, np.ndarray]] = None
                     ) -> np.ndarray:
    """Per-segment maximum of raw data (no gradient; used as a stability shift).

    ``sorted_by=(order, indptr)`` is a stable sort of the entries by
    segment and the segment offsets in that order (a CSR pattern's
    ``indptr``).  With it one ``np.maximum.reduceat`` replaces the
    unbuffered ``np.maximum.at``; both visit a segment's entries in the
    same order, so the bits are the same.  Empty segments stay ``-inf``.
    """
    out = np.full((num_segments,) + x.shape[1:], -np.inf, dtype=x.dtype)
    if sorted_by is None:
        np.maximum.at(out, segment_ids, x)
        return out
    order, indptr = sorted_by
    starts = indptr[:-1]
    filled = starts < indptr[1:]
    if filled.any():
        out[filled] = np.maximum.reduceat(np.take(x, order, axis=0),
                                          starts[filled], axis=0)
    return out


def _segment_softmax_composite(scores: Tensor, segment_ids: np.ndarray,
                               num_segments: int, sorted_by) -> Tensor:
    shift = segment_max_data(scores.data, segment_ids, num_segments,
                             sorted_by)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    from .tensor import exp as t_exp  # local import avoids a cycle at module load

    shifted = scores - Tensor(np.take(shift, segment_ids, axis=0))
    exp_scores = t_exp(shifted)
    denom = scatter_add(exp_scores, segment_ids, num_segments)
    denom_per_edge = gather_rows(denom, segment_ids)
    return exp_scores / (denom_per_edge + 1e-16)


def _segment_softmax_fused(scores: Tensor, segment_ids: np.ndarray,
                           num_segments: int, sorted_by) -> Tensor:
    """One autograd node for the whole per-segment softmax.

    The composite records five nodes (sub, exp, scatter, gather, div) and
    keeps every intermediate alive until backward.  The fused backward is
    the closed form ``dL/ds_e = α_e (g_e − Σ_{e'∈seg(e)} α_{e'} g_{e'})``,
    one scatter + one gather.  Both scatters are :func:`scatter_sum`, which
    sums each segment in entry order as the composite's
    :func:`scatter_add` does, so the denominators are the same bits.
    """
    shift = segment_max_data(scores.data, segment_ids, num_segments,
                             sorted_by)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    exp_scores = np.exp(scores.data - np.take(shift, segment_ids, axis=0))
    denom = scatter_sum(exp_scores, segment_ids,
                        (num_segments,) + exp_scores.shape[1:])
    out_data = exp_scores / (np.take(denom, segment_ids, axis=0) + 1e-16)
    out = Tensor(out_data, requires_grad=_needs_grad(scores))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            weighted = out_data * grad
            seg_dot = scatter_sum(weighted, segment_ids,
                                  (num_segments,) + weighted.shape[1:])
            scores.accumulate_grad(
                weighted - out_data * np.take(seg_dot, segment_ids, axis=0))
        out._rig((scores,), backward)
    return out


@profiled
def segment_softmax(scores: Tensor, segment_ids: np.ndarray,
                    num_segments: int,
                    sorted_by: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> Tensor:
    """Softmax of ``scores`` within segments (e.g. edges grouped by dst node).

    The per-segment max shift is detached, which leaves gradients
    unchanged because softmax is shift invariant within each segment.
    ``sorted_by`` — the entries' segment-sorted ``(order, indptr)`` —
    speeds up that max (see :func:`segment_max_data`) without changing it.
    With the fused kernels enabled this is a single autograd node;
    otherwise a composite of five primitives (identical values).
    """
    scores = ensure_tensor(scores)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if _FUSED:
        return _segment_softmax_fused(scores, segment_ids, num_segments,
                                      sorted_by)
    return _segment_softmax_composite(scores, segment_ids, num_segments,
                                      sorted_by)


class AttentionLayout(NamedTuple):
    """Edges grouped by destination, as :func:`csr_attention` reads them.

    ``pattern`` is the edges' CSR matrix (destination rows, source
    columns) after a stable sort by destination: pattern entry ``k`` is
    edge ``order[k]``, so every row keeps its edges in edge order.  The
    other arrays are the per-edge ones the attention needs, computed once
    per topology by :meth:`build` and shared by every layer.
    """

    pattern: SparseTensor
    order: np.ndarray         # edge index of each pattern entry
    inverse: np.ndarray       # pattern entry of each edge (order's inverse)
    src: np.ndarray           # per edge, edge order
    etype: np.ndarray         # per edge, edge order
    etype_sorted: np.ndarray  # etype[order]
    counts: np.ndarray        # entries per row
    filled: np.ndarray        # rows with at least one entry
    starts: np.ndarray        # first entry of each filled row
    num_edges: int            # edges of the whole topology
    # restricted layouts only (see restrict): each entry's position in
    # the full pattern, each column's node, and each row's column
    entries: Optional[np.ndarray] = None
    columns: Optional[np.ndarray] = None
    row_columns: Optional[np.ndarray] = None

    @classmethod
    def build(cls, src: np.ndarray, dst: np.ndarray, etype: np.ndarray,
              num_nodes: int) -> "AttentionLayout":
        src = np.asarray(src, dtype=np.int64)
        etype = np.asarray(etype, dtype=np.int64)
        order = np.argsort(dst, kind="stable")
        pattern = SparseTensor.from_edges(np.asarray(dst)[order], src[order],
                                          shape=(num_nodes, num_nodes))
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.shape[0])
        counts = np.diff(pattern.indptr)
        filled = counts > 0
        return cls(pattern, order, inverse, src, etype, etype[order], counts,
                   filled, pattern.indptr[:-1][filled], order.shape[0])

    def restrict(self, rows: np.ndarray) -> "AttentionLayout":
        """The part of this (full) layout that computes ``rows``, compact.

        The pattern has one row per kept row (``rows`` sorted, without
        repeats) and one column per node those rows read: their entries'
        sources and the rows themselves, renumbered in ``columns`` (sorted
        global ids).  ``row_columns`` is each row's own column, so a
        layer's output rows are taken from its input rows.  A row keeps
        all of its entries in their order, so attention and aggregation
        into it run the same float operations as on the full layout.
        ``order`` and ``etype`` keep the kept edges' ids in the full
        topology, ``src`` their columns (edge order), ``inverse`` maps
        them to the restricted entries, and ``entries`` records each
        restricted entry's position in the full pattern.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        keep = np.zeros(self.pattern.shape[0], dtype=bool)
        keep[rows] = True
        entries = np.flatnonzero(np.repeat(keep, self.counts))
        counts = self.counts[rows]
        indptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        sources = self.pattern.indices[entries]
        columns = np.union1d(sources, rows)
        indices = np.searchsorted(columns, sources)
        pattern = SparseTensor(indptr, indices, self.pattern.values[entries],
                               (rows.shape[0], columns.shape[0]))
        order = self.order[entries]
        inverse = np.argsort(order, kind="stable")
        filled = counts > 0
        return type(self)(pattern, order, inverse, indices[inverse],
                          self.etype[order[inverse]],
                          self.etype_sorted[entries], counts, filled,
                          indptr[:-1][filled], self.num_edges, entries,
                          columns, np.searchsorted(columns, rows))


@profiled
def csr_attention(score_src: Tensor, score_dst: Tensor,
                  type_score: Optional[Tensor],
                  layout: AttentionLayout, negative_slope: float,
                  alpha_prev: Optional[Tensor] = None, beta: float = 0.0,
                  dropout_p: float = 0.0, training: bool = False) -> Tensor:
    """SimpleHGN's and GAT's edge attention as one node, in
    ``layout.pattern`` order.

    Per edge ``e = (u → v)`` of type ``t``, with ``a = softmax`` over the
    edges into ``v``::

        alpha_e = dropout((1 - beta) · a(leaky_relu(s_src[u] + s_dst[v]
                                                    + type_score[t]))
                          + beta · alpha_prev_e)

    ``score_src``/``score_dst`` are ``(N, H)``, ``type_score`` ``(T, H)``
    or ``None`` (no edge-type term, as in GAT's attention);
    ``alpha_prev`` and the result are ``(E, H)`` in pattern order, so the
    result goes straight into :func:`~repro.tensor.weighted_spmm` and the
    next layer.  The residual applies when ``alpha_prev`` is given and
    ``beta > 0``; dropout when ``training`` and ``dropout_p > 0``.

    Values and gradients are bit-identical to the composite chain it
    replaces (gathers, adds, :func:`leaky_relu`, the fused
    :func:`segment_softmax`, the residual, :func:`dropout`, then a gather
    into pattern order): the same float operations, with per-destination
    gathers as ``np.repeat`` and every scatter a :func:`scatter_sum`
    that visits a segment's entries in edge order (``np.add.at``'s sums,
    in either dtype).  The dropout mask is drawn over ``(E, H)`` in edge
    order, so every edge keeps its random number.

    On a compact :meth:`AttentionLayout.restrict`-ed layout
    ``score_src`` has one row per pattern column and ``score_dst`` one
    per pattern row.  The result holds the kept entries only, each with
    the bits (and gradients) it has on the full layout; the mask is still
    drawn over every edge of the topology, so the generator advances as
    on the full layout.
    """
    score_src = ensure_tensor(score_src)
    score_dst = ensure_tensor(score_dst)
    parents = (score_src, score_dst)
    pattern, counts = layout.pattern, layout.counts
    dst = pattern.row_of_nnz
    logits = (np.take(score_src.data, pattern.indices, axis=0)
              + np.repeat(score_dst.data, counts, axis=0))
    if type_score is not None:
        type_score = ensure_tensor(type_score)
        parents += (type_score,)
        logits += np.take(type_score.data, layout.etype_sorted, axis=0)
    positive = logits > 0
    act = leaky_relu_data(logits, negative_slope)

    # segment softmax, stabilized by the (detached) per-destination max
    shift = np.zeros(score_dst.shape, dtype=act.dtype)
    if layout.starts.size:
        seg_max = np.maximum.reduceat(act, layout.starts, axis=0)
        shift[layout.filled] = np.where(np.isfinite(seg_max), seg_max, 0.0)
    exp_scores = np.exp(act - np.repeat(shift, counts, axis=0))
    denom = scatter_sum(exp_scores, dst, score_dst.shape)
    soft = exp_scores / (np.repeat(denom, counts, axis=0) + 1e-16)

    alpha = soft
    residual = alpha_prev is not None and beta > 0
    if residual:
        alpha_prev = ensure_tensor(alpha_prev)
        parents += (alpha_prev,)
        keep_w = np.asarray(1.0 - beta, dtype=get_default_dtype())
        prev_w = np.asarray(beta, dtype=get_default_dtype())
        alpha = soft * keep_w + alpha_prev.data * prev_w
    drop = training and dropout_p > 0.0
    if drop:
        if dropout_p >= 1.0:
            raise ValueError("dropout probability must be < 1")
        draws = random_values((layout.num_edges,) + alpha.shape[1:],
                              dtype=alpha.dtype)
        mask = (np.take(draws, layout.order, axis=0)
                >= dropout_p).astype(alpha.dtype) / (1.0 - dropout_p)
        alpha = alpha * mask

    out = Tensor(alpha, requires_grad=_needs_grad(*parents))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if drop:
                grad = grad * mask
            if residual:
                if alpha_prev.requires_grad:
                    alpha_prev.accumulate_grad(grad * prev_w)
                grad = grad * keep_w
            weighted = soft * grad
            seg_dot = scatter_sum(weighted, dst, score_dst.shape)
            g_logits = (weighted - soft * np.repeat(seg_dot, counts, axis=0)) \
                * leaky_relu_factor(positive, negative_slope)
            # the derivative factor is float64, as in leaky_relu's
            # backward; accumulate_grad casts the product back the same way
            g_logits = g_logits.astype(logits.dtype, copy=False)
            if score_dst.requires_grad:
                score_dst.accumulate_grad(scatter_sum(
                    g_logits, dst, score_dst.shape, score_dst.dtype))
            # the source and type gradients sum in edge order
            per_edge = np.take(g_logits, layout.inverse, axis=0)
            for scores, index in ((score_src, layout.src),
                                  (type_score, layout.etype)):
                if scores is not None and scores.requires_grad:
                    scores.accumulate_grad(scatter_sum(
                        per_edge, index, scores.shape, scores.dtype))
        out._rig(parents, backward)
    return out


@profiled
def head_dot(x: Tensor, vec: Tensor) -> Tensor:
    """Fused per-head dot product ``(x * vec).sum(axis=-1)``.

    ``x`` is ``(N, H, d)``, ``vec`` ``(H, d)`` → ``(N, H)`` — the
    attention-score pattern of GAT/SimpleHGN.  The composite materializes
    the ``(N, H, d)`` product twice (forward and the sum's broadcast
    backward); the fused node contracts directly via einsum and its
    backward allocates only the two true gradients.  Falls back to the
    composite when the fused kernels are off (identical values).
    """
    x, vec = ensure_tensor(x), ensure_tensor(vec)
    if not _FUSED or x.ndim != 3 or vec.ndim != 2:
        return (x * vec).sum(axis=-1)
    out = Tensor(np.einsum("nhd,hd->nh", x.data, vec.data),
                 requires_grad=_needs_grad(x, vec))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(grad[:, :, None] * vec.data)
            if vec.requires_grad:
                vec.accumulate_grad(np.einsum("nhd,nh->hd", x.data, grad))
        out._rig((x, vec), backward)
    return out


# ----------------------------------------------------------------------
# Embeddings
# ----------------------------------------------------------------------
def embedding(table: Tensor, index: np.ndarray) -> Tensor:
    """Look up rows of an embedding ``table`` (gradient scatters back)."""
    return gather_rows(table, index)


def one_hot(index: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding as a plain array (constant, no gradient)."""
    from .dtype import get_default_dtype

    index = np.asarray(index, dtype=np.int64)
    out = np.zeros((index.shape[0], num_classes), dtype=get_default_dtype())
    out[np.arange(index.shape[0]), index] = 1.0
    return out


__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "addmm",
    "dropout",
    "l2_normalize",
    "layer_norm",
    "segment_max_data",
    "segment_softmax",
    "AttentionLayout",
    "csr_attention",
    "head_dot",
    "embedding",
    "one_hot",
    "fused_kernels",
    "fused_kernels_enabled",
    "set_fused_kernels",
]
