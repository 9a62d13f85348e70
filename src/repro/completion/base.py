"""Abstract interfaces of the completion-operation search space.

A :class:`CompletionOp` produces completed attributes (in the shared hidden
dimension) for every node in V⁻.  The topology-dependent operations of the
paper (mean / GCN / PPNP) all factor as

    ``completed = (P X)[V⁻] @ W``

where ``P`` is a fixed propagation operator over the graph, ``X`` the
zero-filled raw attribute matrix and ``W`` a learnable transform — so each
op precomputes the constant ``(P X)[V⁻]`` block once and training touches
only ``W`` (:class:`ConstantProduct` keeps the product while ``W`` keeps
its bits).  The topology-independent one-hot op is a learnable embedding
per no-attribute node (one-hot × linear ≡ embedding lookup).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..datasets import HeteroDataset
from ..tensor import Module, Parameter, Tensor, is_grad_enabled


class CompletionOp(Module):
    """Base class: completes attributes for all V⁻ nodes of a dataset."""

    #: registry key; subclasses must override
    name: str = "abstract"

    def __init__(self, dataset: HeteroDataset, hidden_dim: int) -> None:
        super().__init__()
        self.dataset = dataset
        self.hidden_dim = hidden_dim
        self.missing_ids = dataset.missing_global_ids
        self.num_missing = int(self.missing_ids.shape[0])

    def forward(self) -> Tensor:
        """Return completed attributes, shape ``(num_missing, hidden_dim)``.

        Row order follows ``dataset.missing_global_ids``.
        """
        raise NotImplementedError

    def forward_rows(self, rows: np.ndarray) -> Tensor:
        """Complete only the given rows of ``missing_global_ids``.

        The mini-batch execution path: a sampled view touches a handful of
        V⁻ nodes, and ops that can should produce exactly those rows —
        shape ``(len(rows), hidden_dim)`` — without materializing the full
        ``(num_missing, hidden_dim)`` block.  The base implementation
        falls back to slicing the full forward (correct, not bounded);
        every op in the shipped search space overrides it.
        """
        from ..tensor import gather_rows

        return gather_rows(self.forward(), np.asarray(rows, dtype=np.int64))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.num_missing}, dim={self.hidden_dim})"


def _same_bits(kept: np.ndarray, data: np.ndarray) -> bool:
    """Whether ``data`` holds exactly the bits of ``kept``: ``-0.0``
    differs from ``0.0``, and a NaN matches only the same NaN."""
    if kept.dtype != data.dtype or kept.shape != data.shape:
        return False
    return np.array_equal(kept.view(np.uint8),
                          np.ascontiguousarray(data).view(np.uint8))


_Kept = Tuple[np.ndarray, List[np.ndarray], np.ndarray]


class ConstantProduct:
    """``base @ weight (+ bias)`` for a constant ``base``, kept between calls.

    The value of the last call is reused while ``base`` is the same array
    and every parameter holds the bits it was computed at (a copy of each
    parameter's data is kept and compared), so any route that changes a
    weight — an optimizer step in place, ``p.data =``, a restored
    checkpoint, ``load_state_dict`` — makes the next call recompute.
    Hit or miss, the output rigs the live backward (``dL/dW = base.T @
    grad``, ``dL/db = grad.sum(0)``, the calls ``matmul`` and ``addmm``
    make), so gradients equal a recomputation's bit for bit; a frozen
    parameter gets none.  ``base`` must not change in place and must be
    in the parameters' dtype.
    """

    def __init__(self) -> None:
        #: ``(base, parameter data copies, value)`` of the last miss, one
        #: tuple so a reader never pairs a key with another call's value
        self._kept: Optional[_Kept] = None

    def hit(self, kept: Optional[_Kept], base: np.ndarray,
            params: Sequence[Parameter]) -> bool:
        """Whether ``kept`` holds ``base``'s product at ``params``."""
        return (kept is not None and kept[0] is base
                and all(_same_bits(saved, p.data)
                        for saved, p in zip(kept[1], params)))

    def __call__(self, base: np.ndarray, weight: Parameter,
                 bias: Optional[Parameter] = None) -> Tensor:
        params = (weight,) if bias is None else (weight, bias)
        kept = self._kept
        if not self.hit(kept, base, params):
            value = np.matmul(base, weight.data)
            if bias is not None:
                value += bias.data
            kept = self._kept = (base, [p.data.copy() for p in params], value)
        live = tuple(p for p in params if p.requires_grad)
        out = Tensor(kept[2], requires_grad=is_grad_enabled() and bool(live))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                if weight.requires_grad:
                    weight.accumulate_grad(np.matmul(base.T, grad))
                if bias is not None and bias.requires_grad:
                    bias.accumulate_grad(grad.sum(axis=0))
            out._rig(live, backward)
        return out


__all__ = ["CompletionOp", "ConstantProduct"]
