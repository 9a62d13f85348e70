"""Reverse-mode automatic differentiation over numpy arrays.

This module is the substrate that replaces PyTorch's autograd in the AutoAC
reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records, for
every differentiable operation, the parent tensors and a backward closure
that distributes the incoming gradient.  Calling :meth:`Tensor.backward` on a
scalar output walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that requires them.

The engine supports broadcasting (gradients are reduced back to the original
shapes), fancy integer indexing (used heavily by the message-passing GNNs),
and higher-rank ``matmul``.  Arithmetic runs in the engine default dtype
(:mod:`.dtype`): float64 by default so finite-difference gradient checks
are tight, float32 under the fast runtime profile.

After :meth:`Tensor.backward` the recorded graph is *freed* by default
(PyTorch semantics): non-leaf nodes drop their gradients, parents and
backward closures so epoch-sized graphs become collectible immediately.
Pass ``retain_graph=True`` to keep the graph for a second backward.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as _sp

from . import _flags
from ._profile import profiled
from .dtype import get_default_dtype

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True

#: sentinel installed in place of a backward closure once a graph has been
#: freed, so a second backward raises instead of silently dropping grads
_FREED = object()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


@contextlib.contextmanager
def enable_grad():
    """Context manager that re-enables graph recording inside ``no_grad``."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = True
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(data: Arrayable, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = get_default_dtype()
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


#: below this many entries one ``np.add.at`` call costs less than a
#: ``np.bincount`` call per column (~2 µs each on a 2-core x86 host)
_EXACT_SCATTER_MIN_ENTRIES = 256


def scatter_accumulate(out: np.ndarray, index, grad: np.ndarray) -> None:
    """``out[index] += grad`` accumulating duplicates, in place.

    The reference implementation is ``np.add.at`` — correct for every
    index type but unbuffered and therefore slow.  Under the fused
    kernels (:mod:`._flags`), 1-D in-range integer-array indices take
    a 5–6× faster route: per-column ``np.bincount`` for narrow
    gradients, a CSR-transpose matmul for wide ones.  The fast paths
    accumulate in a different float order, so they stay gated — the
    float64 reference profile keeps ``np.add.at``'s sums bit-for-bit.

    One route is exact and so taken outside the fused kernels too: a
    float64 scatter into an all-``+0.0`` ``out`` (every backward's fresh
    buffer) with at least as many entries as rows, and a few hundred at
    least.  ``np.bincount`` adds each column in index order starting
    from ``+0.0``, the very sums ``np.add.at`` forms.
    """
    n = out.shape[0] if out.ndim else 0
    fused = _flags.fused_enabled()
    rows = (out.ndim >= 1 and isinstance(index, np.ndarray)
            and index.ndim == 1 and np.issubdtype(index.dtype, np.integer)
            and grad.shape == (index.shape[0],) + out.shape[1:])
    exact = (rows and not fused
             and index.shape[0] >= max(n, _EXACT_SCATTER_MIN_ENTRIES)
             and out.dtype == np.float64 and grad.dtype == np.float64
             and not out.view(np.uint64).any())
    if (exact or (rows and fused)) and (
            index.size == 0 or (index.min() >= 0 and index.max() < n)):
        if exact:
            columns = grad.reshape(index.shape[0], -1).T
            acc = np.empty((columns.shape[0], n), dtype=np.float64)
            for c, weights in enumerate(columns):
                acc[c] = np.bincount(index, weights=weights, minlength=n)
            out += acc.T.reshape(out.shape)
            return
        if grad.ndim == 1:
            out += np.bincount(index, weights=grad,
                               minlength=n).astype(out.dtype, copy=False)
            return
        flat = grad.reshape(grad.shape[0], -1)
        cols = flat.shape[1]
        if cols <= 8:
            acc = np.empty((n, cols), dtype=np.float64)
            for c in range(cols):
                acc[:, c] = np.bincount(index, weights=flat[:, c],
                                        minlength=n)
            out += acc.reshape(out.shape).astype(out.dtype, copy=False)
        else:
            pattern = _sp.csr_matrix(
                (np.ones(index.shape[0], dtype=flat.dtype), index,
                 np.arange(index.shape[0] + 1)),
                shape=(index.shape[0], n))
            out += (pattern.T @ flat).reshape(out.shape)
        return
    np.add.at(out, index, grad)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Broadcasting may have (a) prepended dimensions and (b) stretched
    singleton dimensions; both are undone by summation.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    stretched = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "name", "__weakref__")

    def __init__(
        self,
        data: Arrayable,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_tag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a view of the data severed from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Autograd plumbing
    # ------------------------------------------------------------------
    def _rig(
        self,
        parents: Tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Attach parents/backward to ``self`` (the freshly produced output)."""
        self._parents = parents
        self._backward_fn = backward_fn
        return self

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # ``grad + 0.0`` in one pass: bit-equal to zeros-then-add
            self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (the tensor must be scalar in that case,
        mirroring PyTorch's behaviour).  Unless ``retain_graph`` is True
        the recorded graph is freed afterwards: non-leaf nodes release
        their ``.grad``, parents and backward closures, so intermediates
        of epoch-sized graphs are garbage-collectible immediately.  A
        second backward through a freed graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)

        order = self._topological_order()
        self.accumulate_grad(grad)
        for node in reversed(order):
            backward_fn = node._backward_fn
            if backward_fn is _FREED:
                raise RuntimeError(
                    "backward through a graph that was already freed; pass "
                    "retain_graph=True to the first backward (or recompute "
                    "the forward) to backpropagate twice")
            if backward_fn is not None and node.grad is not None:
                backward_fn(node.grad)
        # Non-leaf gradients are working buffers of this pass: always
        # release them (leaves keep theirs), so a second backward with
        # retain_graph accumulates correctly into the leaves alone.
        for node in order:
            if node._backward_fn is not None:
                node.grad = None
                if not retain_graph:  # free the graph itself too
                    node._parents = ()
                    node._backward_fn = _FREED

    def _topological_order(self) -> list:
        order: list = []
        visited: set = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        return add(self, other)

    def __radd__(self, other: Arrayable) -> "Tensor":
        return add(other, self)

    def __sub__(self, other: Arrayable) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return sub(other, self)

    def __mul__(self, other: Arrayable) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other: Arrayable) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other: Arrayable) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return div(other, self)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        return getitem(self, index)

    # Reductions / shaping (thin wrappers; implementations below)
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return neg(tensor_max(neg(self), axis=axis, keepdims=keepdims))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return transpose(self, axes)

    def flatten(self) -> "Tensor":
        return reshape(self, (-1,))

    def squeeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        del shape[axis]
        return reshape(self, tuple(shape))

    def unsqueeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        axis = axis if axis >= 0 else axis + len(shape) + 1
        shape.insert(axis, 1)
        return reshape(self, tuple(shape))


def ensure_tensor(value: Arrayable) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no-op when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _needs_grad(*tensors: Tensor) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


# ----------------------------------------------------------------------
# Elementwise binary operations
# ----------------------------------------------------------------------
@profiled
def add(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(grad, b.shape))
        out._rig((a, b), backward)
    return out


@profiled
def sub(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(a.data - b.data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(-grad, b.shape))
        out._rig((a, b), backward)
    return out


@profiled
def mul(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(grad * a.data, b.shape))
        out._rig((a, b), backward)
    return out


@profiled
def div(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(a.data / b.data, requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(-grad * a.data / (b.data ** 2), b.shape))
        out._rig((a, b), backward)
    return out


@profiled
def neg(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(-a.data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(-grad)
        out._rig((a,), backward)
    return out


@profiled
def power(a: Arrayable, exponent: float) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(a.data ** exponent, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * exponent * (a.data ** (exponent - 1)))
        out._rig((a,), backward)
    return out


@profiled
def maximum(a: Arrayable, b: Arrayable) -> Tensor:
    """Elementwise maximum; on ties the gradient flows to the first operand."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(np.maximum(a.data, b.data), requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        take_a = a.data >= b.data
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad * take_a, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(grad * ~take_a, b.shape))
        out._rig((a, b), backward)
    return out


# ----------------------------------------------------------------------
# Elementwise unary operations
# ----------------------------------------------------------------------
@profiled
def exp(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.exp(a.data)
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * out_data)
        out._rig((a,), backward)
    return out


@profiled
def log(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.log(a.data), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad / a.data)
        out._rig((a,), backward)
    return out


@profiled
def sqrt(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.sqrt(a.data)
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * 0.5 / out_data)
        out._rig((a,), backward)
    return out


@profiled
def cos(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.cos(a.data), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(-grad * np.sin(a.data))
        out._rig((a,), backward)
    return out


@profiled
def sin(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.sin(a.data), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * np.cos(a.data))
        out._rig((a,), backward)
    return out


@profiled
def tanh(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out_data = np.tanh(a.data)
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * (1.0 - out_data ** 2))
        out._rig((a,), backward)
    return out


@profiled
def sigmoid(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out_data = 0.5 * (1.0 + np.tanh(0.5 * a.data))  # numerically stable
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * out_data * (1.0 - out_data))
        out._rig((a,), backward)
    return out


@profiled
def relu(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0), requires_grad=_needs_grad(a))
    if out.requires_grad:
        mask = a.data > 0
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * mask)
        out._rig((a,), backward)
    return out


@profiled
def leaky_relu(a: Arrayable, negative_slope: float = 0.01) -> Tensor:
    a = ensure_tensor(a)
    positive = a.data > 0
    out = Tensor(np.where(positive, a.data, negative_slope * a.data),
                 requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * np.where(positive, 1.0, negative_slope))
        out._rig((a,), backward)
    return out


@profiled
def elu(a: Arrayable, alpha: float = 1.0) -> Tensor:
    a = ensure_tensor(a)
    positive = a.data > 0
    exp_part = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    out = Tensor(np.where(positive, a.data, exp_part), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * np.where(positive, 1.0, exp_part + alpha))
        out._rig((a,), backward)
    return out


@profiled
def absolute(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.abs(a.data), requires_grad=_needs_grad(a))
    if out.requires_grad:
        sign = np.sign(a.data)
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * sign)
        out._rig((a,), backward)
    return out


@profiled
def clip(a: Arrayable, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through only inside ``[low, high]``."""
    a = ensure_tensor(a)
    out = Tensor(np.clip(a.data, low, high), requires_grad=_needs_grad(a))
    if out.requires_grad:
        inside = (a.data >= low) & (a.data <= high)
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * inside)
        out._rig((a,), backward)
    return out


# ----------------------------------------------------------------------
# Matrix multiplication
# ----------------------------------------------------------------------
@profiled
def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = Tensor(np.matmul(a.data, b.data), requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    grad_a = np.multiply.outer(grad, b.data) if a.data.ndim > 1 else grad * b.data
                    if a.data.ndim == 1:
                        grad_a = grad * b.data
                else:
                    grad_b_t = np.swapaxes(b.data, -1, -2)
                    if a.data.ndim == 1:
                        grad_a = np.matmul(np.expand_dims(grad, -2), grad_b_t).squeeze(-2)
                    else:
                        grad_a = np.matmul(grad, grad_b_t)
                a.accumulate_grad(unbroadcast(grad_a, a.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    grad_b = np.multiply.outer(a.data, grad) if b.data.ndim > 1 else grad * a.data
                    if b.data.ndim == 1:
                        grad_b = grad * a.data
                else:
                    grad_a_t = np.swapaxes(a.data, -1, -2)
                    if b.data.ndim == 1:
                        grad_b = np.matmul(grad_a_t, np.expand_dims(grad, -1)).squeeze(-1)
                    else:
                        grad_b = np.matmul(grad_a_t, grad)
                b.accumulate_grad(unbroadcast(grad_b, b.shape))
        out._rig((a, b), backward)
    return out


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
@profiled
def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())
        out._rig((a,), backward)
    return out


@profiled
def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), requires_grad=_needs_grad(a))
    if out.requires_grad:
        if axis is None:
            count = a.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([a.shape[ax] for ax in axes]))
        def backward(grad: np.ndarray) -> None:
            g = grad / count
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            a.accumulate_grad(np.broadcast_to(g, a.shape).copy())
        out._rig((a,), backward)
    return out


@profiled
def tensor_max(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
                    o = np.expand_dims(o, ax)
            mask = a.data == o
            # split gradient equally across ties so the check is deterministic
            counts = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            a.accumulate_grad(np.broadcast_to(g, a.shape) * mask / counts)
        out._rig((a,), backward)
    return out


# ----------------------------------------------------------------------
# Shaping
# ----------------------------------------------------------------------
@profiled
def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(a.data.reshape(shape), requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad.reshape(a.shape))
        out._rig((a,), backward)
    return out


@profiled
def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    a = ensure_tensor(a)
    out = Tensor(np.transpose(a.data, axes), requires_grad=_needs_grad(a))
    if out.requires_grad:
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(np.transpose(grad, inverse))
        out._rig((a,), backward)
    return out


@profiled
def getitem(a: Tensor, index) -> Tensor:
    """Differentiable indexing supporting slices and integer arrays."""
    a = ensure_tensor(a)
    out = Tensor(a.data[index], requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(a.data)
            scatter_accumulate(full, index, grad)
            a.accumulate_grad(full)
        out._rig((a,), backward)
    return out


@profiled
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 requires_grad=_needs_grad(*tensors))
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor.accumulate_grad(grad[tuple(slicer)])
        out._rig(tuple(tensors), backward)
    return out


@profiled
def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [ensure_tensor(t) for t in tensors]
    out = Tensor(np.stack([t.data for t in tensors], axis=axis),
                 requires_grad=_needs_grad(*tensors))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                if tensor.requires_grad:
                    tensor.accumulate_grad(np.squeeze(piece, axis=axis))
        out._rig(tuple(tensors), backward)
    return out


@profiled
def where(condition: np.ndarray, a: Arrayable, b: Arrayable) -> Tensor:
    """``np.where`` with gradients to both branches (condition is data)."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out = Tensor(np.where(cond, a.data, b.data), requires_grad=_needs_grad(a, b))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a.accumulate_grad(unbroadcast(grad * cond, a.shape))
            if b.requires_grad:
                b.accumulate_grad(unbroadcast(grad * ~cond, b.shape))
        out._rig((a, b), backward)
    return out


# ----------------------------------------------------------------------
# Scatter / gather primitives (message passing workhorses)
# ----------------------------------------------------------------------
@profiled
def scatter_add(source: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``source`` into ``num_segments`` bins given by ``index``.

    ``source`` has shape ``(E, ...)``; the output has shape
    ``(num_segments, ...)``.  This is the adjoint of row gathering and the
    core aggregation primitive of every message-passing layer here.
    """
    source = ensure_tensor(source)
    index = np.asarray(index, dtype=np.int64)
    out_data = np.zeros((num_segments,) + source.shape[1:], dtype=source.data.dtype)
    scatter_accumulate(out_data, index, source.data)
    out = Tensor(out_data, requires_grad=_needs_grad(source))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            source.accumulate_grad(grad[index])
        out._rig((source,), backward)
    return out


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Row gather ``a[index]`` (alias of integer-array ``__getitem__``)."""
    return getitem(a, np.asarray(index, dtype=np.int64))


def repeat_rows(a: Tensor, repeats: int) -> Tensor:
    """Tile a ``(1, ...)`` tensor to ``(repeats, ...)`` differentiably."""
    index = np.zeros(repeats, dtype=np.int64)
    return gather_rows(a, index)


__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "unbroadcast",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "maximum",
    "exp",
    "log",
    "sqrt",
    "cos",
    "sin",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "elu",
    "absolute",
    "clip",
    "matmul",
    "tensor_sum",
    "tensor_mean",
    "tensor_max",
    "reshape",
    "transpose",
    "getitem",
    "concat",
    "stack",
    "where",
    "scatter_add",
    "gather_rows",
    "repeat_rows",
]
