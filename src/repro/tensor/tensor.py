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
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as _sp

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


def _as_array(data: Arrayable, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = get_default_dtype()
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def scatter_sum(values: np.ndarray, index, shape: Tuple[int, ...],
                dtype=None) -> np.ndarray:
    """A fresh ``+0.0`` array of ``shape`` with ``values`` added at
    ``index``, duplicates accumulating (``np.add.at`` into zeros).

    A 1-D in-range integer index whose ``values`` are ``(E,) + shape[1:]``
    of ``dtype`` (default: ``values``' own) takes a CSR-transpose
    product: a ``(rows, E)`` pattern with one unit entry per column
    times ``values`` as an ``(E, width)`` matrix.  The product adds each
    entry into its row in index order, starting from ``+0.0`` — the sums
    ``np.add.at`` forms, bit for bit in any dtype and width (when two
    NaNs meet, IEEE 754 leaves the sign of the result open, and numpy's
    own 1-D and N-D ``np.add.at`` loops differ there).  On large
    scatters it is an order of magnitude faster than ``np.add.at``
    (10,821 entries into (7, 64) float64: 0.6 vs 10 ms on a 2-core x86
    host).

    Every other index — empty, masks, slices, tuples, negative or
    out-of-range entries (``IndexError``), ``values`` that broadcast or
    differ in dtype — goes through ``np.add.at`` itself.
    """
    dtype = values.dtype if dtype is None else np.dtype(dtype)
    n = shape[0] if shape else 0
    if (isinstance(index, np.ndarray) and index.ndim == 1
            and np.issubdtype(index.dtype, np.integer)
            and values.dtype == dtype
            and values.shape == index.shape + tuple(shape[1:])
            and index.size and index.min() >= 0 and index.max() < n):
        entries = index.shape[0]
        pattern = _sp.csc_matrix(
            (np.ones(entries, dtype=dtype), index, np.arange(entries + 1)),
            shape=(n, entries))
        return (pattern @ values.reshape(entries, -1)).reshape(shape)
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out, index, values)
    return out


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
        """Add ``grad`` into ``self.grad``.

        A leaf owns a private array (optimizers and ``clip_grad_norm``
        update it in place).  A non-leaf's gradient is only read by its
        own backward and then released, so its first gradient is kept
        without a copy when dtype and shape match.  That array may be
        shared with a sibling, so a second gradient is summed into a
        fresh array, never in place.
        """
        leaf = self._backward_fn is None
        if self.grad is None:
            if (not leaf and isinstance(grad, np.ndarray)
                    and grad.dtype == self.data.dtype
                    and grad.shape == self.data.shape):
                self.grad = grad
            else:
                # ``grad + 0.0`` in one pass: bit-equal to zeros-then-add
                self.grad = np.add(grad, 0.0, out=np.empty_like(self.data))
        elif leaf:
            self.grad += grad
        else:
            self.grad = np.add(self.grad, grad, out=np.empty_like(self.data))

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

    def squeeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        del shape[axis]
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


# The activations below pick between two branches per entry.  With an
# unpredictable sign pattern ``np.where`` runs branchy and is 10-20x slower
# than a ``np.maximum`` or a sum.  Those branch-free forms are byte-equal
# to the ``np.where`` forms (signed zeros, infinities and NaNs included)
# for a leaky ReLU slope in (0, 1] and an ELU alpha in [2**-64, 1]; other
# coefficients keep ``np.where``.  (A zero slope turns ``+inf`` into NaN,
# and a tinier alpha lets ``alpha * (exp(x) - 1)`` underflow to -0.0.)


def leaky_relu_data(x: np.ndarray, negative_slope: float) -> np.ndarray:
    """Forward values of :func:`leaky_relu`."""
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(x, negative_slope * x)
    return np.where(x > 0, x, negative_slope * x)


def leaky_relu_factor(positive: np.ndarray,
                      negative_slope: float) -> np.ndarray:
    """Local derivative of :func:`leaky_relu` from the mask ``x > 0``."""
    if 0.0 < negative_slope <= 1.0:
        return np.maximum(positive, negative_slope)
    return np.where(positive, 1.0, negative_slope)


@profiled
def leaky_relu(a: Arrayable, negative_slope: float = 0.01) -> Tensor:
    a = ensure_tensor(a)
    positive = a.data > 0
    out = Tensor(leaky_relu_data(a.data, negative_slope),
                 requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            a.accumulate_grad(grad * leaky_relu_factor(positive,
                                                       negative_slope))
        out._rig((a,), backward)
    return out


@profiled
def elu(a: Arrayable, alpha: float = 1.0) -> Tensor:
    a = ensure_tensor(a)
    positive = a.data > 0
    exp_part = alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0)
    branch_free = 2.0 ** -64 <= alpha <= 1.0
    if branch_free:  # exp_part is +0.0 wherever x > 0
        out_data = exp_part + np.maximum(a.data, 0.0)
    else:
        out_data = np.where(positive, a.data, exp_part)
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if branch_free:
                factor = np.maximum(positive, exp_part + alpha)
            else:
                factor = np.where(positive, 1.0, exp_part + alpha)
            a.accumulate_grad(grad * factor)
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


def _increasing_rows(index, data: np.ndarray) -> bool:
    """Whether ``index`` is a 1-D integer array of in-range rows of
    ``data`` in strictly increasing order (so no row repeats)."""
    return (isinstance(index, np.ndarray) and index.ndim == 1
            and np.issubdtype(index.dtype, np.integer) and data.ndim >= 1
            and (index.size == 0
                 or (index[0] >= 0 and index[-1] < data.shape[0]
                     and bool(np.all(index[1:] > index[:-1])))))


@profiled
def getitem(a: Tensor, index) -> Tensor:
    """Differentiable indexing supporting slices and integer arrays.

    A 1-D integer index gathers rows by ``np.take(..., axis=0)``, as
    every row gather in this package does: the same values (negative
    indices wrap, out-of-range ones raise ``IndexError``), and on narrow
    rows about ten times faster than fancy indexing (0.02 vs 0.22 ms on
    a (10821, 4) float32 array).

    When that index is strictly increasing and in range (a compact
    layout's rows, an op's assigned rows), the backward assigns
    ``grad + 0.0`` into zeros instead of scattering: with no repeated
    row the scatter adds each gradient to one ``+0.0``, and ``g + 0.0``
    is that sum bit for bit (``-0.0`` becomes ``+0.0``).
    Any other index scatters through :func:`scatter_sum`.
    """
    a = ensure_tensor(a)
    if (isinstance(index, np.ndarray) and index.ndim == 1
            and np.issubdtype(index.dtype, np.integer) and a.data.ndim):
        out_data = np.take(a.data, index, axis=0)
    else:  # boolean masks, slices, tuples
        out_data = a.data[index]
    out = Tensor(out_data, requires_grad=_needs_grad(a))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if _increasing_rows(index, a.data):
                full = np.zeros_like(a.data)
                full[index] = grad + 0.0
            else:
                full = scatter_sum(grad, index, a.data.shape, a.data.dtype)
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
    core aggregation primitive of every message-passing layer here.  Each
    bin sums its rows in index order from ``+0.0``, ``np.add.at``'s sums
    bit for bit in either runtime profile (:func:`scatter_sum`).
    """
    source = ensure_tensor(source)
    index = np.asarray(index, dtype=np.int64)
    out_data = scatter_sum(source.data, index,
                           (num_segments,) + source.shape[1:])
    out = Tensor(out_data, requires_grad=_needs_grad(source))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            source.accumulate_grad(np.take(grad, index, axis=0))
        out._rig((source,), backward)
    return out


@profiled
def place_rows(blocks: Sequence[Tensor], indices: Sequence[np.ndarray],
               num_rows: int) -> Tensor:
    """Put the rows of each block at its ``indices`` in one output.

    ``blocks[i]`` is ``(len(indices[i]), ...)``; the output is
    ``(num_rows, ...)`` with rows that no index names left ``+0.0``.
    The indices must be disjoint and repeat no row (node types
    partitioning ``h0``'s rows).  Then this is the exact replacement of
    ``scatter_add(blocks[0], indices[0], num_rows) + scatter_add(...)
    + ...``: each placed row is ``row + 0.0`` (a scatter into zeros
    turns -0.0 into +0.0 the same way), and the backward is one row
    gather per block.
    """
    blocks = [ensure_tensor(block) for block in blocks]
    indices = [np.asarray(index, dtype=np.int64) for index in indices]
    out_data = np.zeros((num_rows,) + blocks[0].shape[1:],
                        dtype=np.result_type(*[b.data for b in blocks]))
    for block, index in zip(blocks, indices):
        out_data[index] = block.data
    np.add(out_data, 0.0, out=out_data)
    out = Tensor(out_data, requires_grad=_needs_grad(*blocks))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            for block, index in zip(blocks, indices):
                if block.requires_grad:
                    block.accumulate_grad(np.take(grad, index, axis=0))
        out._rig(tuple(blocks), backward)
    return out


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Row gather ``a[index]`` (alias of integer-array ``__getitem__``)."""
    return getitem(a, np.asarray(index, dtype=np.int64))


__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
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
    "place_rows",
    "gather_rows",
]
