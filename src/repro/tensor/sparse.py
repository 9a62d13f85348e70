"""Sparse-matrix support for the autograd engine.

Heterogeneous GNNs multiply large, fixed adjacency matrices with dense
feature tensors.  Storing those adjacencies densely is an O(N²) wall in
both memory and compute, so this module provides a first-class CSR type,
:class:`SparseTensor`, plus two autograd-aware products:

* :func:`spmm` — ``y = A @ x`` where ``A`` is *data* (never optimized).
  Only the dense operand is differentiable:
  ``dL/dx = A.T @ dL/dy``.
* :func:`weighted_spmm` — ``y = A(w) @ x`` where the sparsity *pattern* of
  ``A`` is fixed but its per-edge values ``w`` are a learnable
  :class:`~repro.tensor.tensor.Tensor` (attention coefficients).  Both
  operands are differentiable:
  ``dL/dx = A(w).T @ dL/dy`` and ``dL/dw_e = <dL/dy[row_e], x[col_e]>``.

Differentiability contract of :class:`SparseTensor` itself: the structure
(``indptr``/``indices``) and stored values are plain numpy data and never
carry gradients.  Gradients only flow through the dense operands of
:func:`spmm` / :meth:`SparseTensor.spmm` and, for :func:`weighted_spmm`,
through the externally supplied value tensor.  Normalization helpers
(:meth:`SparseTensor.row_normalize`, :meth:`SparseTensor.sym_normalize`)
are data-level transforms that return new constants.

The CSR kernels themselves are delegated to :mod:`scipy.sparse`, whose
compiled matmul is the fastest primitive available in this environment.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ._profile import profiled
from .dtype import get_default_dtype
from .tensor import Tensor, ensure_tensor, is_grad_enabled

SparseLike = Union["SparseTensor", sp.spmatrix]


class SparseTensor:
    """An immutable CSR matrix used as constant graph data.

    Parameters
    ----------
    indptr, indices, values:
        Standard CSR arrays.  ``values`` may contain duplicate
        ``(row, col)`` entries (multigraph edges); products sum them,
        which is exactly the aggregation semantics message passing needs.
    shape:
        ``(rows, cols)``.

    Instances are treated as immutable: every transform
    (:meth:`row_normalize`, :meth:`restrict_columns`, ...) returns a new
    ``SparseTensor``.  The transpose is computed lazily and cached because
    every backward pass of :func:`spmm` needs it.
    """

    __slots__ = ("indptr", "indices", "values", "shape",
                 "_transpose", "_row_of_nnz", "_head_blocks")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 values: np.ndarray, shape: Tuple[int, int]) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=get_default_dtype())
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.shape[0] != self.shape[0] + 1:
            raise ValueError(
                f"indptr length {self.indptr.shape[0]} does not match "
                f"{self.shape[0]} rows")
        if self.indices.shape[0] != self.values.shape[0]:
            raise ValueError("indices and values must have equal length")
        self._transpose: Optional["SparseTensor"] = None
        self._row_of_nnz: Optional[np.ndarray] = None
        self._head_blocks: dict = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "SparseTensor":
        """Wrap any scipy sparse matrix (converted to CSR)."""
        csr = matrix.tocsr()
        return cls(csr.indptr, csr.indices, csr.data, csr.shape)

    @classmethod
    def from_edges(cls, rows: np.ndarray, cols: np.ndarray,
                   shape: Tuple[int, int],
                   values: Optional[np.ndarray] = None) -> "SparseTensor":
        """Build from an edge list; duplicate edges are *kept* (they sum)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if values is None:
            values = np.ones(rows.shape[0], dtype=get_default_dtype())
        order = np.argsort(rows, kind="stable")
        counts = np.bincount(rows, minlength=shape[0])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, cols[order],
                   np.asarray(values, dtype=get_default_dtype())[order], shape)

    @classmethod
    def eye(cls, n: int) -> "SparseTensor":
        """Sparse identity of size ``n``."""
        return cls.from_scipy(sp.identity(n, format="csr"))

    # ------------------------------------------------------------------
    # Introspection / conversion
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    @property
    def T(self) -> "SparseTensor":
        """Cached transpose (CSC view re-expressed as CSR)."""
        if self._transpose is None:
            transposed = SparseTensor.from_scipy(self.to_scipy().T.tocsr())
            transposed._transpose = self
            self._transpose = transposed
        return self._transpose

    @property
    def row_of_nnz(self) -> np.ndarray:
        """Row index of every stored entry (cached; used by backward passes)."""
        if self._row_of_nnz is None:
            self._row_of_nnz = np.repeat(
                np.arange(self.shape[0], dtype=np.int64),
                np.diff(self.indptr))
        return self._row_of_nnz

    def head_block(self, heads: int
                   ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Structure of the block-diagonal ``(rows·H, cols·H)`` pattern.

        Row ``r·H + h`` of the block matrix holds row ``r``'s entries for
        head ``h`` at columns ``c·H + h``, so ``(n, H, d)`` arrays reshape
        to its ``(n·H, d)`` operands without a copy, and each block row
        sums its entries in this pattern's order: every product equals the
        per-head one bit for bit.  Returns ``(indptr, indices, perm)``,
        where ``perm`` takes a flattened ``(nnz, H)`` value array to the
        block's entry order (``None`` for one head).  Built once per head
        count and cached; :meth:`with_values` copies share the cache.
        """
        block = self._head_blocks.get(heads)
        if block is None:
            largest = max(self.shape[0], self.shape[1], self.nnz) * heads
            index_dtype = np.int32 if largest < 2 ** 31 else np.int64
            if heads == 1:
                block = (self.indptr.astype(index_dtype),
                         self.indices.astype(index_dtype), None)
            else:
                edge = np.repeat(np.arange(self.nnz, dtype=np.int64), heads)
                head = np.tile(np.arange(heads, dtype=np.int64), self.nnz)
                # (row, head, entry) order; flat (nnz, H) index = e·H + h
                perm = np.lexsort((edge, head, self.row_of_nnz[edge]))
                counts = np.repeat(np.diff(self.indptr), heads)
                indptr = np.zeros(self.shape[0] * heads + 1, dtype=index_dtype)
                np.cumsum(counts, out=indptr[1:])
                indices = (self.indices[edge[perm]] * heads
                           + head[perm]).astype(index_dtype)
                block = (indptr, indices, perm)
            self._head_blocks[heads] = block
        return block

    def to_scipy(self) -> sp.csr_matrix:
        """Zero-copy view as a :class:`scipy.sparse.csr_matrix`."""
        return sp.csr_matrix((self.values, self.indices, self.indptr),
                             shape=self.shape)

    def to_dense(self) -> np.ndarray:
        """Materialize the full dense matrix (use only on small graphs)."""
        return self.to_scipy().toarray()

    def with_values(self, values: np.ndarray) -> "SparseTensor":
        """Same sparsity pattern, new entry values (shares index arrays)."""
        out = SparseTensor(self.indptr, self.indices, values, self.shape)
        out._row_of_nnz = self._row_of_nnz
        out._head_blocks = self._head_blocks
        return out

    def copy(self) -> "SparseTensor":
        return SparseTensor(self.indptr.copy(), self.indices.copy(),
                            self.values.copy(), self.shape)

    def __repr__(self) -> str:
        return (f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.2e})")

    # ------------------------------------------------------------------
    # Degree / normalization helpers (data-level, return new constants)
    # ------------------------------------------------------------------
    def row_sums(self) -> np.ndarray:
        """Out-degree vector ``A @ 1`` (duplicates included)."""
        return np.bincount(self.row_of_nnz, weights=self.values,
                           minlength=self.shape[0])

    def col_sums(self) -> np.ndarray:
        """In-degree vector ``1^T A``."""
        return np.bincount(self.indices, weights=self.values,
                           minlength=self.shape[1])

    def scale_rows(self, factors: np.ndarray) -> "SparseTensor":
        """``diag(factors) @ A`` without forming the diagonal matrix."""
        factors = np.asarray(factors, dtype=self.values.dtype)
        return self.with_values(self.values * factors[self.row_of_nnz])

    def scale_cols(self, factors: np.ndarray) -> "SparseTensor":
        """``A @ diag(factors)`` without forming the diagonal matrix."""
        factors = np.asarray(factors, dtype=self.values.dtype)
        return self.with_values(self.values * factors[self.indices])

    def row_normalize(self) -> "SparseTensor":
        """``D^{-1} A`` — the mean-aggregation operator; empty rows stay 0."""
        degree = self.row_sums()
        inv = np.divide(1.0, degree, out=np.zeros_like(degree),
                        where=degree > 0)
        return self.scale_rows(inv)

    def sym_normalize(self) -> "SparseTensor":
        """``D^{-1/2} A D^{-1/2}`` (Kipf & Welling); zero degrees stay 0.

        Row and column degrees are computed independently, so this is also
        correct for rectangular biadjacency blocks.
        """
        row_deg = self.row_sums()
        col_deg = self.col_sums()
        inv_row = np.zeros_like(row_deg)
        nonzero = row_deg > 0
        inv_row[nonzero] = row_deg[nonzero] ** -0.5
        inv_col = np.zeros_like(col_deg)
        nonzero = col_deg > 0
        inv_col[nonzero] = col_deg[nonzero] ** -0.5
        return self.scale_rows(inv_row).scale_cols(inv_col)

    def add_self_loops(self, weight: float = 1.0) -> "SparseTensor":
        """Square matrices only: set the diagonal to ``weight``."""
        if self.shape[0] != self.shape[1]:
            raise ValueError("self loops require a square matrix")
        csr = self.to_scipy().tolil()
        csr.setdiag(weight)
        return SparseTensor.from_scipy(csr.tocsr())

    def restrict_columns(self, keep: np.ndarray) -> "SparseTensor":
        """Zero out (drop) every entry whose column is not in ``keep``.

        ``keep`` is a boolean mask of length ``cols``.  Used to restrict
        aggregation to attributed neighbors during attribute completion.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != self.shape[1]:
            raise ValueError("mask length must equal the column count")
        entry_mask = keep[self.indices]
        counts = np.bincount(self.row_of_nnz[entry_mask],
                             minlength=self.shape[0])
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return SparseTensor(indptr, self.indices[entry_mask],
                            self.values[entry_mask], self.shape)

    def eliminate_zeros(self) -> "SparseTensor":
        """Drop stored entries whose value is exactly zero."""
        csr = self.to_scipy().copy()
        csr.eliminate_zeros()
        return SparseTensor.from_scipy(csr)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def matmul_data(self, x: np.ndarray) -> np.ndarray:
        """Plain (non-differentiable) CSR × dense product."""
        return self.to_scipy() @ np.asarray(x)

    def spmm(self, x: Union[Tensor, np.ndarray]) -> Tensor:
        """Autograd-aware ``self @ x`` (gradient w.r.t. ``x`` only)."""
        return spmm(self, x)

    def __matmul__(self, x):
        if isinstance(x, Tensor):
            return spmm(self, x)
        if isinstance(x, np.ndarray):
            return self.matmul_data(x)
        return NotImplemented


def as_sparse_tensor(matrix: SparseLike) -> SparseTensor:
    """Coerce a scipy matrix into a :class:`SparseTensor` (no-op if one)."""
    if isinstance(matrix, SparseTensor):
        return matrix
    return SparseTensor.from_scipy(matrix)


@profiled
def spmm(matrix: SparseLike, x: Union[Tensor, np.ndarray]) -> Tensor:
    """Sparse ``matrix`` (constant) times dense ``x`` (differentiable).

    Accepts either a :class:`SparseTensor` or any scipy sparse matrix.
    The backward pass multiplies by the cached transpose:
    ``dL/dx = A.T @ dL/dy``.
    """
    x = ensure_tensor(x)
    matrix = as_sparse_tensor(matrix)
    out = Tensor(matrix.matmul_data(x.data),
                 requires_grad=is_grad_enabled() and x.requires_grad)
    if out.requires_grad:
        matrix_t = matrix.T
        def backward(grad: np.ndarray) -> None:
            x.accumulate_grad(matrix_t.matmul_data(grad))
        out._rig((x,), backward)
    return out


#: stored entries per chunk of the :func:`weighted_spmm` value gradient;
#: its two ``(chunk, H, d)`` gather buffers are reused across chunks
#: (2048 × 4 heads × 16 wide is 512 KiB per buffer in float32)
VALUE_GRAD_CHUNK = 2048


def edge_dots(grad: np.ndarray, x: np.ndarray, rows: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """``out[e] = <grad[rows[e]], x[cols[e]]>`` over the last axis.

    The value gradient of :func:`weighted_spmm`.  Formed in chunks of
    :data:`VALUE_GRAD_CHUNK` entries gathered into two reused buffers
    instead of two full ``(nnz, ..., d)`` gathers; each chunk runs the
    one-shot ``einsum`` on the same rows, so the result is bit-identical.
    The indices must be in range (``mode="clip"`` lets ``np.take`` write
    straight into the buffers).
    """
    nnz = rows.shape[0]
    spec = "ehd,ehd->eh" if grad.ndim == 3 else "ed,ed->e"
    out = np.empty((nnz,) + grad.shape[1:-1], dtype=np.result_type(grad, x))
    size = max(1, min(nnz, VALUE_GRAD_CHUNK))
    grad_buf = np.empty((size,) + grad.shape[1:], dtype=grad.dtype)
    x_buf = np.empty((size,) + x.shape[1:], dtype=x.dtype)
    for start in range(0, nnz, size):
        stop = min(start + size, nnz)
        count = stop - start
        np.take(grad, rows[start:stop], axis=0, out=grad_buf[:count],
                mode="clip")
        np.take(x, cols[start:stop], axis=0, out=x_buf[:count], mode="clip")
        np.einsum(spec, grad_buf[:count], x_buf[:count], out=out[start:stop])
    return out


@profiled
def weighted_spmm(pattern: SparseTensor, values: Tensor, x: Tensor) -> Tensor:
    """``A(values) @ x`` with a fixed sparsity pattern and learnable values.

    This is the CSR fast path for attention-style aggregation
    ``out[r] = Σ_e values[e] · x[pattern.indices[e]]`` summed over the
    stored entries ``e`` of row ``r`` (duplicate ``(row, col)`` entries are
    legal and sum, which matches multigraph message passing).

    Shapes
    ------
    * ``values``: ``(nnz,)`` with ``x``: ``(cols, d)`` → ``(rows, d)``; or
    * ``values``: ``(nnz, H)`` with ``x``: ``(cols, H, d)`` → ``(rows, H, d)``
      (one independent product per head ``h``).

    All heads run as one product with the block-diagonal matrix of
    :meth:`SparseTensor.head_block`, in each direction; the value
    gradient comes from :func:`edge_dots`.  Both ``values`` and ``x`` are
    differentiable; ``pattern``'s structure and stored values are ignored
    as data (only ``indptr``/``indices`` matter).
    """
    values = ensure_tensor(values)
    x = ensure_tensor(x)
    if x.data.shape[0] != pattern.shape[1]:
        raise ValueError(
            f"dense operand has {x.data.shape[0]} rows but the pattern has "
            f"{pattern.shape[1]} columns")
    if values.data.shape[0] != pattern.nnz:
        raise ValueError(
            f"got {values.data.shape[0]} values for a pattern with "
            f"{pattern.nnz} stored entries")
    if values.data.ndim == 2:
        if x.data.ndim != 3 or x.data.shape[1] != values.data.shape[1]:
            raise ValueError(
                f"multi-head weighted_spmm needs values (nnz, H) and "
                f"x (cols, H, d); got {values.shape} and {x.shape}")
    elif x.data.ndim != 2:
        raise ValueError("weighted_spmm needs a 2-D dense operand")
    heads = values.data.shape[1] if values.data.ndim == 2 else 1
    rows, cols = pattern.shape
    width = x.data.shape[-1]
    indptr, indices, perm = pattern.head_block(heads)
    data = values.data.reshape(-1)
    if perm is not None:
        data = np.take(data, perm, axis=0)
    block = sp.csr_matrix((data, indices, indptr),
                          shape=(rows * heads, cols * heads))
    out_data = (block @ x.data.reshape(cols * heads, width)).reshape(
        (rows,) + x.data.shape[1:])
    out = Tensor(out_data, requires_grad=is_grad_enabled()
                 and (values.requires_grad or x.requires_grad))
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            if values.requires_grad:
                values.accumulate_grad(edge_dots(
                    grad, x.data, pattern.row_of_nnz, pattern.indices))
            if x.requires_grad:
                gx = block.T @ grad.reshape(rows * heads, width)
                x.accumulate_grad(gx.reshape(x.data.shape))
        out._rig((values, x), backward)
    return out


__all__ = [
    "SparseTensor",
    "as_sparse_tensor",
    "spmm",
    "weighted_spmm",
]
