"""Adjacency normalizations used by the completion operations and GNNs.

The three topology-dependent completion operations of the paper map onto:

* ``mean``  — row-normalized adjacency restricted to attributed neighbors,
* ``gcn``   — symmetric re-normalized adjacency (Kipf & Welling),
* ``ppnp``  — personalized-PageRank diffusion (Klicpera et al.), either the
  exact closed form ``alpha (I - (1-alpha) Â)^{-1}`` or the APPNP power
  iteration that approximates it without a dense inverse.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..tensor.sparse import SparseTensor, as_sparse_tensor

#: normalization modes understood by :func:`normalize_adjacency` and the
#: graph-level caches: ``"none"`` (raw binary adjacency), ``"row"``
#: (``D^{-1} A``, mean aggregation) and ``"sym"``
#: (``D^{-1/2} A D^{-1/2}``, GCN renormalization).
NORMALIZATION_MODES = ("none", "row", "sym")


class LRUCache:
    """A tiny LRU cache for normalized adjacency blocks.

    The bi-level search loop asks for the same handful of normalized
    operators (one per completion op × normalization mode) thousands of
    times; caching them makes re-normalization a dictionary lookup while
    the ``maxsize`` bound keeps memory flat even when many modes/blocks
    are probed (e.g. a sweep over per-relation metapath blocks).
    """

    def __init__(self, maxsize: int = 32) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building it on a miss."""
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return self._store[key]
        self.misses += 1
        value = builder()
        self._store[key] = value
        if len(self._store) > self.maxsize:
            self._store.popitem(last=False)
        return value

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the number of entries dropped.  Used for *targeted*
        invalidation: when a graph mutation only touches some node types,
        cached operators over unaffected types survive.
        """
        stale = [key for key in self._store if predicate(key)]
        for key in stale:
            del self._store[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def clear(self) -> None:
        self._store.clear()


def normalize_adjacency(adj: Union[SparseTensor, sp.spmatrix],
                        mode: str = "sym",
                        self_loops: bool = False) -> SparseTensor:
    """Normalize an adjacency into a CSR :class:`SparseTensor`.

    ``mode`` is one of :data:`NORMALIZATION_MODES`; ``self_loops`` sets the
    diagonal to one *before* normalizing (square matrices only).
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; "
                         f"expected one of {NORMALIZATION_MODES}")
    matrix = as_sparse_tensor(adj)
    if self_loops:
        matrix = matrix.add_self_loops()
    if mode == "row":
        return matrix.row_normalize()
    if mode == "sym":
        return matrix.sym_normalize()
    return matrix


def add_self_loops(adj: sp.spmatrix) -> sp.csr_matrix:
    adj = adj.tocsr().copy()
    adj.setdiag(1.0)
    return adj.tocsr()


def sym_normalized_adjacency(adj: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """``D^{-1/2} (A [+ I]) D^{-1/2}`` with zero-degree rows left at zero."""
    adj = add_self_loops(adj) if self_loops else adj.tocsr()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    d_mat = sp.diags(inv_sqrt)
    return (d_mat @ adj @ d_mat).tocsr()


def row_normalized_adjacency(adj: sp.spmatrix, self_loops: bool = False) -> sp.csr_matrix:
    """``D^{-1} A`` — the mean-aggregation operator."""
    adj = add_self_loops(adj) if self_loops else adj.tocsr()
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degree)
    nonzero = degree > 0
    inv[nonzero] = 1.0 / degree[nonzero]
    return (sp.diags(inv) @ adj).tocsr()


def ppnp_exact(adj: sp.spmatrix, alpha: float = 0.1) -> np.ndarray:
    """Dense closed-form PPNP operator ``alpha (I - (1-alpha) Â)^{-1}``.

    Only sensible for the small synthetic graphs used here; prefer
    :func:`appnp_propagate` on anything large.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"restart probability must be in (0, 1], got {alpha}")
    n = adj.shape[0]
    a_hat = sym_normalized_adjacency(adj, self_loops=True).toarray()
    return alpha * np.linalg.inv(np.eye(n) - (1.0 - alpha) * a_hat)


def appnp_propagate(adj: sp.spmatrix, features: np.ndarray, alpha: float = 0.1,
                    iterations: int = 10,
                    a_hat: Optional[Union[SparseTensor, sp.csr_matrix,
                                          np.ndarray]] = None,
                    ) -> np.ndarray:
    """APPNP power iteration ``Z ← (1-alpha) Â Z + alpha X`` (data-level).

    Converges geometrically to the exact PPNP diffusion of ``features``.
    ``a_hat`` may be a precomputed (and cached) normalized operator — a
    scipy CSR matrix, a :class:`~repro.tensor.SparseTensor` or a dense
    array — in which case ``adj`` is ignored.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"restart probability must be in (0, 1], got {alpha}")
    if a_hat is None:
        a_hat = sym_normalized_adjacency(adj, self_loops=True)
    z = features.copy()
    for _ in range(iterations):
        z = (1.0 - alpha) * (a_hat @ z) + alpha * features
    return z


__all__ = [
    "LRUCache",
    "NORMALIZATION_MODES",
    "normalize_adjacency",
    "add_self_loops",
    "sym_normalized_adjacency",
    "row_normalized_adjacency",
    "ppnp_exact",
    "appnp_propagate",
]
