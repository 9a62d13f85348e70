"""Heterogeneous graph container.

Replaces DGL's ``DGLHeteroGraph`` for this reproduction.  Nodes of every
type are packed into one contiguous global id space (type by type, in the
declared order), which keeps attribute completion, clustering and the
homogeneous views (PPNP, modularity) simple, while typed edge lists retain
the relational structure needed by the heterogeneous models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..tensor.dtype import get_default_dtype
from ..tensor.sparse import SparseTensor
from .adjacency import LRUCache, normalize_adjacency

Relation = Tuple[str, str, str]  # (src_type, edge_name, dst_type)


@dataclass(frozen=True)
class NodeTypeInfo:
    """Bookkeeping for one node type inside the global id space."""

    name: str
    count: int
    offset: int

    @property
    def stop(self) -> int:
        return self.offset + self.count

    def global_ids(self) -> np.ndarray:
        return np.arange(self.offset, self.stop, dtype=np.int64)


class HeteroGraph:
    """A typed multigraph over a contiguous global node id space.

    Parameters
    ----------
    node_counts:
        Ordered mapping ``type name -> number of nodes``.  The order fixes
        the global id layout.
    edges:
        Mapping ``(src_type, edge_name, dst_type) -> (2, E) array`` of
        *local* (per-type) node ids.  Each relation is stored directed;
        use :meth:`add_reverse_relations` for symmetric message passing.
    """

    def __init__(
        self,
        node_counts: Mapping[str, int],
        edges: Mapping[Relation, np.ndarray],
    ) -> None:
        self.node_types: List[str] = list(node_counts.keys())
        self._info: Dict[str, NodeTypeInfo] = {}
        offset = 0
        for name in self.node_types:
            count = int(node_counts[name])
            if count <= 0:
                raise ValueError(f"node type {name!r} must have a positive count")
            self._info[name] = NodeTypeInfo(name=name, count=count, offset=offset)
            offset += count
        self.num_nodes: int = offset

        # caches invalidated on mutation
        self._cache: Dict[str, object] = {}
        # LRU of normalized CSR operators, keyed by (scope, mode, flags);
        # bounded so mode sweeps cannot grow memory without limit
        self._norm_cache = LRUCache(maxsize=32)

        self.relations: List[Relation] = []
        self._edges: Dict[Relation, np.ndarray] = {}
        for relation, pairs in edges.items():
            self.add_relation(relation, pairs)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation, pairs: np.ndarray) -> None:
        src_type, _, dst_type = relation
        if src_type not in self._info or dst_type not in self._info:
            raise KeyError(f"unknown node type in relation {relation!r}")
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[0] != 2:
            raise ValueError(f"edges for {relation!r} must be a (2, E) array")
        if pairs.shape[1] > 0:
            if pairs[0].min() < 0 or pairs[0].max() >= self._info[src_type].count:
                raise ValueError(f"source ids out of range for {relation!r}")
            if pairs[1].min() < 0 or pairs[1].max() >= self._info[dst_type].count:
                raise ValueError(f"destination ids out of range for {relation!r}")
        if relation in self._edges:
            raise KeyError(f"relation {relation!r} already present")
        self.relations.append(relation)
        self._edges[relation] = pairs
        self._cache.clear()
        self._norm_cache.clear()

    def add_reverse_relations(self, suffix: str = "_rev") -> "HeteroGraph":
        """Add a reversed copy of every relation whose reverse is missing.

        Self-relations (same src and dst type) whose edge set is already
        symmetric are left untouched.
        """
        for relation in list(self.relations):
            src_type, name, dst_type = relation
            reverse = (dst_type, name + suffix, src_type)
            if reverse in self._edges or name.endswith(suffix):
                continue
            pairs = self._edges[relation]
            self.add_relation(reverse, np.stack([pairs[1], pairs[0]]))
        return self

    # ------------------------------------------------------------------
    # Type/id bookkeeping
    # ------------------------------------------------------------------
    def info(self, node_type: str) -> NodeTypeInfo:
        return self._info[node_type]

    def num_nodes_of(self, node_type: str) -> int:
        return self._info[node_type].count

    def offset_of(self, node_type: str) -> int:
        return self._info[node_type].offset

    def global_ids(self, node_type: str) -> np.ndarray:
        return self._info[node_type].global_ids()

    def to_global(self, node_type: str, local_ids: np.ndarray) -> np.ndarray:
        return np.asarray(local_ids, dtype=np.int64) + self._info[node_type].offset

    @property
    def node_type_index(self) -> np.ndarray:
        """Per-global-node integer type id, in ``node_types`` order."""
        key = "node_type_index"
        if key not in self._cache:
            out = np.empty(self.num_nodes, dtype=np.int64)
            for type_id, name in enumerate(self.node_types):
                info = self._info[name]
                out[info.offset:info.stop] = type_id
            self._cache[key] = out
        return self._cache[key]  # type: ignore[return-value]

    def type_of(self, global_id: int) -> str:
        return self.node_types[int(self.node_type_index[global_id])]

    # ------------------------------------------------------------------
    # Edge access
    # ------------------------------------------------------------------
    def edges_local(self, relation: Relation) -> np.ndarray:
        return self._edges[relation]

    def edges_global(self, relation: Relation) -> np.ndarray:
        src_type, _, dst_type = relation
        pairs = self._edges[relation]
        return np.stack([
            pairs[0] + self._info[src_type].offset,
            pairs[1] + self._info[dst_type].offset,
        ])

    def num_edges(self, relation: Optional[Relation] = None) -> int:
        if relation is not None:
            return self._edges[relation].shape[1]
        return sum(pairs.shape[1] for pairs in self._edges.values())

    def all_edges_global(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate every relation: ``(src, dst, edge_type_id)`` arrays.

        Edge type ids follow the order of ``self.relations``.
        """
        key = "all_edges_global"
        if key not in self._cache:
            srcs, dsts, types = [], [], []
            for type_id, relation in enumerate(self.relations):
                pairs = self.edges_global(relation)
                srcs.append(pairs[0])
                dsts.append(pairs[1])
                types.append(np.full(pairs.shape[1], type_id, dtype=np.int64))
            src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
            dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
            etype = np.concatenate(types) if types else np.empty(0, dtype=np.int64)
            self._cache[key] = (src, dst, etype)
        return self._cache[key]  # type: ignore[return-value]

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def edge_arrays_with_self_loops(
            self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Global ``(src, dst, etype)`` arrays plus a self-loop pseudo-relation.

        Self loops get their own edge-type id (``num_relations``), the HGB
        convention SimpleHGN relies on.  Built once per graph (cached with
        the other global structures; invalidated on mutation) — the GNN zoo
        constructs several edge-list models per search epoch over the same
        topology, and each used to re-concatenate these arrays.
        """
        key = "edges_with_self_loops"
        if key not in self._cache:
            src, dst, etype = self.all_edges_global()
            loops = np.arange(self.num_nodes, dtype=np.int64)
            self._cache[key] = (
                np.concatenate([src, loops]),
                np.concatenate([dst, loops]),
                np.concatenate([etype,
                                np.full(self.num_nodes, self.num_relations,
                                        dtype=np.int64)]),
                self.num_relations + 1,
            )
        return self._cache[key]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Homogeneous views
    # ------------------------------------------------------------------
    def adjacency(self, symmetric: bool = True) -> sp.csr_matrix:
        """Unweighted global adjacency (binarized, optionally symmetrized)."""
        key = f"adjacency:{symmetric}:{get_default_dtype()}"
        if key not in self._cache:
            src, dst, _ = self.all_edges_global()
            data = np.ones(src.shape[0], dtype=get_default_dtype())
            adj = sp.coo_matrix((data, (src, dst)),
                                shape=(self.num_nodes, self.num_nodes)).tocsr()
            if symmetric:
                adj = adj.maximum(adj.T)
            adj.data[:] = 1.0
            adj.setdiag(0)
            adj.eliminate_zeros()
            self._cache[key] = adj
        return self._cache[key]  # type: ignore[return-value]

    def biadjacency(self, relation: Relation) -> sp.csr_matrix:
        """Per-relation biadjacency of shape ``(n_src_type, n_dst_type)``.

        Memoized in the LRU cache: metapath models chain the same handful
        of blocks every time they are (re)built during a search.  Callers
        must treat the returned matrix as read-only.
        """
        src_type, _, dst_type = relation

        def build() -> sp.csr_matrix:
            pairs = self._edges[relation]
            data = np.ones(pairs.shape[1], dtype=get_default_dtype())
            return sp.coo_matrix(
                (data, (pairs[0], pairs[1])),
                shape=(self._info[src_type].count, self._info[dst_type].count),
            ).tocsr()

        return self._norm_cache.get(
            ("biadjacency", relation, get_default_dtype().name), build)

    # ------------------------------------------------------------------
    # Cached sparse (CSR) views — the propagation fast path
    # ------------------------------------------------------------------
    def adjacency_sparse(self, symmetric: bool = True) -> SparseTensor:
        """Global adjacency as a :class:`~repro.tensor.SparseTensor`."""
        key = ("adjacency_sparse", symmetric, get_default_dtype().name)
        return self._norm_cache.get(
            key, lambda: SparseTensor.from_scipy(self.adjacency(symmetric)))

    def normalized_adjacency(self, mode: str = "sym",
                             self_loops: bool = False,
                             symmetric: bool = True) -> SparseTensor:
        """Cached normalized global adjacency (CSR).

        ``mode`` follows :data:`repro.graph.NORMALIZATION_MODES` (``"none"``,
        ``"row"``, ``"sym"``).  Results are memoized in an LRU cache keyed by
        ``(mode, self_loops, symmetric)`` so the search loop — which builds
        one GNN and several completion operators per epoch over the same
        graph — never re-normalizes.  The cache is invalidated whenever a
        relation is added.
        """
        key = ("global", mode, self_loops, symmetric,
               get_default_dtype().name)
        return self._norm_cache.get(
            key,
            lambda: normalize_adjacency(self.adjacency_sparse(symmetric),
                                        mode=mode, self_loops=self_loops))

    def degrees(self, symmetric: bool = True) -> np.ndarray:
        adj = self.adjacency(symmetric=symmetric)
        return np.asarray(adj.sum(axis=1)).ravel()

    def neighbors(self, global_id: int) -> np.ndarray:
        adj = self.adjacency(symmetric=True)
        start, stop = adj.indptr[global_id], adj.indptr[global_id + 1]
        return adj.indices[start:stop]

    # ------------------------------------------------------------------
    # Online mutation (node onboarding)
    # ------------------------------------------------------------------
    def append_node(self, node_type: str,
                    edges: Mapping[Relation, np.ndarray],
                    auto_reverse: bool = True) -> int:
        """Append one node of ``node_type`` with edges to existing nodes.

        ``edges`` maps existing relations to arrays of *local* neighbor ids
        on the side of the relation opposite to ``node_type`` (for a
        same-type relation the new node is the source).  When
        ``auto_reverse`` is set, every appended edge is mirrored into the
        matching ``<name>_rev`` relation if one exists (the
        :meth:`add_reverse_relations` convention), so symmetric message
        passing sees the new node immediately.

        Returns the new node's local id.  Global ids of nodes in types
        declared after ``node_type`` shift by one; callers holding global
        ids must re-derive them.  Caches are invalidated *selectively*:
        cached per-relation structures that do not involve ``node_type``
        survive.
        """
        if node_type not in self._info:
            raise KeyError(f"unknown node type {node_type!r}")
        new_local = self._info[node_type].count

        # validate everything before mutating any state
        appends: Dict[Relation, np.ndarray] = {}
        for relation, neighbors in edges.items():
            if relation not in self._edges:
                raise KeyError(f"unknown relation {relation!r}")
            src_type, _, dst_type = relation
            if node_type not in (src_type, dst_type):
                raise ValueError(
                    f"relation {relation!r} does not involve {node_type!r}")
            neighbors = np.asarray(neighbors, dtype=np.int64).ravel()
            if neighbors.size == 0:
                continue
            other = dst_type if src_type == node_type else src_type
            if neighbors.min() < 0 or neighbors.max() >= self._info[other].count:
                raise ValueError(
                    f"neighbor ids out of range for {relation!r}")
            new_col = np.full(neighbors.shape[0], new_local, dtype=np.int64)
            if src_type == node_type:
                pairs = np.stack([new_col, neighbors])
            else:
                pairs = np.stack([neighbors, new_col])
            appends[relation] = pairs
        if auto_reverse:
            for relation, pairs in list(appends.items()):
                src_type, name, dst_type = relation
                reverse = (dst_type, name + "_rev", src_type)
                if reverse in self._edges and reverse not in appends:
                    appends[reverse] = np.stack([pairs[1], pairs[0]])

        # grow the type block; offsets of later types shift by one
        self._info[node_type] = NodeTypeInfo(
            name=node_type, count=new_local + 1,
            offset=self._info[node_type].offset)
        shifting = False
        for name in self.node_types:
            if name == node_type:
                shifting = True
                continue
            if shifting:
                info = self._info[name]
                self._info[name] = NodeTypeInfo(
                    name=name, count=info.count, offset=info.offset + 1)
        self.num_nodes += 1

        for relation, pairs in appends.items():
            self._edges[relation] = np.concatenate(
                [self._edges[relation], pairs], axis=1)

        self._invalidate_for_type(node_type)
        return new_local

    def pop_node(self, node_type: str) -> int:
        """Remove the *last* node of ``node_type`` and every incident edge.

        The exact inverse of :meth:`append_node` (used to roll back a
        failed onboarding).  Returns the removed node's local id.
        """
        info = self._info[node_type]
        if info.count <= 1:
            raise ValueError(f"cannot remove the last node of {node_type!r}")
        last = info.count - 1
        for relation in self.relations:
            src_type, _, dst_type = relation
            pairs = self._edges[relation]
            if src_type == node_type and dst_type == node_type:
                keep = (pairs[0] != last) & (pairs[1] != last)
            elif src_type == node_type:
                keep = pairs[0] != last
            elif dst_type == node_type:
                keep = pairs[1] != last
            else:
                continue
            if not keep.all():
                self._edges[relation] = pairs[:, keep]
        self._info[node_type] = NodeTypeInfo(name=node_type, count=last,
                                             offset=info.offset)
        shifting = False
        for name in self.node_types:
            if name == node_type:
                shifting = True
                continue
            if shifting:
                other = self._info[name]
                self._info[name] = NodeTypeInfo(
                    name=name, count=other.count, offset=other.offset - 1)
        self.num_nodes -= 1
        self._invalidate_for_type(node_type)
        return last

    def _invalidate_for_type(self, node_type: str) -> None:
        """Drop caches a ``node_type`` mutation stales, keeping the rest.

        Global structures (id space shifted) always go; biadjacencies and
        the sampler's per-relation CSR lists survive unless their
        relation involves ``node_type``.
        """
        self._cache.clear()

        def stale(key: object) -> bool:
            if not isinstance(key, tuple) or not key:
                return True
            scope = key[0]
            if scope in ("biadjacency", "sample_csr"):
                relation = key[1]
                return node_type in (relation[0], relation[2])
            return True  # global-scope operators ("adjacency_sparse", ...)

        self._norm_cache.invalidate(stale)

    def copy(self) -> "HeteroGraph":
        """Deep copy (fresh caches); mutation of one copy leaves the other intact."""
        counts = {name: self._info[name].count for name in self.node_types}
        edges = {rel: self._edges[rel].copy() for rel in self.relations}
        return HeteroGraph(counts, edges)

    # ------------------------------------------------------------------
    def subgraph_without_edges(self, relation: Relation,
                               drop_mask: np.ndarray) -> "HeteroGraph":
        """Copy of the graph with ``drop_mask`` edges of ``relation`` removed.

        Used by the link-prediction protocol, which masks a fraction of the
        target relation's edges for evaluation.  The dropped pairs are also
        removed from the matching reverse relation (if present), so masked
        edges cannot leak back through symmetrization.
        """
        drop_mask = np.asarray(drop_mask, dtype=bool)
        if drop_mask.shape[0] != self.num_edges(relation):
            raise ValueError("drop mask length must equal the relation's edge count")
        src_type, name, dst_type = relation
        reverse = (dst_type, name + "_rev", src_type)
        dropped_pairs = self._edges[relation][:, drop_mask]
        dropped_keys = set(zip(dropped_pairs[0].tolist(),
                               dropped_pairs[1].tolist()))
        edges = {}
        for rel in self.relations:
            pairs = self._edges[rel]
            if rel == relation:
                pairs = pairs[:, ~drop_mask]
            elif rel == reverse and dropped_keys:
                keep = np.array([
                    (dst, src) not in dropped_keys
                    for src, dst in pairs.T.tolist()
                ], dtype=bool)
                pairs = pairs[:, keep]
            edges[rel] = pairs.copy()
        counts = {name: self._info[name].count for name in self.node_types}
        return HeteroGraph(counts, edges)

    def __repr__(self) -> str:
        type_desc = ", ".join(f"{t}:{self._info[t].count}" for t in self.node_types)
        return (f"HeteroGraph(nodes=[{type_desc}], "
                f"relations={len(self.relations)}, edges={self.num_edges()})")


__all__ = ["HeteroGraph", "NodeTypeInfo", "Relation"]
