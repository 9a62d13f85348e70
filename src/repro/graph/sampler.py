"""Sampled subgraph views — the mini-batch execution path.

Every layer of the reproduction originally assumed one full-graph forward
over an ``(N, hidden)`` tensor.  This module introduces the two pieces
that lift that assumption:

* :class:`GraphView` — an induced subgraph over a subset of global node
  ids, with local↔global id remapping, typed edge arrays, and the same
  cached-operator surface :class:`~repro.graph.HeteroGraph` exposes
  (``normalized_adjacency``, ``adjacency_sparse``,
  ``edge_arrays_with_self_loops``).  Models and feature builders that
  accept a view run unchanged math over ``(V, hidden)`` tensors, where
  ``V`` is the view size — never ``(N, hidden)``.
* :class:`NeighborSampler` — relation-aware fan-out sampling (GraphSAGE
  style): starting from a batch of seed nodes it draws up to ``fanout``
  in-neighbors per node *per relation* for ``num_layers`` hops, so the
  view size is bounded by ``B · (1 + Σ_l (R · fanout)^l)`` regardless of
  ``N``.  ``fanout=None`` keeps every in-neighbor: the view is then the
  seeds' exact ``num_layers``-hop receptive field (serving-time
  onboarding runs its forward on it).  The per-relation
  destination-indexed CSR lists it samples from live in the graph's
  existing LRU adjacency cache and survive unrelated
  :meth:`~repro.graph.HeteroGraph.append_node` mutations.

A view built by the sampler contains the *sampled* edges only (bounded
memory); :meth:`GraphView.induced` instead keeps every edge between the
chosen nodes — the exact-subgraph variant used when a caller wants a
view over a node set it picked itself.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..tensor.dtype import get_default_dtype
from ..tensor.sparse import SparseTensor
from .hetero import HeteroGraph, Relation

FanoutSpec = Union[int, Mapping[Relation, int]]


def _dst_indexed_csr(graph: HeteroGraph,
                     relation: Relation) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, src_local)`` indexed by destination-local id, LRU-cached.

    This is the structure fan-out sampling draws from: for a destination
    node ``v`` of the relation, ``src_local[indptr[v]:indptr[v+1]]`` are
    its in-neighbors on the source side.  Cached under a relation-scoped
    key so :meth:`HeteroGraph.append_node` on an unrelated type keeps it.
    """
    def build() -> Tuple[np.ndarray, np.ndarray]:
        src_type, _, dst_type = relation
        pairs = graph.edges_local(relation)
        n_dst = graph.num_nodes_of(dst_type)
        order = np.argsort(pairs[1], kind="stable")
        counts = np.bincount(pairs[1], minlength=n_dst)
        indptr = np.zeros(n_dst + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, pairs[0][order]

    return graph._norm_cache.get(("sample_csr", relation), build)


class GraphView:
    """An induced or sampled subgraph over a subset of global node ids.

    ``node_ids`` are global ids of the parent graph, **seeds first** (the
    first ``len(seed_ids)`` view-local positions are the seed nodes, in
    seed order).  ``edges`` holds view-local ``(2, E)`` arrays per
    relation.  Operators derived from the view (normalized sub-adjacency,
    attention patterns, self-loop edge arrays) are memoized on the view —
    it is immutable once built — so the handful of forwards sharing one
    batch never rebuild them.
    """

    def __init__(self, graph: HeteroGraph, node_ids: np.ndarray,
                 seed_ids: np.ndarray,
                 edges: Mapping[Relation, np.ndarray]) -> None:
        self.graph = graph
        self.node_ids = np.asarray(node_ids, dtype=np.int64)
        self.seed_ids = np.asarray(seed_ids, dtype=np.int64)
        self.num_nodes = int(self.node_ids.shape[0])
        if self.seed_ids.shape[0] > self.num_nodes:
            raise ValueError("more seeds than view nodes")
        if not np.array_equal(self.node_ids[:self.seed_ids.shape[0]],
                              self.seed_ids):
            raise ValueError("view node ids must start with the seeds")
        self.relations: List[Relation] = list(edges.keys())
        self._edges: Dict[Relation, np.ndarray] = {
            rel: np.asarray(pairs, dtype=np.int64)
            for rel, pairs in edges.items()
        }
        # view-local position of every global id in the view
        self._local: Dict[int, int] = {
            int(gid): pos for pos, gid in enumerate(self.node_ids)
        }
        self._cache: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def induced(cls, graph: HeteroGraph, node_ids: np.ndarray,
                seed_ids: Optional[np.ndarray] = None) -> "GraphView":
        """Exact induced subgraph: every relation edge between the nodes.

        Extraction is pure CSR slicing of the parent's cached per-relation
        structures — no Python loop over edges.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if seed_ids is None:
            seed_ids = node_ids
        else:
            seed_ids = np.asarray(seed_ids, dtype=np.int64)
            rest = node_ids[~np.isin(node_ids, seed_ids)]
            node_ids = np.concatenate([seed_ids, rest])
        in_view = np.zeros(graph.num_nodes, dtype=bool)
        in_view[node_ids] = True
        local_of = np.full(graph.num_nodes, -1, dtype=np.int64)
        local_of[node_ids] = np.arange(node_ids.shape[0], dtype=np.int64)
        edges: Dict[Relation, np.ndarray] = {}
        for relation in graph.relations:
            pairs = graph.edges_global(relation)
            keep = in_view[pairs[0]] & in_view[pairs[1]]
            if not keep.any():
                continue
            edges[relation] = np.stack([local_of[pairs[0][keep]],
                                        local_of[pairs[1][keep]]])
        return cls(graph, node_ids, seed_ids, edges)

    # ------------------------------------------------------------------
    # Id bookkeeping
    # ------------------------------------------------------------------
    @property
    def seed_local(self) -> np.ndarray:
        """View-local positions of the seeds (always ``0..B-1``)."""
        return np.arange(self.seed_ids.shape[0], dtype=np.int64)

    def local_of(self, global_ids: np.ndarray) -> np.ndarray:
        """Map parent-global ids to view-local positions (KeyError if absent)."""
        return np.array([self._local[int(g)] for g in np.atleast_1d(global_ids)],
                        dtype=np.int64)

    def type_members(self, node_type: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(view_local, parent_local)`` ids of the view's ``node_type`` nodes."""
        key = ("type_members", node_type)
        if key not in self._cache:
            info = self.graph.info(node_type)
            mask = (self.node_ids >= info.offset) & (self.node_ids < info.stop)
            view_local = np.flatnonzero(mask).astype(np.int64)
            parent_local = self.node_ids[mask] - info.offset
            self._cache[key] = (view_local, parent_local)
        return self._cache[key]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Edge access (mirrors HeteroGraph, in view-local ids)
    # ------------------------------------------------------------------
    def edges_local(self, relation: Relation) -> np.ndarray:
        return self._edges[relation]

    def num_edges(self, relation: Optional[Relation] = None) -> int:
        if relation is not None:
            return self._edges[relation].shape[1]
        return sum(pairs.shape[1] for pairs in self._edges.values())

    def all_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(src, dst, etype)`` arrays in view-local ids.

        Edge-type ids follow the *parent's* relation order so edge-type
        embeddings learned full-graph transfer to the view unchanged.
        """
        key = "all_edges"
        if key not in self._cache:
            type_of = {rel: i for i, rel in enumerate(self.graph.relations)}
            srcs, dsts, types = [], [], []
            for relation in self.relations:
                pairs = self._edges[relation]
                srcs.append(pairs[0])
                dsts.append(pairs[1])
                types.append(np.full(pairs.shape[1], type_of[relation],
                                     dtype=np.int64))
            src = np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64)
            dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64)
            etype = (np.concatenate(types) if types
                     else np.empty(0, dtype=np.int64))
            self._cache[key] = (src, dst, etype)
        return self._cache[key]  # type: ignore[return-value]

    @property
    def num_relations(self) -> int:
        """Parent relation count (edge-type id space is shared)."""
        return self.graph.num_relations

    def edge_arrays_with_self_loops(
            self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Typed edges plus the self-loop pseudo-relation, cached on the view.

        The self-loop relation keeps the id ``graph.num_relations`` it has
        full-graph, so SimpleHGN's edge-type table indexes identically on
        both paths.
        """
        key = "edges_with_self_loops"
        if key not in self._cache:
            src, dst, etype = self.all_edges()
            loops = np.arange(self.num_nodes, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
            etype = np.concatenate([
                etype, np.full(self.num_nodes, self.graph.num_relations,
                               dtype=np.int64)])
            self._cache[key] = (src, dst, etype, self.graph.num_relations + 1)
        return self._cache[key]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Cached operators (mirrors HeteroGraph's propagation surface)
    # ------------------------------------------------------------------
    def adjacency_sparse(self, symmetric: bool = True) -> SparseTensor:
        """Binarized adjacency of the view's *own* edges (CSR).

        Built from the edges the view actually holds (sampled edges for a
        sampler-built view) — the in-sample estimator the stochastic
        modularity objective wants.  For message passing use
        :meth:`normalized_adjacency`, which extracts full-graph
        coefficients instead.
        """
        key = ("adjacency_sparse", symmetric, get_default_dtype().name)
        if key not in self._cache:
            src, dst, _ = self.all_edges()
            if symmetric:
                rows = np.concatenate([src, dst])
                cols = np.concatenate([dst, src])
            else:
                rows, cols = src, dst
            keep = rows != cols
            rows, cols = rows[keep], cols[keep]
            # binarize duplicates (parallel relation edges / symmetrization)
            keys = rows * np.int64(self.num_nodes) + cols
            _, unique = np.unique(keys, return_index=True)
            self._cache[key] = SparseTensor.from_edges(
                rows[unique], cols[unique],
                shape=(self.num_nodes, self.num_nodes))
        return self._cache[key]  # type: ignore[return-value]

    def normalized_adjacency(self, mode: str = "sym",
                             self_loops: bool = False,
                             symmetric: bool = True) -> SparseTensor:
        """Normalized sub-operator (CSR), extracted — not re-normalized.

        The view's propagation operator is the row/column restriction of
        the parent's LRU-cached normalized adjacency, so every
        coefficient keeps its *full-graph* degree normalization.
        Re-normalizing the sub-adjacency instead would inflate boundary
        nodes (their view degree undercounts their true degree) and the
        sampled path would no longer converge to the full-graph forward
        as fan-out grows — with a fan-out at or above the maximum degree
        this extraction makes the two paths agree exactly.  Memoized on
        the (immutable) view.
        """
        key = ("normalized", mode, self_loops, symmetric,
               get_default_dtype().name)
        if key not in self._cache:
            full = self.graph.normalized_adjacency(
                mode=mode, self_loops=self_loops, symmetric=symmetric)
            sub = full.to_scipy()[self.node_ids][:, self.node_ids]
            self._cache[key] = SparseTensor.from_scipy(sub.tocsr())
        return self._cache[key]  # type: ignore[return-value]

    def cached(self, key, builder):
        """Memoize an arbitrary per-view derived object (e.g. an attention
        pattern); the view is immutable so entries never go stale."""
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def __repr__(self) -> str:
        return (f"GraphView(nodes={self.num_nodes}, seeds="
                f"{self.seed_ids.shape[0]}, edges={self.num_edges()}, "
                f"of {self.graph!r})")


class NeighborSampler:
    """Relation-aware fan-out neighbor sampling over a :class:`HeteroGraph`.

    Parameters
    ----------
    graph:
        The parent graph.  Per-relation sampling structures are cached in
        the graph's LRU adjacency cache and invalidated selectively on
        mutation.
    fanout:
        Neighbors to draw per node *per relation* at each hop — an int
        (shared by every relation) or a ``{relation: int}`` mapping
        (missing relations fall back to ``default_fanout``).  A fanout of
        0 skips a relation entirely; ``None`` keeps every in-neighbor
        (no cap, no randomness: the exact receptive field).
    num_layers:
        Hops to expand (use the model's layer count).
    rng / seed:
        Randomness for subsampling; a fresh default generator otherwise.
    """

    def __init__(self, graph: HeteroGraph, fanout: Optional[FanoutSpec] = 10,
                 num_layers: int = 2,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None) -> None:
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.graph = graph
        self.num_layers = int(num_layers)
        if fanout is None:
            self._fanout = {}
            self._default_fanout = None
        elif isinstance(fanout, Mapping):
            self._fanout = {tuple(rel): int(k) for rel, k in fanout.items()}
            self._default_fanout = 0
        else:
            if int(fanout) < 1:
                raise ValueError("fanout must be >= 1")
            self._fanout = {}
            self._default_fanout = int(fanout)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def fanout_of(self, relation: Relation) -> Optional[int]:
        """Per-relation cap (None: every in-neighbor)."""
        return self._fanout.get(tuple(relation), self._default_fanout)

    def max_view_nodes(self, batch_size: int) -> int:
        """Worst-case view size for a ``batch_size`` seed batch.

        ``B · (1 + Σ_{l=1..L} (Σ_rel fanout_rel)^l)`` — the bound the
        scale benchmark asserts peak activations against.  Without a cap
        only the graph size bounds the view.
        """
        if self._default_fanout is None:
            return self.graph.num_nodes
        per_hop = sum(self.fanout_of(rel) for rel in self.graph.relations) \
            if self._fanout else self._default_fanout * len(self.graph.relations)
        total = batch_size
        frontier = batch_size
        for _ in range(self.num_layers):
            frontier = frontier * max(per_hop, 1)
            total += frontier
        return total

    # ------------------------------------------------------------------
    def _sample_relation(self, relation: Relation, dst_local: np.ndarray,
                         fanout: Optional[int]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Up to ``fanout`` source neighbors per destination node.

        Returns ``(src_local, dst_local)`` edge endpoints in parent-local
        ids.  Nodes with at most ``fanout`` in-neighbors keep *all* of
        them (no replacement, no padding), so a large-enough fanout — or
        ``None`` — makes sampling exact.  Fully vectorized: over-fanout
        nodes are subsampled without replacement by ranking a random key per
        candidate edge inside each node's span and keeping the ``fanout``
        smallest — no per-node Python loop on the hot path.
        """
        indptr, src_of = _dst_indexed_csr(self.graph, relation)
        begins = indptr[dst_local]
        spans = indptr[dst_local + 1] - begins
        srcs: List[np.ndarray] = []
        dsts: List[np.ndarray] = []
        full = (np.ones(spans.shape, dtype=bool) if fanout is None
                else spans <= fanout)
        if full.any():
            # take every neighbor of low-degree nodes in one gather
            take = spans[full]
            flat = np.repeat(begins[full], take)
            step = np.arange(take.sum(), dtype=np.int64) - np.repeat(
                np.cumsum(take) - take, take)
            srcs.append(src_of[flat + step])
            dsts.append(np.repeat(dst_local[full], take))
        over = np.flatnonzero(~full)
        if over.size:
            spans_o = spans[over]
            total = int(spans_o.sum())
            starts = np.cumsum(spans_o) - spans_o
            offsets = np.arange(total, dtype=np.int64) - np.repeat(starts,
                                                                   spans_o)
            flat = np.repeat(begins[over], spans_o) + offsets
            segment = np.repeat(np.arange(over.size, dtype=np.int64),
                                spans_o)
            order = np.lexsort((self.rng.random(total), segment))
            keep = offsets < fanout  # rank within segment after the sort
            picked = order[keep]
            srcs.append(src_of[flat[picked]])
            dsts.append(dst_local[over][segment[picked]])
        if not srcs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(srcs), np.concatenate(dsts)

    def sample(self, seed_global_ids: np.ndarray) -> GraphView:
        """Expand a seed batch into a bounded :class:`GraphView`.

        Per hop, every node already in the view pulls up to ``fanout``
        in-neighbors along every relation whose destination type matches
        its own; sampled edges from all hops are unioned, so one sub-
        adjacency serves every model layer (subgraph-style sampling — the
        propagation operator is the same at each layer, exactly like the
        full-graph path).
        """
        graph = self.graph
        seeds = np.asarray(seed_global_ids, dtype=np.int64).ravel()
        if seeds.size == 0:
            raise ValueError("cannot sample around an empty seed batch")
        if np.unique(seeds).shape[0] != seeds.shape[0]:
            raise ValueError("seed ids must be unique within a batch")
        if seeds.min() < 0 or seeds.max() >= graph.num_nodes:
            raise ValueError("seed ids out of range")
        type_index = graph.node_type_index
        in_view = np.zeros(graph.num_nodes, dtype=bool)
        in_view[seeds] = True
        frontier = seeds
        # accumulated edges in *global* ids, per relation
        edge_acc: Dict[Relation, List[np.ndarray]] = {}
        type_id_of = {name: i for i, name in enumerate(graph.node_types)}
        for _ in range(self.num_layers):
            if frontier.size == 0:
                break
            new_nodes: List[np.ndarray] = []
            for relation in graph.relations:
                fanout = self.fanout_of(relation)
                if fanout is not None and fanout <= 0:
                    continue
                src_type, _, dst_type = relation
                members = frontier[type_index[frontier]
                                   == type_id_of[dst_type]]
                if members.size == 0:
                    continue
                dst_local = members - graph.offset_of(dst_type)
                src_local, dst_sampled = self._sample_relation(
                    relation, dst_local, fanout)
                if src_local.size == 0:
                    continue
                src_global = src_local + graph.offset_of(src_type)
                dst_global = dst_sampled + graph.offset_of(dst_type)
                edge_acc.setdefault(relation, []).append(
                    np.stack([src_global, dst_global]))
                fresh = src_global[~in_view[src_global]]
                if fresh.size:
                    fresh = np.unique(fresh)
                    in_view[fresh] = True
                    new_nodes.append(fresh)
            frontier = (np.concatenate(new_nodes) if new_nodes
                        else np.empty(0, dtype=np.int64))
        others = np.flatnonzero(in_view)
        others = others[~np.isin(others, seeds)]
        node_ids = np.concatenate([seeds, others])
        local_of = np.full(graph.num_nodes, -1, dtype=np.int64)
        local_of[node_ids] = np.arange(node_ids.shape[0], dtype=np.int64)
        # every node is expanded once, so no edge is drawn twice (parallel
        # edges of the parent stay parallel); parent relation order keeps
        # each destination's in-edges in the full graph's summation order
        edges: Dict[Relation, np.ndarray] = {}
        for relation in graph.relations:
            if relation in edge_acc:
                pairs = np.concatenate(edge_acc[relation], axis=1)
                edges[relation] = np.stack([local_of[pairs[0]],
                                            local_of[pairs[1]]])
        return GraphView(graph, node_ids, seeds, edges)


__all__ = ["GraphView", "NeighborSampler", "FanoutSpec"]
