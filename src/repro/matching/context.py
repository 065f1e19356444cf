"""Host match-contexts and pattern match-plans (the ``PMatch`` tier).

Matching splits its precomputation into two reusable halves:

* :class:`MatchContext` — per-*host* state: node-type and degree
  arrays, adjacency rows as Python int bitsets (out/in rows for
  directed hosts), per-edge-type row tables for typed candidate
  expansion, and neighborhood type-signature count arrays. Built once
  per host and shared by every pattern matched against it.
* :class:`MatchPlan` — per-*pattern* state: the matching order, and for
  each position the edge/non-edge constraints against previously
  mapped positions plus the degree and neighborhood type-signature
  requirements used for pruning. Built once per canonical pattern and
  shared across a whole host database (database-batched ``PMatch``).

Context construction runs on the columnar CSR layout
(``repro.graphs.columnar``, docs/columnar.md): type and degree arrays
are zero-copy slices of the group arrays, int rows are converted from
the group's shared packed-row table (or one ``bitwise_or.at`` scatter
over the slice), and signature counts are a masked ``bincount`` —
single vectorized passes instead of per-host Python packing loops.
Hosts that never joined a database go through the same code path via
an on-the-fly single-graph slice, so the per-edge Python loops only
remain as the fallback for stale slices and for cross-directedness
signature keys.

Hosts above :data:`MatchContext.LAZY_ROW_THRESHOLD` nodes fill their
int rows on first touch (only nodes actually mapped during search pay
for a row), so contexts stay usable on SYNTHETIC-scale hosts where a
dense row table would not fit.

Both halves only *prune* subtrees that can never produce a match, so
the matcher emits exactly the enumeration sequence of the reference
search in ``tests/oracles.py`` — the oracle contract
``docs/matching.md`` documents and ``tests/test_matching_parity.py``
enforces.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MatchingError
from repro.graphs.columnar import (
    KIND_ALL,
    KIND_IN,
    KIND_OUT,
    GraphSlice,
    columnar_slice_of,
)
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern

#: a neighborhood-signature key: ``(direction, edge_type, neighbor
#: type)`` with direction "" for undirected, "o"/"i" for directed
SigKey = Tuple[str, int, int]


def graph_content_key(graph: Graph) -> str:
    """Stable content digest of a host graph.

    Two graphs share a key iff they have identical node types, directed
    flag, and typed edge sets under the identity node mapping — exactly
    when every matcher result against them is interchangeable (features
    are excluded; matching never reads them). Used to key the
    process-wide match-plan cache (``plan_cache.py``), where object
    identity is not safe (ids are recycled) and host graphs may be
    rebuilt per request. Memoized on the graph, invalidated on
    mutation.
    """
    return graph.content_key()


def matching_order(p: Graph) -> List[int]:
    """Visit order where each node (after the first) touches a prior one.

    Root at the highest-degree node, then maximize mapped-degree ties
    broken by total degree. The reference search in ``tests/oracles.py``
    shares it, so both candidate trees are identical.
    """
    if p.n_nodes == 0:
        return []
    root = max(p.nodes(), key=lambda v: (p.degree(v), -v))
    order = [root]
    seen = {root}
    frontier: List[int] = sorted(p.all_neighbors(root))
    while frontier:
        nxt = None
        best = (-1, 0)
        for v in frontier:
            mapped_deg = sum(1 for w in p.all_neighbors(v) if w in seen)
            key = (mapped_deg, p.degree(v))
            if key > best:
                best = key
                nxt = v
        assert nxt is not None
        order.append(nxt)
        seen.add(nxt)
        frontier = sorted(
            {w for v in seen for w in p.all_neighbors(v) if w not in seen}
        )
    if len(order) != p.n_nodes:
        raise MatchingError("pattern is disconnected")  # guarded by Pattern
    return order


class _LazyRows(dict):
    """Int rows filled on first touch (hosts above the eager threshold).

    ``fill(v)`` yields the row's member nodes; only nodes the search
    actually maps pay for a row.
    """

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable[[int], Iterable[int]]) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, v: int) -> int:
        row = 0
        for w in self._fill(v):
            row |= 1 << w
        self[v] = row
        return row


class MatchContext:
    """Precomputed matching state for one host graph.

    Everything a VF2 run needs that depends only on the host: adjacency
    rows as Python int bitsets (``all``/``out``/``in`` flavors plus
    per-edge-type tables), degree arrays, and the neighborhood
    type-signature count arrays the pruning rules consume. Row tables
    index by node (``rows(kind)[v]``) whether they are eager lists or
    lazily filled dicts, so the search has one code path at every host
    width.
    """

    #: hosts with more nodes than this build adjacency rows lazily
    LAZY_ROW_THRESHOLD = 4096

    __slots__ = (
        "graph",
        "n",
        "directed",
        "node_types",
        "degrees",
        "search_states",
        "_eager",
        "_slice",
        "_row_ids",
        "_rows",
        "_sig_counts",
        "_type_counts",
    )

    def __init__(
        self, graph: Graph, columnar: Optional[GraphSlice] = None
    ) -> None:
        self.graph = graph
        n = graph.n_nodes
        self.n = n
        self.directed = graph.directed
        #: per-pattern-content search state (candidate masks + row
        #: ops), memoized by the matcher
        self.search_states: Dict[str, object] = {}
        self._sig_counts: Dict[SigKey, np.ndarray] = {}
        self._type_counts: Optional[Dict[int, int]] = None
        self._row_ids: Dict[str, np.ndarray] = {}
        self._rows: Dict[object, Sequence[int]] = {}
        self._eager = n <= self.LAZY_ROW_THRESHOLD
        if columnar is not None and columnar.content_key != graph.content_key():
            columnar = None  # stale slice: the graph mutated since the build
        if columnar is None and self._eager:
            columnar = columnar_slice_of(graph)
        self._slice = columnar
        if columnar is not None:
            # zero-copy views of the columnar group arrays
            self.node_types = columnar.node_type
            self.degrees = columnar.degrees()
        else:
            self.node_types = np.asarray(graph.node_types, dtype=np.int64)
            self.degrees = np.fromiter(
                (graph.degree(v) for v in range(n)), dtype=np.int64, count=n
            )

    # ------------------------------------------------------------------
    # adjacency rows
    # ------------------------------------------------------------------
    def _slice_row_ids(self, kind: str) -> np.ndarray:
        """Memoized per-entry source-node ids of one CSR flavor."""
        rid = self._row_ids.get(kind)
        if rid is None:
            assert self._slice is not None
            rid = self._slice.row_ids(kind)
            self._row_ids[kind] = rid
        return rid

    def _slice_rows(self, kind: str, etype: Optional[int] = None) -> List[int]:
        """Int rows of one CSR flavor, optionally one edge type only.

        Untyped rows reuse the columnar group's shared packed-row table
        when it exists; otherwise one ``bitwise_or.at`` scatter over
        the slice arrays. The packed words are converted to ints and
        dropped — the context keeps no numpy row table.
        """
        sl = self._slice
        assert sl is not None
        words = max((self.n + 63) >> 6, 1)
        table = sl.rows(kind) if etype is None else None
        if table is None or table.shape[1] != words:
            src, dst = self._slice_row_ids(kind), sl.indices(kind)
            if etype is not None:
                sel = sl.etypes(kind) == etype
                src, dst = src[sel], dst[sel]
            table = np.zeros((self.n, words), dtype=np.uint64)
            np.bitwise_or.at(
                table,
                (src, dst >> np.int64(6)),
                np.uint64(1) << (dst & np.int64(63)).astype(np.uint64),
            )
        if words == 1:
            return table[:, 0].tolist()
        raw = table.astype("<u8", copy=False).tobytes()
        step = 8 * words
        return [
            int.from_bytes(raw[i : i + step], "little")
            for i in range(0, len(raw), step)
        ]

    def rows(self, kind: str) -> Sequence[int]:
        """Adjacency rows as int bitsets, memoized per flavor.

        ``rows("all")[v]`` holds ``v``'s neighbors ignoring direction;
        ``rows("out")[v]`` is ``{w : v -> w}`` and ``rows("in")[v]``
        is ``{w : w -> v}`` (directed hosts only).
        """
        table = self._rows.get(kind)
        if table is None:
            if self._eager:
                table = self._slice_rows(kind)
            else:
                g = self.graph
                table = _LazyRows(
                    {
                        KIND_ALL: g.all_neighbors,
                        KIND_OUT: g.neighbors,
                        KIND_IN: g.in_neighbors,
                    }[kind]
                )
            self._rows[kind] = table
        return table

    def typed_rows(self, direction: str, etype: int) -> Sequence[int]:
        """Int rows restricted to edges of one type, memoized.

        Row ``v`` holds the neighbors of ``v`` (``direction`` "" for
        undirected hosts, "o"/"i" for out-/in-neighbors on directed
        ones) joined by an edge of type ``etype`` — ANDing a candidate
        mask with one such row applies the edge-existence *and*
        edge-type constraint to the whole candidate frontier at once.
        """
        key = (direction, etype)
        table = self._rows.get(key)
        if table is None:
            if self._eager:
                kind = self._typed_kind(direction)
                assert kind is not None, (direction, self.directed)
                table = self._slice_rows(kind, etype)
            else:
                g = self.graph
                if direction == "i":
                    def fill(v: int) -> Iterable[int]:
                        return (
                            w for w in g.in_neighbors(v)
                            if g.edge_type(w, v) == etype
                        )
                else:
                    def fill(v: int) -> Iterable[int]:
                        return (
                            w for w in g.neighbors(v)
                            if g.edge_type(v, w) == etype
                        )
                table = _LazyRows(fill)
            self._rows[key] = table
        return table

    # ------------------------------------------------------------------
    # pruning tables
    # ------------------------------------------------------------------
    def type_counts(self) -> Dict[int, int]:
        """Host node count per node type (cheap match prefilter)."""
        if self._type_counts is None:
            types, counts = np.unique(self.node_types, return_counts=True)
            self._type_counts = {
                int(t): int(c) for t, c in zip(types, counts)
            }
        return self._type_counts

    def sig_counts(self, key: SigKey) -> np.ndarray:
        """Per-node count of neighbors matching one signature key.

        ``key = (direction, edge_type, neighbor_type)``; a host node is
        a viable image for a pattern node only when, for every key of
        the pattern node's neighborhood signature, the host count is at
        least the pattern count (injective neighbor mapping).
        """
        counts = self._sig_counts.get(key)
        if counts is None:
            direction, etype, ntype = key
            kind = self._typed_kind(direction)
            if self._slice is not None and kind is not None:
                # a view of the group-level table: one masked bincount
                # covers every graph in the label group at once
                counts = self._slice.sig_counts(kind, etype, ntype)
                self._sig_counts[key] = counts
                return counts
            counts = np.zeros(self.n, dtype=np.int64)
            for (u, v), t in self.graph.edge_types.items():
                if t != etype:
                    continue
                if direction == "":  # undirected: count both endpoints
                    if self.node_types[v] == ntype:
                        counts[u] += 1
                    if self.node_types[u] == ntype:
                        counts[v] += 1
                elif direction == "o":  # u -> v seen from u
                    if self.node_types[v] == ntype:
                        counts[u] += 1
                else:  # "i": u -> v seen from v
                    if self.node_types[u] == ntype:
                        counts[v] += 1
            self._sig_counts[key] = counts
        return counts

    def _typed_kind(self, direction: str) -> Optional[str]:
        """CSR flavor carrying reliable edge types for one direction.

        ``None`` when the slice cannot answer the key bit-identically:
        the undirected key on a directed host (the deduplicated union
        drops types) and directional keys on an undirected host (only
        canonical orientations count there) both fall back to the
        per-edge loop.
        """
        if direction == "":
            return KIND_ALL if not self.directed else None
        if not self.directed:
            return None
        return KIND_OUT if direction == "o" else KIND_IN

    def compat(self, plan: "MatchPlan") -> List[int]:
        """Per-position candidate masks for one plan, as int bitsets.

        Type equality, degree lower bound, and neighborhood-signature
        domination — all the host-only pruning rules, vectorized over
        the whole host, then packed into one int per position.
        """
        out: List[int] = []
        for pos in range(len(plan.order)):
            ok = self.node_types == plan.types[pos]
            if ok.any():
                ok &= self.degrees >= plan.degrees[pos]
            for key, need in plan.sigs[pos]:
                if not ok.any():
                    break
                ok &= self.sig_counts(key) >= need
            packed = np.packbits(ok, bitorder="little").tobytes()
            out.append(int.from_bytes(packed, "little"))
        return out


class MatchPlan:
    """Precomputed matching schedule for one pattern.

    The matching order, and per position the (non-)adjacency and
    edge-type constraints against previously mapped positions — what a
    plain backtracking search derives on the fly. Adds the pruning
    tables (degree bounds, neighborhood type signatures) the matcher
    applies host-side.
    """

    __slots__ = (
        "pattern",
        "order",
        "types",
        "degrees",
        "sigs",
        "adj",
        "nonadj",
        "dir_cons",
        "type_needs",
        "_key",
    )

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self._key: Optional[str] = None
        p = pattern.graph
        order = matching_order(p)
        self.order = order
        k = len(order)
        self.types = [p.node_type(v) for v in order]
        self.degrees = [p.degree(v) for v in order]

        # neighborhood signatures per position
        self.sigs: List[List[Tuple[SigKey, int]]] = []
        for v in order:
            need: Dict[SigKey, int] = {}
            if p.directed:
                for w in p.neighbors(v):
                    key = ("o", p.edge_type(v, w), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
                for w in p.in_neighbors(v):
                    key = ("i", p.edge_type(w, v), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
            else:
                for w in p.neighbors(v):
                    key = ("", p.edge_type(v, w), p.node_type(w))
                    need[key] = need.get(key, 0) + 1
            self.sigs.append(sorted(need.items()))

        # per-position constraints against previously mapped positions
        pos_of = {v: i for i, v in enumerate(order)}
        #: undirected: (prev position, edge type) for pattern edges
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
        #: undirected: prev positions with no pattern edge
        self.nonadj: List[List[int]] = [[] for _ in range(k)]
        #: directed: (prev position, fwd edge type or None, bwd edge
        #: type or None) where fwd is ``order[i] -> order[j]``
        self.dir_cons: List[
            List[Tuple[int, Optional[int], Optional[int]]]
        ] = [[] for _ in range(k)]
        for i, pv in enumerate(order):
            for j in range(i):
                qv = order[j]
                if p.directed:
                    fwd = (
                        p.edge_type(pv, qv) if qv in p.neighbors(pv) else None
                    )
                    bwd = (
                        p.edge_type(qv, pv) if pv in p.neighbors(qv) else None
                    )
                    self.dir_cons[i].append((j, fwd, bwd))
                else:
                    if p.has_edge(pv, qv):
                        self.adj[i].append((j, p.edge_type(pv, qv)))
                    else:
                        self.nonadj[i].append(j)

        #: node count needed per type (cheap host prefilter)
        needs: Dict[int, int] = {}
        for t in self.types:
            needs[t] = needs.get(t, 0) + 1
        self.type_needs = needs

    def plan_key(self) -> str:
        """Pattern content digest — keys per-host mask caches."""
        if self._key is None:
            self._key = self.pattern.graph.content_key()
        return self._key

    def host_can_match(self, ctx: MatchContext) -> bool:
        """Cheap prefilter: does the host have enough nodes per type?"""
        if len(self.order) > ctx.n:
            return False
        counts = ctx.type_counts()
        return all(
            counts.get(t, 0) >= need for t, need in self.type_needs.items()
        )


__all__ = [
    "MatchContext",
    "MatchPlan",
    "SigKey",
    "graph_content_key",
    "matching_order",
]
