"""Reference implementations of ``PMatch``, ``EVerify`` and ``IncEVerify``.

The product ships one implementation of each paper operator. The plain
versions they replaced live here as test oracles: parity suites,
benches and examples compare the product against them, and never
configure the product to run them.

* :func:`find_isomorphisms_reference` — VF2-style backtracking with
  candidates from the neighborhood of a mapped image and feasibility
  from per-pair set probes; :func:`match_coverage_reference` is the
  coverage loop over it, with no cross-call caching.
* :func:`serial_verifier` — one dense forward per memo-cache miss
  (:class:`~repro.core.verifiers.GnnVerifier`, the batched verifier's
  base class).
* :class:`RebuildEVerify` — re-derives the explainability oracle on the
  seen prefix once per stream chunk.

Each concept has one seam that routes the product through its oracle:
:func:`reference_matching`, :func:`serial_everify` and
:func:`rebuild_inc_everify` patch one module attribute for the duration
of a ``with`` block. The matching seam empties the process-wide plan
cache on entry and exit, so no result computed by one implementation is
served to the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

import repro.core.streaming as streaming
import repro.core.verifiers as verifiers
import repro.matching.isomorphism as isomorphism
from repro.config import GvexConfig
from repro.core.explainability import ExplainabilityOracle
from repro.core.inc_everify import OracleStats
from repro.core.verifiers import GnnVerifier, _AUTO
from repro.gnn.model import GnnClassifier
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import matching_order
from repro.matching.coverage import EdgeRef, NodeRef, PatternCoverage
from repro.matching.plan_cache import PLAN_CACHE

Mapping = Dict[int, int]


# ----------------------------------------------------------------------
# PMatch
# ----------------------------------------------------------------------
def find_isomorphisms_reference(
    pattern: Pattern, graph: Graph, limit: Optional[int] = None
) -> Iterator[Mapping]:
    """Induced matchings ``{pattern node -> host node}``, host ascending."""
    if pattern.graph.directed != graph.directed:
        return
    if limit is not None and limit <= 0:
        return
    p = pattern.graph
    if p.n_nodes > graph.n_nodes:
        return

    order = matching_order(p)
    count = 0
    mapping: Mapping = {}
    used: Set[int] = set()

    def candidates(pos: int) -> Iterator[int]:
        pv = order[pos]
        anchor = _mapped_neighbor(p, pv, mapping)
        if anchor is None:
            yield from graph.nodes()
        else:
            yield from sorted(graph.all_neighbors(mapping[anchor]))

    def feasible(pv: int, hv: int) -> bool:
        if hv in used:
            return False
        if graph.node_type(hv) != p.node_type(pv):
            return False
        # check edges against every already mapped pattern node
        for qv, hq in mapping.items():
            p_fwd = p.has_edge(pv, qv) if not p.directed else (qv in p.neighbors(pv))
            g_fwd = (
                graph.has_edge(hv, hq)
                if not graph.directed
                else (hq in graph.neighbors(hv))
            )
            if p.directed:
                p_bwd = pv in p.neighbors(qv)
                g_bwd = hv in graph.neighbors(hq)
                if p_fwd != g_fwd or p_bwd != g_bwd:
                    return False
                if p_fwd and p.edge_type(pv, qv) != graph.edge_type(hv, hq):
                    return False
                if p_bwd and p.edge_type(qv, pv) != graph.edge_type(hq, hv):
                    return False
            else:
                if p_fwd != g_fwd:
                    return False
                if p_fwd and p.edge_type(pv, qv) != graph.edge_type(hv, hq):
                    return False
        return True

    def backtrack(pos: int) -> Iterator[Mapping]:
        nonlocal count
        if pos == len(order):
            count += 1
            yield dict(mapping)
            return
        pv = order[pos]
        for hv in candidates(pos):
            if limit is not None and count >= limit:
                return
            if feasible(pv, hv):
                mapping[pv] = hv
                used.add(hv)
                yield from backtrack(pos + 1)
                del mapping[pv]
                used.discard(hv)

    yield from backtrack(0)


def _mapped_neighbor(p: Graph, pv: int, mapping: Mapping) -> Optional[int]:
    for w in p.all_neighbors(pv):
        if w in mapping:
            return w
    return None


def match_coverage_reference(
    pattern: Pattern, host: Graph, host_index: int = 0, match_cap: int = 10_000
) -> PatternCoverage:
    """Covered host nodes/edges: enumerate, stop at the cap or at full cover."""
    covered_nodes: Set[NodeRef] = set()
    covered_edges: Set[EdgeRef] = set()
    p = pattern.graph
    count = 0
    for mapping in find_isomorphisms_reference(pattern, host):
        count += 1
        for hv in mapping.values():
            covered_nodes.add((host_index, hv))
        for (pu, pv) in p.edge_types:
            hu, hv = mapping[pu], mapping[pv]
            if not host.directed and hu > hv:
                hu, hv = hv, hu
            covered_edges.add((host_index, (hu, hv)))
        if count >= match_cap:
            break
        if len(covered_nodes) == host.n_nodes and len(covered_edges) == host.n_edges:
            break
    return PatternCoverage(frozenset(covered_nodes), frozenset(covered_edges))


@contextmanager
def reference_matching() -> Iterator[None]:
    """Route every product match through :func:`find_isomorphisms_reference`.

    Patches the matcher's search loop, so canonicalization, mining,
    coverage, and index containment all run on the oracle. The plan
    cache is emptied on entry and exit.
    """
    original = isomorphism._search

    def search(ctx, plan, limit):
        return find_isomorphisms_reference(plan.pattern, ctx.graph, limit)

    PLAN_CACHE.clear()
    isomorphism._search = search
    try:
        yield
    finally:
        isomorphism._search = original
        PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# EVerify
# ----------------------------------------------------------------------
def serial_verifier(
    model: GnnClassifier, graph: Graph, original_label: object = _AUTO
) -> GnnVerifier:
    """The serial ``EVerify``: one forward per memo-cache miss."""
    return GnnVerifier(model, graph, original_label=original_label)


@contextmanager
def serial_everify() -> Iterator[None]:
    """Route the explain loops' ``make_verifier`` to :func:`serial_verifier`."""
    original = verifiers.make_verifier
    verifiers.make_verifier = serial_verifier
    try:
        yield
    finally:
        verifiers.make_verifier = original


# ----------------------------------------------------------------------
# IncEVerify
# ----------------------------------------------------------------------
class RebuildEVerify:
    """``IncEVerify`` by rebuilding the oracle on the seen prefix per chunk."""

    def __init__(self, model: GnnClassifier, config: GvexConfig) -> None:
        self.model = model
        self.config = config
        self.stats = OracleStats()

    def refresh(self, seen_sub: Graph, seen_ids: List[int]) -> ExplainabilityOracle:
        self.stats.full_refreshes += 1
        return ExplainabilityOracle(self.model, seen_sub, self.config)


@contextmanager
def rebuild_inc_everify() -> Iterator[None]:
    """Route StreamGVEX's ``IncEVerify`` engine to :class:`RebuildEVerify`."""
    original = streaming.IncrementalEVerify
    streaming.IncrementalEVerify = RebuildEVerify
    try:
        yield
    finally:
        streaming.IncrementalEVerify = original


__all__ = [
    "find_isomorphisms_reference",
    "match_coverage_reference",
    "reference_matching",
    "serial_verifier",
    "serial_everify",
    "RebuildEVerify",
    "rebuild_inc_everify",
]
