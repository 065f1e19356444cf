"""Matcher-vs-oracle parity (the ``PMatch`` oracle contract).

The matcher (int-bitset VF2 over per-host :class:`MatchContext`\\ s,
process-wide plan cache, database-batched ``pmatch``) must be *bit-
identical* to the pure-Python reference search in ``tests/oracles.py``
everywhere its results are observable:

* mapping streams — identical sequences (same matchings, same order,
  same truncation under ``limit``);
* coverage sets — identical node/edge reference sets, including under
  ``match_cap`` truncation;
* mined pattern lists — identical canonical candidates, supports, and
  embedding counts;
* end-to-end views and query DSL answers — identical across the whole
  dataset zoo.

A hypothesis property drives the mapping-stream check over random
typed patterns and hosts (directed and undirected, typed edges, from a
few nodes to sparse hosts of 60-140 nodes, eager and lazily filled
rows); zoo tests pin the end-to-end pipeline by routing the product
through the oracle (:func:`tests.oracles.reference_matching`). Pruning (degree bounds, type
signatures) may only ever *skip doomed subtrees*, so any divergence is
a soundness bug, not a tolerance issue.
"""

import random
import threading
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GvexConfig
from repro.core.approx import explain_database
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.graphs.pattern import Pattern
from repro.matching.context import MatchContext, MatchPlan, graph_content_key
from repro.matching.coverage import CoverageIndex, pmatch
from repro.matching.incremental import IncrementalMatcher
from repro.matching.isomorphism import find_isomorphisms
from repro.matching.plan_cache import PLAN_CACHE, MatchPlanCache, _coverage_local
from repro.mining.pgen import mine_patterns
from repro.query import Q, ViewIndex
from repro.datasets.registry import DATASETS, dataset_info, load_dataset
from repro.gnn.model import GnnClassifier
from tests.oracles import (
    find_isomorphisms_reference,
    match_coverage_reference,
    reference_matching,
)

ZOO = sorted(DATASETS)


class LazyContext(MatchContext):
    """A context that fills its int rows on first touch at any width."""

    LAZY_ROW_THRESHOLD = -1


# ----------------------------------------------------------------------
# strategies: random typed hosts and connected typed patterns
# ----------------------------------------------------------------------
@st.composite
def typed_graphs(draw, max_nodes=9, max_types=3, directed=None):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_types - 1),
            min_size=n,
            max_size=n,
        )
    )
    is_directed = draw(st.booleans()) if directed is None else directed
    g = Graph(types, directed=is_directed)
    possible = (
        [(u, v) for u in range(n) for v in range(n) if u != v]
        if is_directed
        else list(combinations(range(n), 2))
    )
    if possible:
        for u, v in draw(
            st.lists(
                st.sampled_from(possible),
                unique=True,
                max_size=min(len(possible), 14),
            )
        ):
            if not g.has_edge(u, v):
                g.add_edge(u, v, draw(st.integers(min_value=0, max_value=1)))
    return g


@st.composite
def sparse_graphs(draw, min_nodes=60, max_nodes=140, max_types=3):
    """Wide sparse hosts: more than one 64-bit word per row."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    is_directed = draw(st.booleans())
    g = Graph([rng.randrange(max_types) for _ in range(n)], directed=is_directed)
    for _ in range(rng.randint(n // 2, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, rng.randrange(2))
    return g


@st.composite
def wide_pattern_host_pairs(draw):
    """A sparse wide host and a connected pattern induced from it."""
    host = draw(sparse_graphs())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    nodes = [rng.randrange(host.n_nodes)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        frontier = sorted(
            {w for v in nodes for w in host.all_neighbors(v)} - set(nodes)
        )
        if not frontier:
            break
        nodes.append(rng.choice(frontier))
    return Pattern.from_induced(host, sorted(nodes)), host


@st.composite
def pattern_host_pairs(draw):
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        return draw(wide_pattern_host_pairs())
    host = draw(typed_graphs())
    pn = draw(st.integers(min_value=1, max_value=min(4, host.n_nodes + 1)))
    pg = Graph(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=pn, max_size=pn
            )
        ),
        directed=host.directed,
    )
    possible = (
        [(u, v) for u in range(pn) for v in range(pn) if u != v]
        if host.directed
        else list(combinations(range(pn), 2))
    )
    for u, v in draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=8)
        if possible
        else st.just([])
    ):
        if not pg.has_edge(u, v):
            pg.add_edge(u, v, draw(st.integers(min_value=0, max_value=1)))
    if not pg.is_connected():  # keep only valid patterns
        pg = Graph([pg.node_type(0)], directed=host.directed)
    return Pattern(pg), host


# ----------------------------------------------------------------------
# hypothesis property: equal match streams on random inputs
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(pair=pattern_host_pairs(), limit=st.sampled_from([None, 1, 2, 7]))
def test_match_streams_bit_identical(pair, limit):
    pattern, host = pair
    ref = list(find_isomorphisms_reference(pattern, host, limit=limit))
    fast = list(find_isomorphisms(pattern, host, limit=limit))
    assert fast == ref  # same matchings, same order, same dict layout
    # a supplied context/plan, eager or lazily filled, must not change
    # the output either
    for ctx in (MatchContext(host), LazyContext(host)):
        carried = list(
            find_isomorphisms(
                pattern, host, limit=limit, context=ctx, plan=MatchPlan(pattern)
            )
        )
        assert carried == ref


@settings(max_examples=60, deadline=None)
@given(pair=pattern_host_pairs(), cap=st.sampled_from([1, 3, 10_000]))
def test_coverage_bit_identical(pair, cap):
    pattern, host = pair
    ref = match_coverage_reference(pattern, host, 4, cap)
    # bypass the shared canonical registry: coverage under a truncating
    # cap is defined over the *exact* pattern labelling, so the cached
    # path is checked through a private cache seeded with this pattern
    cache = MatchPlanCache()
    nodes, edges = cache.coverage(pattern, host, cap)
    assert frozenset((4, v) for v in nodes) == ref.nodes
    assert frozenset((4, e) for e in edges) == ref.edges
    # and over a lazily filled context
    nodes, edges = _coverage_local(
        pattern, MatchPlan(pattern), LazyContext(host), host, cap
    )
    assert frozenset((4, v) for v in nodes) == ref.nodes
    assert frozenset((4, e) for e in edges) == ref.edges


# ----------------------------------------------------------------------
# context units
# ----------------------------------------------------------------------


class TestContext:
    def test_content_key_is_content_defined(self):
        a = Graph([0, 1])
        a.add_edge(0, 1, 2)
        b = Graph([0, 1])
        b.add_edge(0, 1, 2)
        c = Graph([0, 1])
        c.add_edge(0, 1, 3)  # different edge type
        assert graph_content_key(a) == graph_content_key(b)
        assert graph_content_key(a) != graph_content_key(c)
        assert graph_content_key(a) != graph_content_key(
            Graph([0, 1], directed=True)
        )

    def test_lazy_rows_equal_eager(self):
        for n, directed in [(5, True), (5, False), (130, True), (130, False)]:
            g = Graph([0] * n, directed=directed)
            for u, v, t in [(0, 1, 0), (1, 2, 1), (3, 1, 0), (n - 1, 0, 1)]:
                g.add_edge(u, v, t)
            eager, lazy = MatchContext(g), LazyContext(g)
            kinds = ("all", "out", "in") if directed else ("all",)
            typed = [("o", 0), ("o", 1), ("i", 0), ("i", 1)] if directed else [
                ("", 0), ("", 1)
            ]
            for v in range(n):
                for kind in kinds:
                    assert eager.rows(kind)[v] == lazy.rows(kind)[v]
                for direction, etype in typed:
                    assert (
                        eager.typed_rows(direction, etype)[v]
                        == lazy.typed_rows(direction, etype)[v]
                    )
            assert eager.rows("all")[0] == (1 << 1) | (1 << (n - 1))

    def test_prefilter_rejects_impossible_types(self):
        host = Graph([0, 0, 1])
        host.add_edge(0, 1)
        plan = MatchPlan(Pattern.from_parts([2], []))
        assert not plan.host_can_match(MatchContext(host))


class TestPlanCache:
    def test_cross_call_coverage_hits(self):
        cache = MatchPlanCache()
        host = Graph([0, 1, 0])
        host.add_edge(0, 1)
        host.add_edge(1, 2)
        p = Pattern.from_parts([0, 1], [(0, 1)])
        first = cache.coverage(p, host)
        before = cache.stats()["hits"]
        # an isomorphic pattern against a rebuilt-identical host: hit
        q = Pattern.from_parts([1, 0], [(0, 1)])
        rebuilt = Graph([0, 1, 0])
        rebuilt.add_edge(0, 1)
        rebuilt.add_edge(1, 2)
        assert cache.coverage(q, rebuilt) == first
        assert cache.stats()["hits"] == before + 1

    def test_contains_and_eviction(self):
        cache = MatchPlanCache(max_contexts=1, max_results=2)
        hosts = [Graph([0, i % 2]) for i in range(4)]
        for h in hosts:
            h.add_edge(0, 1)
        p = Pattern.from_parts([0, 1], [(0, 1)])
        results = [cache.contains(p, h) for h in hosts]
        assert results == [False, True, False, True]
        stats = cache.stats()
        assert stats["contexts"] == 1  # FIFO-capped
        assert stats["contains_entries"] <= 2

    def test_clear(self):
        cache = MatchPlanCache()
        cache.contains(Pattern.singleton(0), Graph([0]))
        cache.clear()
        assert cache.stats()["plans"] == 0

    def test_pattern_registry_resets_past_cap(self):
        """The pattern-side safety valve: registering past
        ``max_patterns`` drops the registry wholesale with a
        generation bump, and answers stay correct afterwards."""
        cache = MatchPlanCache(max_patterns=3)
        host = Graph([0, 1])
        host.add_edge(0, 1)
        edge = Pattern.from_parts([0, 1], [(0, 1)])
        assert cache.contains(edge, host)
        for t in range(5):  # overflow the registry
            cache.contains(Pattern.singleton(t), host)
        assert cache.stats()["plans"] <= 3
        # keys from before and after the reset never alias: the same
        # query still answers identically
        assert cache.contains(edge, host)
        assert not cache.contains(Pattern.singleton(9), host)

    @settings(max_examples=15, deadline=None)
    @given(
        pairs=st.lists(pattern_host_pairs(), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_concurrent_mixed_queries_bit_identical(self, pairs, seed):
        """The multi-worker serve pool's contract on the shared cache.

        Four threads fire interleaved coverage/contains queries at one
        cache with deliberately tiny bounds (so eviction races with
        lookups); every answer must equal the single-threaded reference
        and no thread may observe an exception or a torn entry.
        """
        reference = MatchPlanCache()
        expected = [
            (reference.coverage(p, h), reference.contains(p, h))
            for p, h in pairs
        ]
        shared = MatchPlanCache(max_contexts=2, max_results=8)
        barrier = threading.Barrier(4)
        errors, observed = [], {}

        def worker(tid):
            rng = random.Random(seed + tid)
            order = list(range(len(pairs))) * 3
            rng.shuffle(order)
            out = []
            barrier.wait(timeout=10)
            try:
                for idx in order:
                    p, h = pairs[idx]
                    out.append((idx, shared.coverage(p, h),
                                shared.contains(p, h)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            observed[tid] = out

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in observed.values():
            for idx, cov, cont in out:
                assert (cov, cont) == expected[idx]
        stats = shared.stats()
        assert stats["contexts"] <= 2  # bounds hold under the race

    def test_reinit_after_fork_replaces_lock_and_contents(self):
        cache = MatchPlanCache()
        cache.contains(Pattern.singleton(0), Graph([0]))
        old_lock = cache._lock
        cache._reinit_after_fork()
        assert cache._lock is not old_lock
        assert cache.stats()["plans"] == 0
        # and the cache still works after reinit
        assert cache.contains(Pattern.singleton(0), Graph([0]))


# ----------------------------------------------------------------------
# pmatch: database-batched == per-host
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    hosts=st.lists(typed_graphs(max_nodes=6, directed=False), min_size=1, max_size=4),
    pair=pattern_host_pairs(),
)
def test_pmatch_equals_per_host(hosts, pair):
    pattern, extra = pair
    if extra.directed != hosts[0].directed:
        extra = hosts[0]
    if pattern.graph.directed:
        pattern = Pattern.singleton(0)
    group = hosts + [extra]
    batched = pmatch(pattern, group)
    for h, host in enumerate(group):
        single = match_coverage_reference(pattern, host, h)
        assert batched[h].nodes == single.nodes
        assert batched[h].edges == single.edges


# ----------------------------------------------------------------------
# mining / incremental-matcher parity
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(hosts=st.lists(typed_graphs(max_nodes=6), min_size=1, max_size=3))
def test_mined_patterns_bit_identical(hosts):
    hosts = [h for h in hosts if not h.directed] or [Graph([0, 0])]
    with reference_matching():
        ref = mine_patterns(hosts, max_size=3)
    fast = mine_patterns(hosts, max_size=3)
    assert [
        (m.pattern.graph.node_types.tolist(), m.pattern.graph.edge_types,
         m.support, m.embeddings)
        for m in ref
    ] == [
        (m.pattern.graph.node_types.tolist(), m.pattern.graph.edge_types,
         m.support, m.embeddings)
        for m in fast
    ]


def test_incremental_matcher_backends_agree():
    tri = Pattern.from_parts([0, 0, 0], [(0, 1), (1, 2), (0, 2)])

    def stream():
        inc = IncrementalMatcher()
        inc.register(tri)
        inc.add_node(0)
        inc.add_node(0, edges=[(0, 0)])
        inc.add_node(0, edges=[(0, 0), (1, 0)])
        inc.add_node(1, edges=[(2, 0)])
        return (
            inc.covered_nodes(tri),
            inc.covered_edges(tri),
            inc.union_covered_nodes(),
        )

    with reference_matching():
        ref = stream()
    assert stream() == ref


# ----------------------------------------------------------------------
# zoo-wide end-to-end parity: views, coverage, query DSL
# ----------------------------------------------------------------------
def zoo_setup(dataset):
    info = dataset_info(dataset)
    db = load_dataset(dataset, scale="test", seed=0)
    model = GnnClassifier(info.n_features, info.n_classes, hidden_dims=(8, 8), seed=0)
    return db, model


def view_fingerprint(views):
    return [
        (
            view.label,
            [(s.graph_index, s.nodes, s.score) for s in view.subgraphs],
            [(p.key(), sorted(p.graph.edge_types.items())) for p in view.patterns],
            view.edge_loss,
        )
        for view in views
    ]


@pytest.mark.parametrize("dataset", ZOO)
def test_zoo_views_and_queries_bit_identical(dataset):
    db, model = zoo_setup(dataset)
    cfg = GvexConfig(theta=0.08, radius=0.3, gamma=0.5).with_bounds(0, 5)

    def run():
        views = explain_database(db, model, cfg)
        index = ViewIndex(views, db=db)
        patterns = [p for view in views for p in view.patterns]
        queries = []
        for p in patterns:
            occs = index.select(Q.pattern(p))
            queries.append([(o.label, o.graph_index, o.in_explanation) for o in occs])
            occs = index.select(Q.pattern(p) & Q.in_scope("graphs"))
            queries.append([(o.label, o.graph_index, o.in_explanation) for o in occs])
        hosts = [s.subgraph for view in views for s in view.subgraphs]
        cov = CoverageIndex(hosts)
        coverage = [
            (sorted(cov.coverage(p).nodes), sorted(cov.coverage(p).edges))
            for p in patterns
        ]
        return view_fingerprint(views), queries, coverage

    with reference_matching():
        ref = run()
    assert run() == ref


# ----------------------------------------------------------------------
# retired backend key
# ----------------------------------------------------------------------
def test_unknown_backend_rejected():
    """The retired ``matching_backend`` key still validates its value."""
    with pytest.raises(ConfigurationError):
        GvexConfig.from_dict({"matching_backend": "vectorized"})
    with pytest.warns(DeprecationWarning):
        assert GvexConfig.from_dict({"matching_backend": "reference"}) == GvexConfig()


def test_global_plan_cache_is_shared():
    # Psum-style coverage then an index build over the same hosts: the
    # second consumer must hit the process-wide cache, not re-match
    host = Graph([0, 1, 0])
    host.add_edge(0, 1)
    host.add_edge(1, 2)
    p = Pattern.from_parts([0, 1], [(0, 1)])
    PLAN_CACHE.coverage(p, host)
    before = PLAN_CACHE.stats()["hits"]
    PLAN_CACHE.contains(p, host)  # containment derives from coverage
    assert PLAN_CACHE.stats()["hits"] == before + 1
