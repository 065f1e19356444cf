"""Per-layer ledger: spans recorded around the public functions of each layer.

The traced run installs a wrapper at every module or class attribute
through which callers reach a wrapped function (``repro.core.approx.summarize``
as well as ``repro.core.psum.summarize``), so nothing under ``src/`` changes.
Each span records its name, start, end and parent on ``time.perf_counter``.
Spans are kept in compact in-memory arrays and reduced to metrics when the
run ends.

Parents come from one process-wide stack rather than a per-thread one. The
benchmark drives the program from a single closed-loop client, so at any
moment exactly one thread is doing traced work: the client, then the HTTP
handler thread, then the work-queue thread running an explain. A process-wide
stack therefore nests a served explain under the ``do_POST`` span that waits
for it, and a ``/query`` lookup under the client read that sent it.

A layer's self time is the duration of its spans minus the time their direct
child spans cover. Fork-pool children record into their own memory, which is
lost, so the fork lane is the single ``runtime.fork`` span.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (metric stem, layer, module, attribute path). One stem may name several
#: functions: ``gnn.forward`` is both batched forward entry points.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("datasets.load", "setup", "repro.datasets.registry", "load_dataset"),
    ("gnn.train", "setup", "repro.gnn.training", "train_classifier"),
    ("gnn.forward", "gnn", "repro.gnn.model", "GnnClassifier.predict_proba_batch"),
    ("gnn.forward", "gnn", "repro.gnn.model", "GnnClassifier.predict_db"),
    ("verify.prefetch", "gnn", "repro.core.verifiers", "BatchedGnnVerifier.prefetch_subsets"),
    ("verify.prefetch", "gnn", "repro.core.verifiers", "BatchedGnnVerifier.prefetch_remainders"),
    ("verify.prefetch", "gnn", "repro.core.verifiers", "BatchedGnnVerifier.prefetch_extensions"),
    ("approx.graph", "approx", "repro.core.approx", "explain_graph"),
    ("oracle.build", "approx", "repro.core.explainability", "ExplainabilityOracle.__init__"),
    ("mining.incremental", "mining", "repro.mining.pgen", "mine_incremental"),
    ("mining.patterns", "mining", "repro.mining.pgen", "mine_patterns"),
    ("graph.induced", "mining", "repro.graphs.graph", "Graph.induced_subgraph"),
    ("matching.identity", "mining", "repro.matching.canonical", "pattern_identity"),
    ("psum", "psum", "repro.core.psum", "summarize"),
    ("matching.coverage", "matching", "repro.matching.coverage", "CoverageIndex.coverage"),
    ("columnar.build", "matching", "repro.graphs.database", "GraphDatabase.columnar"),
    ("stream.graph", "stream", "repro.core.streaming", "StreamGvex.explain_graph_stream"),
    ("stream.refresh", "stream", "repro.core.inc_everify", "IncrementalEVerify.refresh"),
    ("runtime.plan", "runtime", "repro.runtime.plan", "build_plan"),
    ("runtime.run", "runtime", "repro.runtime.executors", "run_plan"),
    ("runtime.fork", "runtime", "repro.runtime.executors", "ForkPoolExecutor.run"),
    ("runtime.merge", "runtime", "repro.runtime.merge", "merge_view_sets"),
    ("runtime.assemble", "runtime", "repro.runtime.plan", "assemble_views"),
    ("index.build", "index", "repro.query.index", "ViewIndex.__init__"),
    ("index.select", "index", "repro.query.index", "ViewIndex.select"),
    ("index.count", "index", "repro.query.index", "ViewIndex.count"),
    ("index.patch", "index", "repro.query.index", "ViewIndex.patched_copy"),
    ("server.post", "server", "repro.api.server", "_Handler.do_POST"),
)

#: functions whose calls are counted without a span (too hot to time)
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("oracle.gain", "repro.core.explainability", "ExplainabilityOracle.gain"),
)

#: layers whose self time is reported as ``<layer>.self_pct``
SELF_PCT_LAYERS = (
    "gnn", "approx", "mining", "psum", "matching", "stream", "runtime",
    "index", "server",
)

#: the benchmark's own top-level operations; set-up ops are excluded
#: from the workload total that ``*.self_pct`` divides by
OP_PREFIX = "op."
SETUP_OP = "op.setup"


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for a dotted attribute path."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


class Ledger:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_of = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._stack: List[int] = []
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        self.prefetch_keys = 0
        self.prefetch_misses = 0
        self.shards = 0
        #: seconds of timed (non-set-up) operations, set by :meth:`metrics`
        self.total_s = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        with self._lock:
            idx = len(self._start)
            self._name_of.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self._end[idx] = end
            if self._stack and self._stack[-1] == idx:
                self._stack.pop()
            else:
                self._stack.remove(idx)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._open(self._name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def op(self, kind: str):
        """A top-level benchmark operation (set-up, explain, read, write)."""
        return self.span(OP_PREFIX + kind)

    # -- wrapping --------------------------------------------------------
    def _timed(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _prefetch(self, fn: Callable) -> Callable:
        """Count keys asked and misses filled around a verifier prefetch."""

        @functools.wraps(fn)
        def wrapper(verifier, *args):
            *head, keys = args  # keys, or (base, candidates)
            keys = list(keys)
            misses = fn(verifier, *head, keys)
            self.prefetch_keys += len(keys)
            self.prefetch_misses += misses
            return misses

        return wrapper

    def _plan(self, fn: Callable) -> Callable:
        """Count the shards every built plan schedules."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plan = fn(*args, **kwargs)
            self.shards += len(plan.shards)
            return plan

        return wrapper

    def _patch(self, original: Any, wrapper: Any, owner: Any, attr: str) -> None:
        """Replace ``original`` with ``wrapper`` on ``owner`` if it is a class;
        for a module function, at every ``repro`` module attribute bound to it."""
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every function in :data:`SPANS` and :data:`COUNTED`."""
        if self._patches:
            raise RuntimeError("ledger wrappers are already installed")
        for stem, _layer, module, path in SPANS:
            owner, attr, fn = _resolve(module, path)
            wrapped = fn
            if stem == "verify.prefetch":
                wrapped = self._prefetch(wrapped)
            elif stem == "runtime.plan":
                wrapped = self._plan(wrapped)
            wrapped = self._timed(stem, wrapped)
            self._patch(fn, wrapped, owner, attr)
        for stem, module, path in COUNTED:
            owner, attr, fn = _resolve(module, path)
            self._patch(fn, self._counted(stem, fn), owner, attr)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def installed_attributes() -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, function)`` for every wrapped target."""
        targets = [(m, p) for _s, _l, m, p in SPANS] + [(m, p) for _s, m, p in COUNTED]
        return [_resolve(module, path) for module, path in targets]

    # -- reduction -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics.

        A stem's ``_s`` is busy time: spans nested inside a span of the
        same stem are not added again. Only spans below a non-set-up
        operation count, except the set-up layer's own stems.
        """
        n = len(self._start)
        names, name_of, parent = self._names, self._name_of, self._parent
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        root = [-1] * n
        #: bit per name on the chain from the root down to each span
        chain = [0] * n
        for i in range(n):  # parents precede their children
            p = parent[i]
            bit = 1 << name_of[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                chain[i] = chain[p] | bit
            else:
                root[i] = i
                chain[i] = bit
        stem_layer = {stem: layer for stem, layer, _m, _p in SPANS}
        calls: Dict[str, int] = {stem: 0 for stem in stem_layer}
        busy: Dict[str, float] = {stem: 0.0 for stem in stem_layer}
        layer_self: Dict[str, float] = {layer: 0.0 for layer in SELF_PCT_LAYERS}
        total = 0.0
        select_ms: List[float] = []
        read_index_s: Dict[int, float] = {}
        read_trip_s: Dict[int, float] = {}
        for i in range(n):
            name = names[name_of[i]]
            root_name = names[name_of[root[i]]]
            if name.startswith(OP_PREFIX):
                if parent[i] < 0 and name != SETUP_OP:
                    total += dur[i]
                if name == OP_PREFIX + "read":
                    read_trip_s[i] = dur[i]
                continue
            layer = stem_layer[name]
            if (root_name == SETUP_OP) != (layer == "setup"):
                continue
            calls[name] += 1
            if not (parent[i] >= 0 and chain[parent[i]] & (1 << name_of[i])):
                busy[name] += dur[i]
            if layer in layer_self:
                layer_self[layer] += dur[i] - child[i]
            if name == "index.select":
                select_ms.append(dur[i] * 1e3)
            if name in ("index.select", "index.count") and root[i] in read_trip_s:
                read_index_s[root[i]] = read_index_s.get(root[i], 0.0) + dur[i]
        overhead_ms = [
            (trip - read_index_s.get(i, 0.0)) * 1e3 for i, trip in read_trip_s.items()
        ]
        out: Dict[str, float] = {
            "datasets.load_s": busy["datasets.load"],
            "gnn.train_s": busy["gnn.train"],
            "gnn.forward_calls": calls["gnn.forward"],
            "gnn.forward_s": busy["gnn.forward"],
            "verify.prefetch_calls": calls["verify.prefetch"],
            "verify.prefetch_s": busy["verify.prefetch"],
            "verify.miss_ratio": _ratio(self.prefetch_misses, self.prefetch_keys),
            "approx.graph_calls": calls["approx.graph"],
            "approx.graph_s": busy["approx.graph"],
            "oracle.build_s": busy["oracle.build"],
            "oracle.gain_calls": self.counts.get("oracle.gain", 0),
            "mining.incremental_calls": calls["mining.incremental"],
            "mining.incremental_s": busy["mining.incremental"],
            "mining.patterns_calls": calls["mining.patterns"],
            "mining.patterns_s": busy["mining.patterns"],
            "graph.induced_calls": calls["graph.induced"],
            "graph.induced_s": busy["graph.induced"],
            "matching.identity_calls": calls["matching.identity"],
            "matching.identity_s": busy["matching.identity"],
            "psum.calls": calls["psum"],
            "psum.s": busy["psum"],
            "matching.coverage_calls": calls["matching.coverage"],
            "matching.coverage_s": busy["matching.coverage"],
            "columnar.build_s": busy["columnar.build"],
            "stream.graph_calls": calls["stream.graph"],
            "stream.graph_s": busy["stream.graph"],
            "stream.refresh_calls": calls["stream.refresh"],
            "stream.refresh_s": busy["stream.refresh"],
            "runtime.plan_s": busy["runtime.plan"],
            "runtime.run_s": busy["runtime.run"],
            "runtime.fork_s": busy["runtime.fork"],
            "runtime.shards": self.shards,
            "runtime.merge_s": busy["runtime.merge"],
            "runtime.assemble_s": busy["runtime.assemble"],
            "index.build_s": busy["index.build"],
            "index.select_calls": calls["index.select"],
            "index.select_p50_ms": quantile(select_ms, 0.50),
            "index.select_p99_ms": quantile(select_ms, 0.99),
            "index.count_calls": calls["index.count"],
            "index.patch_s": busy["index.patch"],
            "server.overhead_p50_ms": quantile(overhead_ms, 0.50),
        }
        for layer in SELF_PCT_LAYERS:
            out[f"{layer}.self_pct"] = 100.0 * _ratio(layer_self[layer], total)
        self.total_s = total
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def quantile(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


__all__ = ["Ledger", "SPANS", "COUNTED", "SELF_PCT_LAYERS", "quantile"]
