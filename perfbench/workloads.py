"""The workloads and the one session shape they share.

Every workload runs the same session on its own dataset and method, in
one process driving the public API. A session is a number of rounds, and
every round does the same work:

* **A served write.** One more database is fronted by an in-process
  ``ExplanationServer`` (``workers=1``), bound once before the first
  round. A keep-alive client runs a closed loop against it. Each round
  opens with one ``POST /explain`` at a u_l of the Figure 5-6 sweep; the
  rounds walk the sweep in seeded passes, each a permutation of its
  values.
* **Corpus explains.** The corpus database is set up afresh (generated,
  a classifier trained in-process, the service built) and explained four
  times back to back: cold, warm, ``processes=2`` and ``n_shards=2``. The
  process-wide match-plan cache is emptied before each set-up, so the
  cold explain meets no cached content even though an earlier round saw
  the same database. The warm, fork and sharded views must be
  byte-identical to the cold ones.
* **Reads.** A batch of ``POST /query`` reads follows every operation.
  Every read is replayed outside the timed windows against
  ``ExplanationService.query`` on the same views, on a freshly built
  index.

A timing metric is the mean of each input's samples (the corpus database,
or a u_l), then the mean over the inputs. The host's speed drifts over
tens of seconds and single operations meet slow spells, so one sample is
unsteady: every input is timed once per round or sweep pass, spread over
the whole run. The README gives the measurements behind the mean rather
than the median. Every timed operation is preceded by ``gc.collect()``
except single reads, which are too short for it.

The corpus, the served database and the sweep are fixed; the workload
seed orders the writes and draws the reads. Work counts are
a fixed function of ``--seconds``, so every run of one seed times the
same inputs. The README says why the seed does not draw the databases.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import importlib.util
import json
import math
import random
import resource
import statistics
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import ExplanationService, Q
from repro.api.server import create_server
from repro.api.service import pattern_from_spec
from repro.bench.harness import bench_config
from repro.graphs.io import viewset_to_dict
from repro.matching.plan_cache import PLAN_CACHE

from ledger import quantile

#: rounds and reads of a run of ``REFERENCE_SECONDS``; other run
#: lengths scale them
REFERENCE_SECONDS = 36
ROUNDS = 5
READS = 1200
#: the explain lanes, in the order they run on every corpus database
LANES: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("cold", {}),
    ("warm", {}),
    ("fork", {"processes": 2}),
    ("sharded", {"n_shards": 2}),
)
#: database seed of the served database, and of the corpus database
#: explained in every round
SERVE_DB_SEED = 0
CORPUS_DB_SEED = 1
#: database seed of the untimed warm-up, outside every corpus
WARM_UP_DB_SEED = 10_000


@dataclass(frozen=True)
class Workload:
    """One dataset and method; why each was chosen is in the README."""

    name: str
    dataset: str
    method: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("explain-malnet", "malnet", "gvex-approx"),
        Workload("stream-mutagenicity", "mutagenicity", "stream"),
    )
}


def sizes(seconds: float) -> Tuple[int, int]:
    """``(rounds, reads)`` for a run of ``seconds``."""
    scale = seconds / REFERENCE_SECONDS
    return max(1, round(ROUNDS * scale)), max(10, round(READS * scale))


def _json_digest(value: Any) -> str:
    raw = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()


def viewset_digest(views) -> str:
    """sha256 of the views' wire JSON."""
    return _json_digest(viewset_to_dict(views))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _upper_sweep(db) -> List[int]:
    """u_l values of the Figure 5-6 sweep, from the figure benchmarks'
    shared ``upper_sweep_for``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("figure_bench_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.upper_sweep_for(SimpleNamespace(db=db)))


def sample_pattern(rng: random.Random, db) -> Dict[str, Any]:
    """A connected 2-4-node subgraph of a random database graph, as a
    ``/query`` pattern spec."""
    while True:
        graph = db[rng.randrange(len(db))]
        if graph.n_nodes < 2:
            continue
        nodes = [rng.randrange(graph.n_nodes)]
        target = rng.randint(2, 4)
        while len(nodes) < target:
            frontier = sorted(
                {w for v in nodes for w in graph.all_neighbors(v)} - set(nodes)
            )
            if not frontier:
                break
            nodes.append(rng.choice(frontier))
        if len(nodes) < 2:
            continue
        sub, _ = graph.induced_subgraph(sorted(nodes))
        return {
            "node_types": sub.node_types.tolist(),
            "edges": [[u, v, t] for u, v, t in sub.edges()],
            "directed": sub.directed,
        }


def query_log(workload: Workload, seed: int, db, n_reads: int) -> List[Tuple[Dict[str, Any], str]]:
    """The reads of a run: ``(pattern spec, scope)`` pairs drawn by the
    seed from the served database, so motifs recur as often as the data
    holds them."""
    rng = random.Random(f"{workload.name}:{seed}:queries")
    return [
        (sample_pattern(rng, db), rng.choice(("explanations", "graphs")))
        for _ in range(n_reads)
    ]


def schedule(rng: random.Random, sweep: List[int], n_rounds: int) -> List[Tuple[str, int]]:
    """The session's operations, in order, round by round: one write
    first (reads need views), then the corpus database.

    ``("write", upper)`` is one served explain; ``("db", seed)`` sets up
    the corpus database and runs its four lanes.
    """
    writes: List[int] = []
    while len(writes) < n_rounds:
        writes += rng.sample(sweep, len(sweep))
    ops: List[Tuple[str, int]] = []
    for upper in writes[:n_rounds]:
        ops += [("write", upper), ("db", CORPUS_DB_SEED)]
    return ops


# ----------------------------------------------------------------------
# one session
# ----------------------------------------------------------------------
@dataclass
class Session:
    """Samples, digests and checks of one pass over a workload."""

    #: metric name -> input (database seed or u_l) -> its samples
    timed: Dict[str, Dict[int, List[float]]] = field(default_factory=dict)
    query_s: List[float] = field(default_factory=list)
    #: seconds of the served database's one set-up, bind included
    served_setup_s: float = 0.0
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reads_failed: int = 0
    #: match-plan cache hits and misses over the session
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: totals from the server's work queue over the session
    queue_wait_s: float = 0.0
    queue_run_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    def record(self, metric: str, key: int, seconds: float) -> None:
        self.timed.setdefault(metric, {}).setdefault(key, []).append(seconds)

    def value(self, metric: str) -> float:
        """Mean over inputs of each input's mean; 0 without samples."""
        means = [statistics.fmean(xs) for xs in self.timed.get(metric, {}).values()]
        return statistics.fmean(means) if means else 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()

    def samples(self) -> Dict[str, Any]:
        """Every timed sample (rounded) by input, and how many reads were
        timed."""
        out: Dict[str, Any] = {
            metric: {str(key): [round(x, 4) for x in xs] for key, xs in inputs.items()}
            for metric, inputs in self.timed.items()
        }
        out["served_setup_s"] = round(self.served_setup_s, 4)
        out["query_count"] = len(self.query_s)
        return out


class _Client:
    """One keep-alive HTTP client; returns ``(status, body, seconds)``."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def post(self, path: str, body: Dict[str, Any]) -> Tuple[int, Any, float]:
        raw = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        start = time.perf_counter()
        self.conn.request("POST", path, body=raw, headers=headers)
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


def _service(workload: Workload, scale: str, db_seed: int) -> ExplanationService:
    """Generate the database, train the classifier, build the service."""
    svc = ExplanationService(workload.dataset, scale=scale, seed=db_seed)
    svc.db
    svc.fit_or_load()
    return svc


def warm_up(workload: Workload, scale: str) -> None:
    """Run every lane once on a database outside the corpus, at the run's
    scale, then drop the process-wide match-plan cache.

    This pays for lazy imports, first calls and the allocator's growth to
    working size before timing, as a long-lived service would have, while
    the corpus content stays unseen. Without it the first round's samples
    read about a fifth slower than the rest.
    """
    svc = _service(workload, scale, WARM_UP_DB_SEED)
    for _lane, kwargs in LANES:
        svc.explain(workload.method, **kwargs)
    svc.query(Q.pattern(pattern_from_spec(sample_pattern(random.Random(0), svc.db))))
    PLAN_CACHE.clear()


class _Run:
    """State of one session while it runs."""

    def __init__(self, workload: Workload, scale: str, op: Callable) -> None:
        self.workload = workload
        self.scale = scale
        self.op = op
        self.out = Session()
        self.server = None
        self.served: Optional[ExplanationService] = None
        self.client: Optional[_Client] = None
        #: the views each write produced, and the reads answered from
        #: them as ``(epoch, pattern spec, scope, answer digest)``; only
        #: a digest is kept, so the heap a timed operation's garbage
        #: collections walk does not grow with the reads
        self.epochs: List[Any] = []
        self.answers: List[Tuple[int, Dict[str, Any], str, str]] = []

    def serve(self) -> None:
        """Set up the served database and bind its server."""
        gc.collect()
        start = time.perf_counter()
        with self.op("setup"):
            self.served = _service(self.workload, self.scale, SERVE_DB_SEED)
            self.server = create_server(self.served, port=0, workers=1)
        self.out.served_setup_s = time.perf_counter() - start

    def database(self, db_seed: int) -> None:
        """Set up one corpus database and run its lanes back to back."""
        out = self.out
        PLAN_CACHE.clear()
        gc.collect()
        start = time.perf_counter()
        with self.op("setup"):
            svc = _service(self.workload, self.scale, db_seed)
        out.record("setup_s", db_seed, time.perf_counter() - start)
        cold: Optional[str] = None
        for lane, kwargs in LANES:
            out.attempted += 1
            gc.collect()
            try:
                start = time.perf_counter()
                with self.op(lane):
                    views = svc.explain(self.workload.method, **kwargs)
                out.record(f"{lane}_explain_s", db_seed, time.perf_counter() - start)
            except Exception:  # a failed operation is counted, never fatal
                out.fail(f"db {db_seed} {lane}: {traceback.format_exc(limit=3)}")
                continue
            digest = viewset_digest(views)
            if cold is None:
                cold = digest
                out.digests.append(f"db{db_seed}:{digest}")
            elif digest != cold:
                out.fail(f"db {db_seed}: {lane} views differ from the cold views")

    def write(self, upper: int) -> None:
        out = self.out
        body = {
            "method": self.workload.method,
            "config": bench_config(upper=upper, dataset=self.workload.dataset).to_dict(),
        }
        out.attempted += 1
        gc.collect()
        status = payload = None
        try:
            with self.op("write"):
                status, payload, took = self.client.post("/explain", body)
        except Exception:
            out.fail(f"write u_l={upper}: {traceback.format_exc(limit=3)}")
        if status == 200:
            out.record("served_explain_s", upper, took)
        elif status is not None:
            out.fail(f"write u_l={upper}: status {status}: {payload}")
        svc = self.served
        views = svc.views if svc.has_views else None
        self.epochs.append(views)
        if views is not None:
            out.digests.append(f"write{len(self.epochs)}:u{upper}:{viewset_digest(views)}")
            if status == 200 and payload.get("views") != _summary(views):
                out.fail(f"write u_l={upper}: response differs from the views")

    def read(self, spec: Dict[str, Any], scope: str) -> None:
        out = self.out
        out.attempted += 1
        try:
            with self.op("read"):
                status, payload, took = self.client.post(
                    "/query", {"pattern": spec, "scope": scope}
                )
        except Exception:
            out.fail(f"read: {traceback.format_exc(limit=3)}")
            out.reads_failed += 1
            return
        if status != 200:
            out.fail(f"read: status {status}: {payload}")
            out.reads_failed += 1
            return
        out.query_s.append(took)
        answer = {"matches": payload.get("matches"), "statistics": payload.get("statistics")}
        self.answers.append((len(self.epochs) - 1, spec, scope, _json_digest(answer)))


def run_session(
    workload: Workload, seed: int, seconds: float, scale: str = "bench", ledger=None
) -> Session:
    """One pass over the workload; ``ledger`` traces it when given."""
    op = ledger.op if ledger is not None else (lambda kind: nullcontext())
    n_rounds, n_reads = sizes(seconds)
    run = _Run(workload, scale, op)
    cache_before = PLAN_CACHE.stats()
    run.serve()
    sweep = _upper_sweep(run.served.db)
    ops = schedule(random.Random(f"{workload.name}:{seed}:writes"), sweep, n_rounds)
    reads = query_log(workload, seed, run.served.db, n_reads)
    per_batch = math.ceil(n_reads / len(ops))
    batches = [reads[i : i + per_batch] for i in range(0, n_reads, per_batch)]
    server = run.server
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    run.client = _Client(*server.server_address[:2])
    try:
        for i, (kind, arg) in enumerate(ops):
            if kind == "db":
                run.database(arg)
            else:
                run.write(arg)
            for spec, scope in batches[i] if i < len(batches) else ():
                run.read(spec, scope)
    finally:
        run.client.close()
        stats = server.work_queue.stats()
        finished = stats["completed"] + stats["failed"]
        run.out.queue_wait_s = stats["avg_wait_seconds"] * finished
        run.out.queue_run_s = stats["avg_run_seconds"] * finished
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        cache = PLAN_CACHE.stats()
        run.out.plan_cache_hits = cache["hits"] - cache_before["hits"]
        run.out.plan_cache_misses = cache["misses"] - cache_before["misses"]
    _check_reads(run)
    return run.out


def _summary(views) -> List[Dict[str, Any]]:
    """The view summary ``POST /explain`` answers with, JSON-normalized."""
    return json.loads(
        json.dumps(
            [
                {
                    "label": view.label,
                    "n_subgraphs": len(view.subgraphs),
                    "n_patterns": len(view.patterns),
                    "score": view.score,
                    "compression": view.compression(),
                }
                for view in views
            ]
        )
    )


def _check_reads(run: _Run) -> None:
    """Replay every read against ``ExplanationService.query`` on the
    views it was served from, on a freshly built index."""
    svc = run.served
    replicas: Dict[int, ExplanationService] = {}
    expected: Dict[Tuple[int, str, str], Any] = {}
    for epoch, spec, scope, answer in run.answers:
        key = (epoch, json.dumps(spec, sort_keys=True), scope)
        if key not in expected:
            ref = replicas.get(epoch)
            if ref is None:
                ref = ExplanationService(db=svc.db, model=svc.model, config=svc.config)
                ref.set_views(run.epochs[epoch])
                replicas[epoch] = ref
            pattern = Q.pattern(pattern_from_spec(spec))
            hits = ref.query(pattern & Q.in_scope(scope))
            expected[key] = _json_digest(
                {
                    "matches": [
                        {
                            "label": h.label,
                            "graph_index": h.graph_index,
                            "in_explanation": h.in_explanation,
                        }
                        for h in hits
                    ],
                    "statistics": {
                        str(label): ref.index.count(pattern & Q.label(label))
                        for label in ref.views.labels
                    },
                }
            )
        if answer != expected[key]:
            run.out.fail(
                f"read after write {epoch + 1} ({scope}): answer differs from service.query"
            )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(session: Session) -> Dict[str, Tuple[float, str]]:
    """The gated end-to-end metrics of one untraced session."""
    out = {
        name: (session.value(name), "s")
        for name in ["setup_s", *(f"{lane}_explain_s" for lane, _ in LANES), "served_explain_s"]
    }
    out["query_p50_ms"] = (quantile(session.query_s, 0.50) * 1e3, "ms")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out


def ungated(session: Session) -> Dict[str, Tuple[float, str]]:
    """End-to-end figures printed beside the gated ones but too unsteady
    on a shared 2-core host to gate (see the README)."""
    return {
        "query_p99_ms": (quantile(session.query_s, 0.99) * 1e3, "ms"),
        "query_samples": (len(session.query_s), "count"),
    }
