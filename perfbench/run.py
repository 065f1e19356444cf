"""End-to-end benchmark of the GVEX reproduction, one workload per run.

    python3 perfbench/run.py --workload explain-malnet --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports ``repro`` from its
``src/``. With ``--trace 0`` it prints the end-to-end metrics of one
untraced session; with ``--trace 1`` it runs a session of half the work,
then the same session again with every layer wrapped, and prints the
per-layer ledger.
Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status
is non-zero when any output check fails. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: one BLAS thread per process keeps the 2-process fork lane at two busy
#: threads on a 2-core host; an explicit setting in the environment wins
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_checkout() -> None:
    """Put the checkout's ``src/`` first on the path and check that ``repro``
    comes from it; exit non-zero without a result otherwise."""
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="bench", help="dataset scale (tests use 'test')"
    )
    return parser.parse_args(argv)


def _print_metrics(metrics: Dict[str, Tuple[float, str]]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")


def run(args: argparse.Namespace) -> int:
    import numpy

    from workloads import (
        CORPUS_DB_SEED, WORKLOADS, end_to_end, run_session, sizes, ungated, warm_up,
    )

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}")
    # a traced run is two passes, each over half the work
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, n_reads = sizes(seconds)
    info: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "corpus": CORPUS_DB_SEED,
        "rounds": rounds,
        "reads": n_reads,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }
    warm_up(workload, args.scale)
    sessions = [run_session(workload, args.seed, seconds, args.scale)]
    if args.trace:
        metrics = _traced(workload, args, seconds, sessions, info)
    else:
        metrics = end_to_end(sessions[0])
    if multiprocessing.active_children():  # fork-lane workers must be reaped
        sessions[-1].fail("child processes outlived their explain")
    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    info["digest"] = [s.digest() for s in sessions]
    info["samples"] = [s.samples() for s in sessions]
    print(json.dumps({"run": info}, sort_keys=True))
    for session in sessions:
        for error in session.errors:
            print(f"FAILED: {error}", file=sys.stderr)
    _print_metrics(metrics)
    if not args.trace:
        print("not gated:")
        _print_metrics(ungated(sessions[0]))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


def _traced(workload, args, seconds, sessions, info) -> Dict[str, Tuple[float, str]]:
    """Run the session again under the ledger; the first, untraced session
    is the base of ``trace.overhead_pct``."""
    from repro.matching.plan_cache import PLAN_CACHE

    from ledger import Ledger
    from workloads import run_session

    PLAN_CACHE.clear()  # as after the warm-up: the corpus is unseen again
    ledger = Ledger()
    ledger.install()
    try:
        traced = run_session(workload, args.seed, seconds, args.scale, ledger=ledger)
    finally:
        ledger.uninstall()
    sessions.append(traced)
    if traced.digest() != sessions[0].digest():
        traced.fail("the traced session's views differ from the untraced session's")
    layer = ledger.metrics()
    info["traced_ops_s"] = ledger.total_s
    hits, misses = traced.plan_cache_hits, traced.plan_cache_misses
    layer["plan_cache.hits"] = hits
    layer["plan_cache.misses"] = misses
    layer["plan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer["queue.wait_s"] = traced.queue_wait_s
    layer["queue.run_s"] = traced.queue_run_s
    layer["client.reads"] = len(traced.query_s) + traced.reads_failed
    layer["client.failed"] = traced.reads_failed
    base = sessions[0].value("cold_explain_s")
    with_trace = traced.value("cold_explain_s")
    layer["trace.overhead_pct"] = 100.0 * (with_trace / base - 1.0) if base else 0.0
    return {name: (float(value), _unit(name)) for name, value in layer.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    _import_checkout()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
