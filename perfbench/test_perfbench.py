"""Smoke tests of the end-to-end benchmark at the registry's ``test`` scale.

Each runs ``run.main`` in-process with one round (one write, one corpus
database) and a few reads per workload, so the whole file takes under a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Keep the process state ``run.main`` touches local to each test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, os.environ.get(var, "1"))


def _main(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "1", "--scale", "test", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _expect(lines, result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
        ), f"{name} is not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, workload):
    code, lines, result = _main(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    _expect(lines, result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_restores_what_it_wrapped(
    capsys, workload
):
    run._import_checkout()
    from ledger import Ledger

    targets = Ledger.installed_attributes()
    aliases = {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for key, value in vars(mod).items()
        if any(value is fn for _owner, _attr, fn in targets)
    }
    assert aliases, "the wrapped functions are reachable through module attributes"
    code, lines, result = _main(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    _expect(lines, result, SPEC["per_layer"])
    for owner, attr, fn in targets:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} is still wrapped"
    for (name, key), value in aliases.items():
        assert vars(sys.modules[name])[key] is value, f"{name}.{key} is still wrapped"


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_parity_mismatch_fails_the_run(capsys, monkeypatch, workload):
    run._import_checkout()
    import workloads

    calls = iter(range(1 << 30))
    real = workloads.viewset_digest
    monkeypatch.setattr(
        workloads, "viewset_digest", lambda views: f"{real(views)}:{next(calls)}"
    )
    code, _lines, result = _main(capsys, "--workload", workload, "--trace", "0")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_without_the_source_tree_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
