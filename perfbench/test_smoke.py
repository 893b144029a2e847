"""Smoke tests of the benchmark itself, at a tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They run each workload end to end (a few seconds each), so they are not
part of the repository's tier-1 suite under ``tests/``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> Tuple[int, List[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _tiny(workload: str, seed: int, trace: int = 0) -> dict:
    code, lines = _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert code == 0, lines
    return json.loads(lines[-1])


def test_manifest_is_committed_and_within_limits() -> None:
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.manifest()
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    names += [w["name"] for w in committed["workloads"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in committed["end_to_end"] + committed["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert 2 <= len(committed["workloads"]) <= 8


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    return {w: (_tiny(w, 5), _tiny(w, 5)) for w in spec.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_every_metric_with_its_unit(tiny_runs: dict, workload: str) -> None:
    result, _ = tiny_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in spec.END_TO_END]
    for name, unit, *_ in spec.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_same_seed_same_accuracy(tiny_runs: dict, workload: str) -> None:
    first, second = tiny_runs[workload]
    for name in ("cycle_mae_s", "red_mae_s", "change_mae_s", "coverage"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_seed_changes_the_inputs(tmp_path: Path, workload: str) -> None:
    files = []
    for seed in (1, 2):
        path = tmp_path / f"inputs-{seed}.npz"
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "gen", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--size", "tiny", "--inputs", str(path)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        )
        with np.load(path) as data:
            files.append({name: data[name] for name in data.files})
    assert files[0].keys() == files[1].keys()
    assert any(
        files[0][k].shape != files[1][k].shape or not np.array_equal(files[0][k], files[1][k])
        for k in files[0]
    )


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(workload: str) -> None:
    result = _tiny(workload, 5, trace=1)
    assert list(result["metrics"]) == [name for name, *_ in spec.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["identify.busy_s"] > 0 and metrics["host.reference_s"] > 0
    assert (ROOT / ".perfbench" / "spans" / f"{workload}-seed5.json").is_file()
    if workload == "city_offline":
        assert metrics["sim.busy_s"] > 0 and 0 <= metrics["trace.uncovered_frac"] < 1
    if workload == "metro_identify":
        assert metrics["shard.wall_max_s"] > 0 and metrics["shard.common_bytes"] > 0
    if workload == "live_serve":
        assert metrics["loadgen.late_p90_s"] > 0 and metrics["stream.refreshed"] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run(
        "--workload", "city_offline", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
