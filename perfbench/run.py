"""Run the repository benchmark: one workload, or all of them.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload city_offline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn
    python3 perfbench/run.py --write-manifest               # rewrite BENCHMARK.json

Each workload run is three kinds of fresh process (see ``worker.py``):
one generates the inputs from the seed, a few time set-up alone, and
one measures.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric with its unit.  The exit code is non-zero when a
correctness gate fails or an operation fails.

Inputs live under ``.perfbench/`` in the checkout for the length of one
invocation and are deleted afterwards; a traced run leaves its spans in
``.perfbench/spans/``.  This file imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Set-up probes per run, each in its own process; the measuring
#: process adds one more sample and the median is reported.
SETUP_PROBES = {"full": 4, "tiny": 1}
#: Wall-time ceiling for any one child process.
CHILD_TIMEOUT_S = 120


class StepFailed(RuntimeError):
    pass


def _child_env(work: Path) -> Dict[str, str]:
    env = dict(os.environ)
    # The shard backend spills its column store to a temporary directory;
    # keep that inside the checkout too.
    env["TMPDIR"] = str(work)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _step(step: str, args: argparse.Namespace, inputs: Path, extra: List[str] = ()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), step,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
        "--inputs", str(inputs), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(inputs.parent), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{step} step timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise StepFailed(f"{step} step exited with code {proc.returncode}")
    if step == "gen":
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args: argparse.Namespace) -> int:
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs.npz"
    try:
        _step("gen", args, inputs)
        if args.trace:
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            res = _step("measure", args, inputs, ["--trace", "1", "--spans", str(spans)])
            names = [name for name, *_ in spec.PER_LAYER]
            metrics = {name: res["metrics"].get(name, 0.0) for name in names}
            attempted, problems = 1, []
            print(f"spans: {res['spans']} written to {spans}", file=sys.stderr)
        else:
            # Probes on both sides of the measuring process sample set-up
            # time across the run rather than in one burst.
            probes = SETUP_PROBES[args.size]
            setups = [_step("setup", args, inputs)["setup_s"] for _ in range(probes // 2)]
            res = _step("measure", args, inputs)
            setups.append(res["metrics"]["setup_s"])
            setups += [_step("setup", args, inputs)["setup_s"] for _ in range(probes - probes // 2)]
            res["metrics"]["setup_s"] = statistics.median(setups)
            names = [name for name, *_ in spec.END_TO_END]
            metrics = {name: res["metrics"][name] for name in names}
            attempted, problems = res["attempted"], res["problems"]
            for key, value in sorted(res["notes"].items()):
                print(f"note {key}: {value}", file=sys.stderr)
    except StepFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name in names:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {spec.UNITS[name]}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": spec.UNITS[name]} for name in names},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged: Dict[str, dict] = {}
    correct, attempted, failed, code = True, 0, 0, 0
    for workload in spec.WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        code = max(code, proc.returncode)
        for name, value in result["metrics"].items():
            merged[f"{workload}/{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--size", choices=["full", "tiny"], default="full",
        help="tiny shrinks every input for the smoke tests",
    )
    parser.add_argument("--write-manifest", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text(), encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
