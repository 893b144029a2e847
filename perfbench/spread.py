"""Check the benchmark's steadiness: run one workload over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload live_serve --runs 10 [--first-seed 100]

For every end-to-end metric it prints the median of the runs and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  A spread above the bound (``setup_s`` aside)
means the benchmark cannot resolve a change of that size; the aim is a
spread below a third of the bound.  ``--out`` saves the raw results so
two sets of runs can be compared median against median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import spec

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", help="write the raw per-run metrics here as JSON")
    args = parser.parse_args()

    values: Dict[str, List[float]] = {name: [] for name, *_ in spec.END_TO_END}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed} done in {time.perf_counter() - start:.1f} s", file=sys.stderr)

    worst = 0.0
    for name, _unit, _better, bound in spec.END_TO_END:
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        if name != "setup_s":
            worst = max(worst, spread / bound)
        flag = "" if spread <= bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
        print(f"{args.workload:15s} {name:20s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    print(f"worst spread / bound (setup_s aside): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
