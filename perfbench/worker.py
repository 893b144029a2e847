"""One benchmark step in a fresh process: generate inputs, probe set-up, or measure.

``run.py`` starts this script three ways for every workload run:

* ``gen``: build the workload's inputs from the seed with the program's
  own generators and save them as ``.npz`` (never timed);
* ``setup``: load the inputs, then time importing ``repro``,
  constructing the workload (scenario, store, or service and tenants)
  and a one-light warm-up call; print the time and exit;
* ``measure``: the same set-up, then the timed phase (or, with
  ``--trace 1``, the traced phase) and the correctness gate; print the
  result as one JSON line.

Only the standard library and NumPy are imported before the set-up
timer starts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional, Tuple

from common import load_inputs, median, peak_rss_mb, save_inputs
from hostspeed import HostSpeed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"city_offline": "city", "metro_identify": "metro", "live_serve": "live"}


def _check_program() -> None:
    """Refuse to measure any ``repro`` other than the checkout's own source."""
    import repro

    expected = (ROOT / "src" / "repro").resolve()
    found = Path(repro.__file__).resolve().parent
    if found != expected:
        raise SystemExit(f"imported repro from {found}, expected {expected}")


def _setup(args: argparse.Namespace, tracer: Optional[Tracer] = None) -> Tuple[Any, float]:
    arrays = load_inputs(args.inputs)
    point = HostSpeed().sample()
    t0 = time.perf_counter()
    _check_program()
    mod = importlib.import_module(MODULES[args.workload])
    workload = mod.Workload(arrays, args.seed, args.size, tracer)
    workload.warm_up()
    return workload, HostSpeed.scale(time.perf_counter() - t0, point)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=["gen", "setup", "measure"])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.step == "gen":
        _check_program()
        mod = importlib.import_module(MODULES[args.workload])
        save_inputs(args.inputs, mod.generate(args.seed, args.size, args.seconds))
        return 0

    tracer = Tracer() if args.trace else None
    workload, setup_s = _setup(args, tracer)
    try:
        if args.step == "setup":
            result: dict = {"setup_s": setup_s}
        elif tracer is not None:
            host = HostSpeed()
            host.sample()
            metrics = workload.measure_traced(args.seconds, tracer)
            host.sample()
            metrics["host.reference_s"] = median(host.points)
            tracer.write(args.spans)
            result = {"metrics": metrics, "spans": len(tracer.spans)}
        else:
            metrics, tally = workload.measure(args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            result = {
                "metrics": metrics,
                "attempted": tally.attempted,
                "problems": tally.problems,
                "notes": getattr(workload, "notes", {}),
            }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
