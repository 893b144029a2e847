"""city_offline: the paper path on the Table II Shenzhen city.

One pass simulates the canonical Table II scenario for a few hours
(``simulate_and_partition(..., serial=True)``: simulate, sample taxi
reports, map-match, partition per light), then identifies every light
at a fixed set of time spots (``evaluate_at_times(..., backend="batched")``)
and scores the estimates against ``truth_at``.  The simulator and the
trace sampler carry most of the wall time, so a speed-up in either
shows here and on no other workload.

The benchmark seed drives the simulation.  Passes cycle through four
simulated days, each with its own sub-seed of the benchmark seed; the
first pass of each day is scored, so accuracy is averaged over the
four days while staying a pure function of the seed.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import identify_many
from repro.eval import harness, simulate_and_partition
from repro.eval.harness import evaluate_at_times
from repro.obs import RunReport
from repro.scenario import shenzhen_scenario
from repro.sim.engine import CitySimulation
from repro.trace.generator import TraceGenerator
from repro.trace.store import PartitionStore

from common import Tally, diff_results, median, unpack_partitions
from offline import OfflineRun, stage_metrics
from tracing import Tracer

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"hours": 2.25, "spots": 8, "days": 6},
    "tiny": {"hours": 1.5, "spots": 2, "days": 1},
}

#: The top-level layer spans of one pass; what they leave uncovered is
#: benchmark glue and interpreter overhead.
LAYER_SPANS = ["sim", "sample", "match", "partition", "store.build", "identify"]


def generate(seed: int, size: str, seconds: float) -> Dict[str, np.ndarray]:
    """Warm-up data only: the city itself is built from the canonical scenario."""
    from repro.scenario import synthetic_lights, synthetic_partitions

    from common import pack_partitions

    lights = synthetic_lights(1, seed=seed)
    return pack_partitions(synthetic_partitions(lights, 0.0, 3600.0, seed=seed), "warm")


class Workload(OfflineRun):
    def __init__(
        self, arrays: Dict[str, np.ndarray], seed: int, size: str, tracer: Optional[Tracer] = None
    ) -> None:
        cfg = SIZES[size]
        self.seed = seed
        self.horizon = cfg["hours"] * 3600.0
        self.spots = [float(t) for t in np.linspace(3600.0 * 1.25, self.horizon, cfg["spots"])]
        self.n_inputs = cfg["days"]
        self.scenario = shenzhen_scenario()
        self.warm = unpack_partitions(arrays, "warm")
        self.gate_parts: Optional[Dict[Any, Any]] = None

    def warm_up(self) -> None:
        key = sorted(self.warm)[0]
        identify_many({key: self.warm[key]}, 3600.0, backend="batched")

    def sim_seed(self, index: int) -> int:
        return self.seed * 100 + index % self.n_inputs

    def one_pass(self, index: int, report: Optional[RunReport] = None) -> Dict[str, Any]:
        t0 = time.perf_counter()
        trace, parts = simulate_and_partition(
            self.scenario, 0.0, self.horizon, seed=self.sim_seed(index), serial=True
        )
        t1 = time.perf_counter()
        result = evaluate_at_times(
            parts, self.scenario.truth_at, self.spots, backend="batched", report=report
        )
        t2 = time.perf_counter()
        if self.gate_parts is None:
            self.gate_parts = parts
        return {
            "wall": t2 - t0,
            "identify": t2 - t1,
            "spots": len(self.spots),
            "records": len(trace),
            "result": result,
            "span": (t0, t2),
        }

    def score(self, out: Dict[str, Any], tally: Tally) -> None:
        failures = {}
        for s in out["result"].samples:
            tally.score(s.estimate, self.scenario.truth_at(s.key[0], s.key[1], s.at_time))
            if s.failure is not None:
                failures[(s.key, s.at_time)] = s.failure
        tally.operations(len(out["result"].samples), tally.crash_failures(failures, "city"))

    def published(self, out: Dict[str, Any]) -> Dict[Any, Any]:
        """Every estimate of the pass, at every spot: the Table II city has
        only 18 lights, too few for one spot to stand for the mix of
        schedules a read meets."""
        return {
            (s.key, s.at_time): s.estimate for s in out["result"].samples if s.estimate is not None
        }

    def gate(self) -> Tuple[int, List[str]]:
        """Batched estimates must equal the serial reference bit for bit at one spot."""
        at = self.spots[-1]
        ref = identify_many(self.gate_parts, at, backend="serial")
        got = identify_many(self.gate_parts, at, backend="batched")
        return len(self.gate_parts), diff_results(f"city_offline batched vs serial @{at}", got, ref)

    # -- traced run ----------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        tracer.wrap(CitySimulation, "run", "sim", counts=lambda r: {"vehicles": r.n_vehicles()})
        tracer.wrap(TraceGenerator, "generate", "sample", counts=lambda t: {"records": len(t)})
        tracer.wrap(
            harness, "match_trace", "match",
            counts=lambda m: {"matched_frac": m.matched_fraction},
        )
        tracer.wrap(harness, "partition_by_light", "partition")
        tracer.wrap(
            PartitionStore, "from_partitions", "store.build",
            counts=lambda s: {"bytes": s.columns_nbytes},
        )
        tracer.wrap(harness, "identify_many", "identify", sid=lambda a, k: a[1])

    def layer_metrics(
        self, tracer: Tracer, passes: List[Dict[str, Any]], report: RunReport
    ) -> Dict[str, float]:
        n = len(passes)

        def counted(name: str, field: str) -> float:
            return sum(s["counts"][field] for s in tracer.named(name)) / n

        uncovered = [
            1.0 - tracer.covered(p["span"][0], p["span"][1], LAYER_SPANS) / p["wall"]
            for p in passes
        ]
        identify_busy = tracer.busy("identify") / n
        out = {
            "sim.busy_s": tracer.busy("sim") / n,
            "sim.vehicles": counted("sim", "vehicles"),
            "sample.busy_s": tracer.busy("sample") / n,
            "sample.records": counted("sample", "records"),
            "match.busy_s": tracer.busy("match") / n,
            "match.matched_frac": counted("match", "matched_frac"),
            "partition.busy_s": tracer.busy("partition") / n,
            "store.build_s": tracer.busy("store.build", root_only=True) / n,
            "store.bytes": max(s["counts"]["bytes"] for s in tracer.named("store.build")),
            "identify.busy_s": identify_busy,
            "trace.uncovered_frac": median(uncovered),
        }
        out.update(stage_metrics(report, n, identify_busy))
        return out
