"""metro_identify: a large synthetic city identified on the shard backend.

The city (256 intersections, 512 lights, 2.5 simulated hours, ~7.7e5
records from the closed-form visit model) is packed once into a
``PartitionStore`` and spilled to memory-mapped column files during
set-up.  One pass identifies every light at one of 8 fixed time spots
with ``identify_many(..., backend="shard", max_workers=2)``, cycling
through the spots; the store is only read.  A pass is the request a
user of the store makes, "every light's schedule at t"; a run makes
about 11 passes, so it scores all 8 spots and repeats some.
Simulation, sampling and matching do no work here, so this is where
kernel and shard changes show.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, nullcontext
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import identify_many
from repro.core import shard as shard_mod
from repro.lights.schedule import LightSchedule
from repro.obs import RunReport
from repro.scenario import synthetic_lights
from repro.trace.store import PartitionStore

from common import Tally, diff_results, mean, unpack_partitions
from offline import OfflineRun, stage_metrics
from tracing import Tracer

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"intersections": 256, "hours": 2.5, "spots": 8},
    "tiny": {"intersections": 8, "hours": 2.0, "spots": 2},
}
WORKERS = 2
#: The first spot leaves the identification window 75 minutes of data.
FIRST_SPOT_S = 4500.0


def generate(seed: int, size: str, seconds: float) -> Dict[str, np.ndarray]:
    from repro.scenario import synthetic_partitions

    from common import pack_partitions

    cfg = SIZES[size]
    lights = synthetic_lights(cfg["intersections"], seed=seed)
    parts = synthetic_partitions(lights, 0.0, cfg["hours"] * 3600.0, seed=seed + 1)
    return pack_partitions(parts, "city")


class Workload(OfflineRun):

    def __init__(
        self, arrays: Dict[str, np.ndarray], seed: int, size: str, tracer: Optional[Tracer] = None
    ) -> None:
        cfg = SIZES[size]
        self.seed = seed
        self.cfg = cfg
        horizon = cfg["hours"] * 3600.0
        self.spots = [float(t) for t in np.linspace(FIRST_SPOT_S, horizon, cfg["spots"])]
        # The first pass at each spot is scored; later ones repeat the same work.
        self.n_inputs = len(self.spots)
        self.parts = unpack_partitions(arrays, "city")
        self.spill = ExitStack()
        with tracer.span("store.build") if tracer is not None else nullcontext():
            self.store = PartitionStore.from_partitions(self.parts)
            # Spilled once for the whole run, as a service identifying the
            # same store again and again would: every pass ships the
            # workers a handle to the same column files.
            self.spill.enter_context(self.store.spilled())
        self.gate_ref: Optional[Tuple[Any, Any]] = None

    def close(self) -> None:
        self.spill.close()

    def warm_up(self) -> None:
        key = sorted(self.parts)[0]
        identify_many({key: self.parts[key]}, self.spots[0], backend="batched")

    def one_pass(self, index: int, report: Optional[RunReport] = None) -> Dict[str, Any]:
        at = self.spots[index % len(self.spots)]
        t0 = time.perf_counter()
        result = identify_many(
            self.parts, at, backend="shard", max_workers=WORKERS, store=self.store, report=report
        )
        wall = time.perf_counter() - t0
        if at == self.spots[-1] and self.gate_ref is None:
            self.gate_ref = result
        return {
            "wall": wall,
            "identify": wall,
            "spots": 1,
            "records": self.store.n_records,
            "at": at,
            "result": result,
        }

    def score(self, out: Dict[str, Any], tally: Tally) -> None:
        truth = {lt.key: lt for lt in synthetic_lights(self.cfg["intersections"], seed=self.seed)}
        estimates, failures = out["result"]
        for key in sorted(self.store):
            tally.score(estimates.get(key), LightSchedule(*truth[key].params_at(out["at"])))
        tally.operations(len(self.store), tally.crash_failures(failures, f"metro @{out['at']}"))

    def published(self, out: Dict[str, Any]) -> Dict[Any, Any]:
        return out["result"][0]

    def gate(self) -> Tuple[int, List[str]]:
        """Shard estimates must equal the batched backend bit for bit at one spot."""
        at = self.spots[-1]
        ref = identify_many(self.parts, at, backend="batched", store=self.store)
        return len(self.store), diff_results(f"metro_identify shard vs batched @{at}", self.gate_ref, ref)

    # -- traced run ----------------------------------------------------
    def install(self, tracer: Tracer) -> None:
        tracer.wrap(shard_mod, "identify_shard", "identify", sid=lambda a, k: a[1])

    def layer_metrics(
        self, tracer: Tracer, passes: List[Dict[str, Any]], report: RunReport
    ) -> Dict[str, float]:
        n = len(passes)
        # Shard indices restart at 0 with every identify_shard call.
        walls: List[List[float]] = []
        for stats in report.shards:
            if stats.shard_index == 0:
                walls.append([])
            walls[-1].append(stats.wall_s)
        busy = tracer.busy("identify")
        out = {
            "store.build_s": tracer.busy("store.build"),
            "store.bytes": float(self.store.columns_nbytes),
            "identify.busy_s": busy / n,
            "shard.wall_max_s": sum(max(w) for w in walls) / n,
            "shard.skew": mean([max(w) / mean(w) for w in walls]),
            "shard.overhead_s": (busy - sum(max(w) for w in walls)) / n,
            "shard.common_bytes": float(max(s.common_bytes for s in report.shards)),
        }
        out.update(stage_metrics(report, n, sum(sum(w) for w in walls) / n))
        return out
