"""The pass loop shared by the two offline workloads.

A workload supplies ``one_pass`` (the timed unit of work), ``score``,
``published``, ``gate`` and, for the traced run, ``install`` and
``layer_metrics``.  Passes cycle through the workload's ``n_inputs``
inputs (simulation sub-seeds on city_offline, time spots on
metro_identify) until the run's time is up, so every input is repeated,
spread over the run, and the first pass of each input is scored.

Every timing is scaled to the host's nominal speed by the reference
points taken on either side of it (``hostspeed.py``), and the metrics
are medians over the passes of the run: of the pass times, and of each
pass's read percentiles.  A read tail pooled over the whole run was
set by how much of the run the host spent slow (its spread across runs
reached 23 %); the median over passes of each pass's tail is not.
Reads are timed in blocks of ``READS_PER_BLOCK`` between
``QuerySpeed`` points, since the host's slow spells come and go within
a pass, and each read is scaled by the points on either side of its
block.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from common import Tally, median, quantile
from hostspeed import HostSpeed, QuerySpeed
from tracing import Tracer

#: Advisory reads timed after every pass, in blocks between reference points.
READS_PER_PASS = 1000
READS_PER_BLOCK = 100
#: Next-change queries in one read.  A fixed count keeps a read the same
#: work whatever number of lights the pass happened to estimate.
QUERIES_PER_READ = 256

STAGES = ("samples", "stops", "cycle", "red", "superposition", "changepoint", "refine")


def read_sweeps(estimates: Dict[Any, Any], t0: float, n: int, query: QuerySpeed) -> List[float]:
    """Time ``n`` advisory reads against one pass's published estimates.

    A read is what a navigation client asks along a route: for each of
    ``QUERIES_PER_READ`` lights (cycling through the estimated ones),
    when does it change next after ``t``?  Latencies come back scaled
    by ``query``'s points around each block of reads.
    """
    keys = sorted(estimates)
    route = [estimates[keys[q % len(keys)]].schedule for q in range(QUERIES_PER_READ)]
    lat: List[float] = []
    before = query.sample()
    for lo in range(0, n, READS_PER_BLOCK):
        block: List[float] = []
        for j in range(lo, min(lo + READS_PER_BLOCK, n)):
            t = t0 + 0.37 * j
            start = time.perf_counter()
            for schedule in route:
                schedule.next_change(t)
            block.append(time.perf_counter() - start)
        after = query.sample()
        point = (before + after) / 2
        lat.extend(query.scale(x, point) for x in block)
        before = after
    return lat


def stage_metrics(report: Any, n: int, busy: float) -> Dict[str, float]:
    """Per-pass identification stage times and counters from a RunReport.

    ``busy`` is the time the stages ran inside (identify wall time, or
    summed shard walls on the shard backend); what the stage timers do
    not cover is the whole-city DFT and profile kernels.
    """
    stages = report.stage_s
    counters = report.counters
    out = {f"identify.stage.{s}_s": stages.get(s, 0.0) / n for s in STAGES}
    out["identify.unattributed_s"] = busy - sum(stages.get(s, 0.0) for s in STAGES) / n
    for name in ("samples_primary", "stops_kept", "lights_enhanced"):
        out[f"identify.{name}"] = counters.get(name, 0) / n
    out["identify.failed"] = report.n_failed / n
    return out


class OfflineRun:
    """Mixin driving an offline workload's passes."""

    #: Distinct inputs a run cycles through; the first pass of each is scored.
    n_inputs: int
    spots: List[float]

    def one_pass(self, index: int, report: Optional[Any] = None) -> Dict[str, Any]:
        """Run input ``index % n_inputs``; return at least ``wall``,
        ``identify`` (seconds spent identifying), ``spots`` (time spots
        identified) and ``records``."""
        raise NotImplementedError

    def score(self, out: Dict[str, Any], tally: Tally) -> None:
        raise NotImplementedError

    def published(self, out: Dict[str, Any]) -> Dict[Any, Any]:
        raise NotImplementedError

    def gate(self) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def close(self) -> None:
        """Offline workloads hold nothing that needs closing."""

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        tally = Tally()
        host = HostSpeed()
        query = QuerySpeed()
        walls: List[float] = []
        rates: List[float] = []
        drains: List[float] = []
        read_p50: List[float] = []
        read_p90: List[float] = []
        before = host.sample()
        deadline = time.perf_counter() + seconds
        index = 0
        while index < self.n_inputs or time.perf_counter() < deadline:
            out = self.one_pass(index)
            after = host.sample()
            point = (before + after) / 2
            wall = host.scale(out["wall"], point)
            walls.append(wall)
            rates.append(out["records"] / wall)
            drains.append(out["spots"] / host.scale(out["identify"], point))
            if index < self.n_inputs:
                self.score(out, tally)
            lat = read_sweeps(self.published(out), self.spots[-1], READS_PER_PASS, query)
            tally.operations(READS_PER_PASS)
            before = host.sample()
            read_p50.append(median(lat))
            read_p90.append(quantile(lat, 0.9))
            index += 1
        n_gate, problems = self.gate()
        tally.operations(n_gate, problems)
        self.notes = {
            "passes": index,
            "host_point_s": median(host.points),
            "query_point_s": median(query.points),
        }
        metrics = {
            "records_per_s": median(rates),
            "fresh_p50_s": median(walls),
            "fresh_p90_s": quantile(walls, 0.9),
            "read_p50_s": median(read_p50),
            "read_p90_s": median(read_p90),
            "drain_chunks_per_s": median(drains),
        }
        metrics.update(tally.metrics())
        return metrics, tally

    def install(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def layer_metrics(
        self, tracer: Tracer, passes: List[Dict[str, Any]], report: Any
    ) -> Dict[str, float]:
        raise NotImplementedError

    def measure_traced(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """Alternate untraced and traced passes over the same inputs.

        The traced pass carries a RunReport and the layer spans; the
        untraced twin gives the tracing overhead.
        """
        from repro.obs import RunReport

        report = RunReport()
        plain: List[float] = []
        traced: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        index = 0
        while not traced or time.perf_counter() < deadline:
            plain.append(self.one_pass(index)["wall"])
            self.install(tracer)
            try:
                traced.append(self.one_pass(index, report))
            finally:
                tracer.restore()
            index += 1
        out = self.layer_metrics(tracer, traced, report)
        out["trace.overhead_s"] = median([p["wall"] for p in traced]) - median(plain)
        return out
