"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-manifest`` rewrites it and the
smoke tests check that the committed file matches).  It imports only the
standard library, so the orchestrator can read it without importing
NumPy or ``repro``.
"""

from __future__ import annotations

import json
from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds one run measures.  A run also generates its inputs, probes
#: set-up in four more processes and runs its correctness gate.
RUN_SECONDS = 20

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "city_offline",
        "why": "Table II Shenzhen city simulated 2.25 h, sampled, matched and "
        "identified at 8 spots per pass over six seeded days: the paper path, "
        "where simulation and trace sampling carry most of the wall time",
    },
    {
        "name": "metro_identify",
        "why": "256-intersection synthetic city (~7.7e5 records) packed once "
        "into a spilled PartitionStore, identified one spot per pass on the "
        "2-worker shard backend: kernel and shard cost, no sim or matching",
    },
    {
        "name": "live_serve",
        "why": "8 tenants on one StreamService fed open loop (8 district "
        "uploads/s, 10% of rows one upload late, 250 reads/s), then a burst "
        "in 20 rounds: appends, splices, dirty refresh, queueing, publication",
    },
]

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("fresh_p50_s", "s", "lower", 0.25),
    ("fresh_p90_s", "s", "lower", 0.25),
    ("read_p50_s", "s", "lower", 0.25),
    ("read_p90_s", "s", "lower", 0.25),
    ("drain_chunks_per_s", "1/s", "higher", 0.25),
    ("cycle_mae_s", "s", "lower", 0.25),
    ("red_mae_s", "s", "lower", 0.25),
    ("change_mae_s", "s", "lower", 0.25),
    ("coverage", "ratio", "higher", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

#: (name, unit, better).  Offline values are per pass, live values per
#: chunk; a layer a workload never calls reads 0.
PER_LAYER = [
    ("sim.busy_s", "s", "lower"),
    ("sim.vehicles", "count", "higher"),
    ("sample.busy_s", "s", "lower"),
    ("sample.records", "count", "higher"),
    ("match.busy_s", "s", "lower"),
    ("match.matched_frac", "ratio", "higher"),
    ("partition.busy_s", "s", "lower"),
    ("store.build_s", "s", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("identify.busy_s", "s", "lower"),
    ("identify.stage.samples_s", "s", "lower"),
    ("identify.stage.stops_s", "s", "lower"),
    ("identify.stage.cycle_s", "s", "lower"),
    ("identify.stage.red_s", "s", "lower"),
    ("identify.stage.superposition_s", "s", "lower"),
    ("identify.stage.changepoint_s", "s", "lower"),
    ("identify.stage.refine_s", "s", "lower"),
    ("identify.unattributed_s", "s", "lower"),
    ("identify.samples_primary", "count", "higher"),
    ("identify.stops_kept", "count", "higher"),
    ("identify.lights_enhanced", "count", "higher"),
    ("identify.failed", "count", "lower"),
    ("shard.wall_max_s", "s", "lower"),
    ("shard.skew", "ratio", "lower"),
    ("shard.overhead_s", "s", "lower"),
    ("shard.common_bytes", "bytes", "lower"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.dirty", "count", "lower"),
    ("stream.refreshed", "count", "lower"),
    ("stream.refreshed_per_dirty", "ratio", "lower"),
    ("serve.apply_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.read_p99_s", "s", "lower"),
    ("serve.queue_high_water", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("loadgen.late_p90_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
    ("host.reference_s", "s", "lower"),
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]
UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
