"""Helpers shared by the workloads: statistics, input files, scoring.

Nothing here imports ``repro`` at module level: the worker loads its
inputs with this module *before* the set-up timer starts, and the timer
must see the whole cost of importing the program.
"""

from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: TraceArrays columns, stored verbatim so a round trip is exact.
TRACE_COLUMNS = (
    "taxi_id", "t", "lon", "lat", "speed_kmh",
    "heading_deg", "device_id", "gps_ok", "overspeed", "passenger",
)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Input files: partitions as flat columns plus per-light offsets
# ----------------------------------------------------------------------
def pack_partitions(parts: Mapping[Tuple[int, str], Any], prefix: str) -> Dict[str, np.ndarray]:
    """Flatten ``{key: LightPartition}`` into named arrays for ``np.savez``."""
    keys = sorted(parts)
    out: Dict[str, np.ndarray] = {
        f"{prefix}.iid": np.array([k[0] for k in keys], dtype=np.int64),
        f"{prefix}.approach": np.array([k[1] for k in keys]),
        f"{prefix}.offsets": np.cumsum([0] + [len(parts[k].trace) for k in keys]),
    }
    for col in TRACE_COLUMNS:
        out[f"{prefix}.{col}"] = _concat([getattr(parts[k].trace, col) for k in keys])
    out[f"{prefix}.segment_id"] = _concat([parts[k].segment_id for k in keys])
    out[f"{prefix}.dist"] = _concat([parts[k].dist_to_stopline_m for k in keys])
    return out


def _concat(cols: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(cols) if cols else np.empty(0)


def unpack_partitions(arrays: Mapping[str, np.ndarray], prefix: str) -> Dict[Tuple[int, str], Any]:
    """Rebuild ``{key: LightPartition}`` (imports ``repro``: call after set-up starts)."""
    from repro.matching.partition import LightPartition
    from repro.trace.records import TraceArrays

    offsets = arrays[f"{prefix}.offsets"]
    out: Dict[Tuple[int, str], Any] = {}
    for i, (iid, approach) in enumerate(
        zip(arrays[f"{prefix}.iid"].tolist(), arrays[f"{prefix}.approach"].tolist())
    ):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        trace = TraceArrays(**{col: arrays[f"{prefix}.{col}"][lo:hi] for col in TRACE_COLUMNS})
        out[(iid, str(approach))] = LightPartition(
            intersection_id=iid,
            approach=str(approach),
            trace=trace,
            segment_id=arrays[f"{prefix}.segment_id"][lo:hi],
            dist_to_stopline_m=arrays[f"{prefix}.dist"][lo:hi],
        )
    return out


def save_inputs(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    np.savez(path, **arrays)


def load_inputs(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


# ----------------------------------------------------------------------
# Scoring and outcome tallies
# ----------------------------------------------------------------------
def est_tuple(est: Any) -> Tuple[float, ...]:
    """The bit-for-bit comparison key of one ScheduleEstimate."""
    return (
        est.cycle_s,
        est.red_s,
        est.green_s,
        est.schedule.offset_s,
        est.change.red_to_green_s,
        est.change.green_to_red_s,
    )


def diff_results(
    label: str,
    got: Tuple[Mapping[Any, Any], Mapping[Any, Any]],
    ref: Tuple[Mapping[Any, Any], Mapping[Any, Any]],
) -> List[str]:
    """Light keys whose estimate or failure differs between two backends."""
    (g_est, g_fail), (r_est, r_fail) = got, ref
    bad: List[str] = []
    for key in sorted(set(g_est) | set(r_est) | set(g_fail) | set(r_fail)):
        ge, re_ = g_est.get(key), r_est.get(key)
        if (ge is None) != (re_ is None) or (
            ge is not None and est_tuple(ge) != est_tuple(re_)
        ):
            bad.append(f"{label}: estimate differs for light {key}")
            continue
        gf, rf = g_fail.get(key), r_fail.get(key)
        if (gf is None) != (rf is None) or (
            gf is not None and (gf.stage, gf.error_type) != (rf.stage, rf.error_type)
        ):
            bad.append(f"{label}: failure differs for light {key}")
    return bad


@dataclass
class Tally:
    """Errors against ground truth, coverage, and operation outcomes."""

    cycle: List[float] = field(default_factory=list)
    red: List[float] = field(default_factory=list)
    change: List[float] = field(default_factory=list)
    pairs: int = 0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)

    def score(self, estimate: Any, truth: Any) -> None:
        """Count one (light, spot) pair; ``estimate`` None means no estimate."""
        from repro.eval import compare

        self.pairs += 1
        if estimate is None:
            return
        err = compare(estimate, truth)
        self.cycle.append(abs(err.cycle_s))
        self.red.append(abs(err.red_s))
        self.change.append(abs(err.change_s))

    def operations(self, n: int, problems: Iterable[str] = ()) -> None:
        """Record ``n`` attempted operations and any that failed."""
        self.attempted += n
        self.problems.extend(problems)

    def crash_failures(self, failures: Mapping[Any, Any], where: str) -> List[str]:
        """Crash-class failures: anything but an expectedly sparse window."""
        return [
            f"{where}: light {key} crashed: {f}"
            for key, f in sorted(failures.items())
            if not f.insufficient_data
        ]

    def metrics(self) -> Dict[str, float]:
        failed = len(self.problems)
        return {
            "cycle_mae_s": mean(self.cycle),
            "red_mae_s": mean(self.red),
            "change_mae_s": mean(self.change),
            "coverage": len(self.cycle) / self.pairs if self.pairs else 0.0,
            "ok_frac": (self.attempted - failed) / self.attempted if self.attempted else 0.0,
        }
