"""End-to-end per-light identification (Fig. 4's flow chart).

Chains the paper's stages for one traffic light at one point in time:

    partitioned records ─→ cycle length (DFT, §V, optionally enhanced
    by the perpendicular direction, §V.B; sharpened by epoch folding)
    ─→ red duration (border-interval, §VI.A) ─→ superposition +
    sliding-window change point (§VI.B/C) ─→ a fitted absolute-time
    LightSchedule.

``identify_many`` runs that flow for every light of a city on one of
four backends: the per-light ``serial`` reference loop, or the
whole-city ``batched`` kernels (in-process, through the incremental
``stream`` subsystem, or sharded across a process pool by ``shard`` —
the parallelism the paper gets for free from per-light partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import check_positive
from ..lights.schedule import LightSchedule
from ..matching.partition import LightKey, LightPartition, partner_of
from ..obs import LightFailure, RunReport, StageTelemetry
from ..trace.store import PartitionStore
from .changepoint import find_signal_change
from .cycle import CycleConfig, identify_cycle_from_samples
from .enhancement import choose_primary, enhance_samples
from .redlight import RedConfig, estimate_red_duration, refine_red_from_change
from .signal_types import InsufficientDataError, ScheduleEstimate
from .stops import extract_stops
from .superposition import cycle_profile

__all__ = [
    "PipelineConfig",
    "identify_light",
    "identify_many",
    "measured_mean_interval",
    "BACKENDS",
]

#: Execution backends accepted by :func:`identify_many`.
BACKENDS = ("serial", "batched", "stream", "shard")

#: Floor for the red-duration estimate: one ``cycle_profile`` bin
#: (``bin_s=1.0``).  The border-interval estimator can return ~0 on
#: degenerate histograms, and ``find_signal_change`` requires a strictly
#: positive sliding-window length.
_MIN_RED_S = 1.0


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables of the full identification pipeline.

    Parameters
    ----------
    window_s:
        How much history feeds the cycle DFT and the superposition
        (paper examples use 30–60 min).
    stop_window_s:
        How much history feeds the stop-duration statistics; red
        durations change rarely, so a longer window is safe and much
        more accurate on sparse lights.
    phase_window_s:
        How much history feeds the superposition/change-point step.
        Shorter than ``window_s``: a period error δc smears the folded
        phase by (window/cycle)·δc, so the phase estimate prefers a
        tighter window than the frequency estimate.
    max_sample_dist_m:
        Only reports within this distance of the stop line feed the
        speed signal — upstream free-flow traffic is not modulated by
        the light and only adds noise.
    cycle, red:
        Stage configurations.
    use_enhancement:
        Mirror the perpendicular direction's samples when the primary
        direction is sparse (§V.B).
    enhancement_threshold:
        Enhancement kicks in when the primary window holds fewer raw
        samples than this.
    measure_interval:
        Use the partition's own measured mean update interval as the
        red histogram's bin width instead of the configured constant.
    fusion_weight:
        Weight of the stop-end density in the change-point fusion
        (0 = the paper-literal sliding-window detector alone).
    refine_red:
        Re-estimate the red duration from stops aligned with the
        identified red→green instant (one-sided truncation only).
    """

    window_s: float = 1800.0
    stop_window_s: float = 3600.0
    phase_window_s: float = 1200.0
    max_sample_dist_m: float = 150.0
    cycle: CycleConfig = field(default_factory=CycleConfig)
    red: RedConfig = field(default_factory=RedConfig)
    use_enhancement: bool = True
    enhancement_threshold: int = 60
    measure_interval: bool = True
    fusion_weight: float = 0.5
    refine_red: bool = True

    def __post_init__(self) -> None:
        check_positive("window_s", self.window_s)
        check_positive("stop_window_s", self.stop_window_s)
        check_positive("phase_window_s", self.phase_window_s)
        check_positive("max_sample_dist_m", self.max_sample_dist_m)


def measured_mean_interval(partition: LightPartition, default_s: float = 20.14) -> float:
    """Mean time between consecutive same-taxi reports in a partition.

    Falls back to ``default_s`` (the paper's fleet-wide figure) when the
    partition holds no consecutive pairs.
    """
    trace = partition.trace
    if len(trace) < 2:
        return default_s
    order = np.lexsort((trace.t, trace.taxi_id))
    tid = trace.taxi_id[order]
    t = trace.t[order]
    same = tid[1:] == tid[:-1]
    dt = np.diff(t)[same]
    dt = dt[(dt > 0) & (dt <= 120.0)]  # ignore cross-visit gaps
    return float(dt.mean()) if dt.size else default_s


def _window_samples(
    partition: LightPartition, t0: float, t1: float, max_dist_m: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(t, speed) samples near the stop line within a window."""
    keep = (
        (partition.trace.t >= t0)
        & (partition.trace.t < t1)
        & (partition.dist_to_stopline_m <= max_dist_m)
    )
    # Trace→kernel seam: the windowed samples flow straight into the
    # parity kernels, so their dtype is pinned here (zero-copy on the
    # trace's float64 columns; REP017 proves the chain stays float64).
    return (
        np.asarray(partition.trace.t[keep], dtype=np.float64),
        np.asarray(partition.trace.speed_kmh[keep], dtype=np.float64),
    )


def identify_light(
    partition: LightPartition,
    at_time: float,
    *,
    perpendicular: Optional[LightPartition] = None,
    config: Optional[PipelineConfig] = None,
    telemetry: Optional[StageTelemetry] = None,
) -> ScheduleEstimate:
    """Identify one light's schedule as of ``at_time``.

    Parameters
    ----------
    partition:
        The target light's records (its own approach group).
    perpendicular:
        The crossing approach group at the same intersection, used for
        §V.B enhancement on sparse windows.
    telemetry:
        Optional :class:`~repro.obs.telemetry.StageTelemetry` that
        accumulates per-stage wall time and pipeline counters; its
        ``last_stage`` names the stage that raised when this call
        fails, which is how ``identify_many`` attributes failures.

    Raises
    ------
    InsufficientDataError:
        When even the enhanced window can't support the DFT, or too few
        stop events survive filtering.
    """
    # A fresh default per call: a def-time PipelineConfig() instance
    # would be shared by every call in the process (and by every caller
    # that mutates it through object.__setattr__).
    config = PipelineConfig() if config is None else config
    tel = telemetry if telemetry is not None else StageTelemetry()
    anchor = at_time - config.window_s

    with tel.stage("samples"):
        t_own, v_own = _window_samples(
            partition, anchor, at_time, config.max_sample_dist_m
        )
        t, v = t_own, v_own
        tel.count("samples_primary", int(t_own.shape[0]))

        enhanced = False
        if (
            config.use_enhancement
            and perpendicular is not None
            and t.shape[0] < config.enhancement_threshold
        ):
            tp, vp = _window_samples(
                perpendicular, anchor, at_time, config.max_sample_dist_m
            )
            if tp.size:
                t1_, v1_, t2_, v2_ = choose_primary(t, v, tp, vp)
                t, v = enhance_samples(t1_, v1_, t2_, v2_)
                enhanced = True
                tel.count("lights_enhanced", 1)
                tel.count("samples_mirrored", int(tp.shape[0]))

    with tel.stage("stops"):
        stops_all = extract_stops(partition).time_window(
            at_time - config.stop_window_s, at_time
        )
        tel.count("stops_extracted", len(stops_all))
        stops = (
            stops_all.subset(~stops_all.passenger_changed)
            if len(stops_all)
            else stops_all
        )
        tel.count("stops_kept", len(stops))
        # Each stop's last stationary report precedes the true green onset
        # by ~half that taxi's report gap on average; corrected end times
        # anchor both the cycle search (comb score) and the change point.
        gaps = stops.duration_s / np.maximum(stops.n_records - 1, 1)
        stop_ends = stops.t_end + gaps / 2.0

    with tel.stage("cycle"):
        cyc = identify_cycle_from_samples(
            t, v, anchor, at_time, config.cycle, enhanced=enhanced,
            stop_ends=stop_ends if len(stops) else None,
            telemetry=tel,
        )
        cycle_s = cyc.cycle_s

    with tel.stage("red"):
        interval_s = (
            measured_mean_interval(partition) if config.measure_interval else None
        )
        red = estimate_red_duration(
            stops.duration_s, cycle_s, config.red, mean_interval_s=interval_s
        )
        tel.count("red_stops_used", red.n_stops_used)
        tel.count("red_stops_rejected", red.n_stops_rejected)
        # Clamp to [one profile bin, 0.9·cycle]: keeps the schedule
        # well-formed and keeps find_signal_change's check_positive
        # satisfied when the border-interval estimate degenerates to ~0.
        red_s = float(np.clip(red.red_s, _MIN_RED_S, 0.9 * cycle_s))

    with tel.stage("superposition"):
        # Superpose the *target direction's* own samples (not the mirrored
        # ones: the perpendicular direction has the opposite phase) over
        # the tighter phase window.
        phase_anchor = at_time - config.phase_window_s
        t_ph, v_ph = _window_samples(
            partition, phase_anchor, at_time, config.max_sample_dist_m
        )
        if t_ph.shape[0] < 4:
            raise InsufficientDataError(
                f"only {t_ph.shape[0]} samples for superposition in window "
                f"[{phase_anchor}, {at_time})"
            )
        tel.count("samples_phase", int(t_ph.shape[0]))
        profile = cycle_profile(t_ph, v_ph, cycle_s, phase_anchor)

    with tel.stage("changepoint"):
        ends_in_cycle = np.mod(stop_ends - phase_anchor, cycle_s)
        change = find_signal_change(
            profile,
            red_s,
            stop_ends_in_cycle=ends_in_cycle if len(stops) else None,
            fusion_weight=config.fusion_weight,
        )

    with tel.stage("refine"):
        red_to_green_abs = phase_anchor + change.red_to_green_s
        if config.refine_red:
            refined = refine_red_from_change(stops, cycle_s, red_to_green_abs)
            if refined is not None:
                red_s = float(np.clip(refined, _MIN_RED_S, 0.9 * cycle_s))
                red = replace(red, red_s=red_s)
                tel.count("red_refined", 1)

    schedule = LightSchedule(
        cycle_s=cycle_s,
        red_s=red_s,
        # the detector pins the red→green instant; red counts back from it
        offset_s=red_to_green_abs - red_s,
    )
    return ScheduleEstimate(
        intersection_id=partition.intersection_id,
        approach=partition.approach,
        at_time=at_time,
        schedule=schedule,
        cycle=cyc,
        red=red,
        change=change,
    )


def _identify_one(
    args: Tuple[LightPartition, Optional[LightPartition], float, "PipelineConfig"],
) -> Tuple[LightKey, Optional[ScheduleEstimate], Optional[LightFailure], StageTelemetry]:
    """Identify one light, containing *every* per-light failure.

    The serial backend's loop and the batched backend's per-light
    fallback both call this: one poisoned partition must never abort a
    citywide run, so any exception — not just the expected
    :class:`InsufficientDataError` — becomes a typed
    :class:`~repro.obs.report.LightFailure` carrying the exception
    class, the pipeline stage that raised, and the message.  The
    telemetry collected up to the crash comes back either way.
    """
    partition, perpendicular, at_time, config = args
    tel = StageTelemetry()
    try:
        est = identify_light(
            partition, at_time,
            perpendicular=perpendicular, config=config, telemetry=tel,
        )
        return partition.key, est, None, tel
    except Exception as exc:  # repro: allow[REP002] - per-light containment seam
        return partition.key, None, LightFailure.from_exception(exc, tel.last_stage), tel


def _resolve_backend(backend: Optional[str], max_workers: Optional[int]) -> str:
    if backend is None:
        return "shard" if max_workers is not None and max_workers > 1 else "batched"
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def identify_many(
    partitions: Dict[LightKey, LightPartition],
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    max_workers: Optional[int] = None,
    report: Optional[RunReport] = None,
    backend: Optional[str] = None,
    store: Optional[PartitionStore] = None,
) -> Tuple[Dict[LightKey, ScheduleEstimate], Dict[LightKey, LightFailure]]:
    """Identify every partitioned light at ``at_time``.

    Returns ``(estimates, failures)``.  Every light that produced no
    estimate — from an expectedly sparse window up to a genuinely
    poisoned partition — lands in *failures* as a
    :class:`~repro.obs.report.LightFailure` (exception class + pipeline
    stage + message); one bad partition never aborts the others.

    ``backend`` selects the execution strategy; all four return the
    same estimates and failures bit-for-bit:

    * ``"serial"`` — the in-process per-light reference loop;
    * ``"batched"`` — :func:`repro.core.batch.identify_batch`: the
      whole city runs through shared vectorized kernels (one FFT, one
      fold-and-scan, one moving-average pass), with per-light serial
      fallback on any failure;
    * ``"stream"`` — a one-shot :class:`repro.stream.StreamSession`
      (ingest everything as a single chunk, then evaluate).  Its point
      is the incremental API — hold a session yourself to feed chunks
      and re-evaluate only dirty lights;
    * ``"shard"`` — :func:`repro.core.shard.identify_shard`: the
      batched kernels sharded by light partition across a process
      pool of ``max_workers``, with the column store spilled to
      mmap-backed files so each worker receives only a metadata handle
      (zero column bytes pickled); the scaling backend for large
      cities on multi-core hosts.

    Without a ``backend`` the call runs ``"shard"`` when
    ``max_workers > 1`` and ``"batched"`` otherwise.

    ``partitions`` may be a plain dict or a ``PartitionStore``; passing
    the same store across repeated calls (one per time spot) reuses its
    cached stop events, report intervals, and speed grids.

    Pass a :class:`~repro.obs.report.RunReport` as ``report`` to
    aggregate per-stage wall times, pipeline counters, and the failure
    map; repeated calls (e.g. one per time spot) keep folding into the
    same report.
    """
    # The only clock in this module is the report's own timer: REP004
    # keeps repro.core free of wall-clock reads, so run timing lives in
    # repro.obs and is engaged only when a report asks for it.
    if report is not None:
        with report.run_timer():
            return _identify_many_run(
                partitions, at_time, config=config, max_workers=max_workers,
                report=report, backend=backend, store=store,
            )
    return _identify_many_run(
        partitions, at_time, config=config, max_workers=max_workers,
        report=report, backend=backend, store=store,
    )


def _identify_many_run(
    partitions: Dict[LightKey, LightPartition],
    at_time: float,
    *,
    config: Optional[PipelineConfig],
    max_workers: Optional[int],
    report: Optional[RunReport],
    backend: Optional[str],
    store: Optional[PartitionStore],
) -> Tuple[Dict[LightKey, ScheduleEstimate], Dict[LightKey, LightFailure]]:
    """The dispatch body of :func:`identify_many` (timing handled there)."""
    config = PipelineConfig() if config is None else config
    chosen = _resolve_backend(backend, max_workers)
    source = store if store is not None else partitions

    if chosen == "batched":
        from .batch import identify_batch

        estimates, failures, tels = identify_batch(
            PartitionStore.from_partitions(source), at_time, config=config
        )
        if report is not None:
            for key in sorted(tels):
                report.record_light(key, tels[key], failures.get(key))
        return estimates, failures

    if chosen == "shard":
        from .shard import identify_shard

        estimates, failures, tels, shard_stats = identify_shard(
            source, at_time, config=config, max_workers=max_workers
        )
        if report is not None:
            for key in sorted(tels):
                report.record_light(key, tels[key], failures.get(key))
            for stats in shard_stats:
                report.record_shard(stats)
        return estimates, failures

    if chosen == "stream":
        # One-shot seam over the incremental subsystem: everything
        # ingests as a single chunk, then one evaluation runs.  Session
        # telemetry (per-light and per-chunk) folds into `report`.
        from ..stream.session import StreamSession

        session = StreamSession(config=config, report=report, monitor=False)
        session.ingest(
            {key: source[key] for key in sorted(source)}, refresh=False
        )
        return session.evaluate(at_time)

    estimates = {}
    failures = {}
    for key in sorted(source):
        light, est, failure, tel = _identify_one(
            (source[key], source.get(partner_of(key)), at_time, config)
        )
        if est is not None:
            estimates[light] = est
        else:
            failures[light] = failure
        if report is not None:
            report.record_light(light, tel, failure)
    return estimates, failures
