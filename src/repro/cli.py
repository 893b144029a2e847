"""Command-line interface.

Four subcommands cover the pipeline end-to-end without writing Python:

* ``repro simulate`` — build a scenario, simulate taxi traffic, write
  the raw Table I trace and the network (+ ground-truth plans) JSON;
* ``repro stats`` — Fig. 2-style characterization of a trace file;
* ``repro identify`` — identify every light at a time point from a
  trace + network pair, optionally scored against stored ground truth;
* ``repro evaluate`` — the full §VIII.A sweep: identify every light at
  several time spots and print the error statistics vs ground truth;
* ``repro monitor`` — §VII continuous cycle monitoring of one light,
  with outlier repair and plan-change detection;
* ``repro stream`` — replay a trace chunk-by-chunk through the
  incremental backend, printing per-chunk dirty/refresh accounting and
  online plan-change detections;
* ``repro serve-bench`` — load the multi-tenant async serving layer
  with interleaved ingests and advisory queries across N synthetic
  city tenants, audit snapshot isolation, and check the reader-latency
  SLOs (non-zero exit on violation);
* ``repro frontier`` — sweep the responsiveness of adaptive
  (demand-responsive) signal controllers and print the
  identifiability-frontier curve: cycle-estimate error, changepoint
  false-alarm/miss rates, and monitor lag vs adaptivity (non-zero exit
  if the fixed-plan anchor or cross-backend parity fails);
* ``repro navigate`` — run the Fig. 16 navigation comparison.

Example session::

    repro simulate --scenario small --hours 1.5 --out /tmp/city
    repro stats /tmp/city.trace.txt
    repro identify --city /tmp/city --at 5400
    repro navigate --cols 6 --rows 6
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _output_path(path: str) -> str:
    """argparse ``type=`` for output files and prefixes: the directory
    must already exist, so a typo exits with status 2 before the run
    instead of a traceback after it."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    return path


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from .core.pipeline import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Traffic-light scheduling identification from taxi traces "
                    "(reproduction of He et al., ICPP 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a city and write its trace")
    sim.add_argument("--scenario", choices=("small", "shenzhen"), default="small")
    sim.add_argument("--hours", type=float, default=1.5, help="simulated duration")
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--out", required=True, type=_output_path,
                     help="output prefix; writes <out>.trace.txt and <out>.net.json")

    st = sub.add_parser("stats", help="Fig. 2 statistics of a trace file")
    st.add_argument("trace", help="path to a Table I trace file")

    ident = sub.add_parser("identify", help="identify all lights at a time point")
    ident.add_argument("--city", required=True,
                       help="prefix written by `repro simulate`")
    ident.add_argument("--at", type=float, required=True,
                       help="identification time (simulation seconds)")
    ident.add_argument("--window", type=float, default=1800.0,
                       help="analysis window length, seconds")
    ident.add_argument("--backend", choices=BACKENDS, default=None,
                       help="execution backend (default: 'shard' when "
                            "--workers > 1, else 'batched'); 'serial' is "
                            "the per-light reference loop, "
                            "'batched' runs the whole city through shared "
                            "vectorized kernels, 'stream' goes through the "
                            "incremental subsystem (one-shot here; see "
                            "`repro stream` for chunked replay), 'shard' "
                            "fans the batched kernels out over a process "
                            "pool via a zero-copy mmap-backed column store")
    ident.add_argument("--workers", type=int, default=None,
                       help="worker processes for the shard backend "
                            "(default: available CPUs, capped at 8)")
    ident.add_argument("--report", metavar="PATH", default=None, type=_output_path,
                       help="write the RunReport JSON (stage wall times, "
                            "counters, failure taxonomy) to PATH")

    ev = sub.add_parser("evaluate", help="error statistics vs stored ground truth")
    ev.add_argument("--city", required=True,
                    help="prefix written by `repro simulate` (plans required)")
    ev.add_argument("--times", type=float, nargs="+", required=True,
                    help="identification time spots (simulation seconds)")
    ev.add_argument("--backend", choices=BACKENDS, default=None,
                    help="execution backend (default: 'shard' when "
                         "--workers > 1, else 'batched')")
    ev.add_argument("--workers", type=int, default=None,
                    help="worker processes for the shard backend")
    ev.add_argument("--report", metavar="PATH", default=None, type=_output_path,
                    help="write the RunReport JSON aggregated over all "
                         "time spots to PATH")

    mon = sub.add_parser("monitor", help="continuous cycle monitoring of one light")
    mon.add_argument("--city", required=True)
    mon.add_argument("--light", required=True,
                     help="intersection:approach, e.g. 0:NS")
    mon.add_argument("--every", type=float, default=300.0)
    mon.add_argument("--window", type=float, default=1800.0)

    strm = sub.add_parser(
        "stream", help="replay a trace through the incremental backend"
    )
    strm.add_argument("--city", required=True,
                      help="prefix written by `repro simulate`")
    strm.add_argument("--chunk", type=float, default=300.0,
                      help="replay chunk length, seconds")
    strm.add_argument("--window", type=float, default=1800.0,
                      help="analysis window length, seconds")
    strm.add_argument("--backend", choices=("batched", "shard"),
                      default="batched",
                      help="how stale lights are re-identified per chunk: "
                           "in-process batched kernels (default) or the "
                           "zero-copy sharded process fan-out")
    strm.add_argument("--workers", type=int, default=None,
                      help="worker processes for the shard backend")
    strm.add_argument("--report", metavar="PATH", default=None, type=_output_path,
                      help="write the RunReport JSON (incl. per-chunk "
                           "ingest stats) to PATH")

    srv = sub.add_parser(
        "serve-bench",
        help="latency-SLO load run of the multi-tenant serving layer",
    )
    srv.add_argument("--tenants", type=int, default=8,
                     help="concurrent city tenants")
    srv.add_argument("--chunks", type=int, default=24,
                     help="replay chunks per tenant")
    srv.add_argument("--intersections", type=int, default=4,
                     help="intersections per tenant (2 lights each)")
    srv.add_argument("--evaluates-per-chunk", type=int, default=6,
                     help="SLO-timed advisory queries per published version")
    srv.add_argument("--queue-depth", type=int, default=8,
                     help="bounded ingest queue capacity per tenant")
    srv.add_argument("--seed", type=int, default=7)
    srv.add_argument("--p50-slo-ms", type=float, default=5.0,
                     help="advisory-read p50 SLO, milliseconds")
    srv.add_argument("--p99-slo-ms", type=float, default=50.0,
                     help="advisory-read p99 SLO, milliseconds")
    srv.add_argument("--json", metavar="PATH", default=None, type=_output_path,
                     help="write the measured numbers as JSON to PATH")
    srv.add_argument("--report", metavar="PATH", default=None, type=_output_path,
                     help="write the RunReport JSON (one ServiceStats "
                          "per tenant) to PATH")

    fr = sub.add_parser(
        "frontier",
        help="identifiability frontier of adaptive (demand-responsive) signals",
    )
    fr.add_argument("--kind", choices=("actuated", "gap", "fuzzy"), default="gap",
                    help="adaptive controller kind driving the scenario")
    fr.add_argument("--alphas", type=float, nargs="+", default=None,
                    help="responsiveness sweep, each in [0, 1] "
                         "(0 = fixed plan, 1 = fully demand-driven)")
    fr.add_argument("--intersections", type=int, default=4,
                    help="intersections in the synthetic city (2 lights each)")
    fr.add_argument("--horizon", type=float, default=9000.0,
                    help="trace horizon, seconds")
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--backends", nargs="+", default=None, choices=BACKENDS,
                    help="identification backends to cross-check bit-for-bit")
    fr.add_argument("--json", metavar="PATH", default=None, type=_output_path,
                    help="write the frontier curve as JSON to PATH")

    nav = sub.add_parser("navigate", help="Fig. 16 navigation comparison")
    nav.add_argument("--cols", type=int, default=6)
    nav.add_argument("--rows", type=int, default=6)
    nav.add_argument("--trips", type=int, default=12)
    nav.add_argument("--seed", type=int, default=7)
    return parser


def _cmd_simulate(args) -> int:
    from .eval import simulate_and_partition
    from .network.serialization import save_network
    from .scenario import shenzhen_scenario, small_scenario
    from .trace import write_trace

    scn = shenzhen_scenario() if args.scenario == "shenzhen" else small_scenario()
    horizon = args.hours * 3600.0
    print(f"simulating {args.scenario} scenario for {args.hours:g} h "
          f"(seed {args.seed}) ...")
    trace, partitions = simulate_and_partition(scn, 0.0, horizon, seed=args.seed)

    trace_path = f"{args.out}.trace.txt"
    with open(trace_path, "w", encoding="utf-8") as fp:
        n = write_trace(trace, fp)
    net_path = f"{args.out}.net.json"
    with open(net_path, "w", encoding="utf-8") as fp:
        save_network(scn.net, fp, plans=scn.plans)
    print(f"wrote {n:,} records to {trace_path}")
    print(f"wrote network + ground-truth plans to {net_path}")
    print(f"partitions: {len(partitions)} lights")
    return 0


def _cmd_stats(args) -> int:
    from .network.geometry import LocalFrame
    from .trace import compute_statistics, read_trace

    with open(args.trace, encoding="utf-8") as fp:
        trace = read_trace(fp)
    stats = compute_statistics(trace, LocalFrame())
    print(f"records:              {stats.n_records:,}")
    print(f"taxis:                {stats.n_taxis:,}")
    print(f"records/minute:       {stats.records_per_minute:,.1f}")
    print(f"update interval:      {stats.mean_update_interval_s:.2f} s "
          f"± {stats.std_update_interval_s:.2f} (paper: 20.41 ± 20.54)")
    print(f"stationary updates:   {100 * stats.stationary_fraction:.1f}% "
          f"(paper: 42.66%)")
    print(f"moving update dist:   {stats.mean_moving_distance_m:.1f} m "
          f"(paper: 100.69 m)")
    print(f"speed differences:    N({stats.speed_diff_mean_kmh:.1f}, "
          f"{stats.speed_diff_std_kmh:.1f}) km/h (paper: N(0, 40))")
    return 0


def _cmd_identify(args) -> int:
    from ._util import circular_diff
    from .core import PipelineConfig, identify_many
    from .lights.intersection import attach_signals_to_network
    from .matching import match_trace, partition_by_light
    from .network.serialization import load_network
    from .obs import RunReport
    from .trace import read_trace

    with open(f"{args.city}.net.json", encoding="utf-8") as fp:
        net, plans = load_network(fp)
    with open(f"{args.city}.trace.txt", encoding="utf-8") as fp:
        trace = read_trace(fp)
    print(f"loaded {len(trace):,} records, "
          f"{len(net.signalized_intersections())} signalized intersections")

    partitions = partition_by_light(match_trace(trace, net), net)
    config = PipelineConfig(window_s=args.window)
    report = RunReport() if args.report else None
    estimates, failures = identify_many(
        partitions, args.at, config=config,
        backend=args.backend, max_workers=args.workers, report=report,
    )

    signals = attach_signals_to_network(net, plans) if plans else None
    print(f"\n{'light':<12} {'cycle':>8} {'red':>7} {'green':>7} "
          f"{'r2g@':>7}" + ("  vs ground truth" if signals else ""))
    for key in sorted(estimates):
        est = estimates[key]
        line = (f"{str(key):<12} {est.cycle_s:>7.1f}s {est.red_s:>6.1f}s "
                f"{est.green_s:>6.1f}s {est.schedule.red_to_green_in_cycle:>6.1f}s")
        if signals:
            iid, app = key
            gt = signals[iid].schedule_at(app, args.at)
            dc = est.cycle_s - gt.cycle_s
            dch = float(circular_diff(
                est.schedule.offset_s + est.schedule.red_s,
                gt.offset_s + gt.red_s, gt.cycle_s,
            ))
            line += f"   dCycle {dc:+.1f}s dChange {dch:+.1f}s"
        print(line)
    for key, failure in sorted(failures.items()):
        print(f"{str(key):<12} no estimate: {failure}")
    if report is not None:
        report.save(args.report)
        print(f"\nwrote run report to {args.report}")
        print(report.summary())
    return 0


def _cmd_evaluate(args) -> int:
    from .eval import evaluate_at_times, summarize_errors
    from .lights.intersection import attach_signals_to_network
    from .matching import match_trace, partition_by_light
    from .network.serialization import load_network
    from .obs import RunReport
    from .trace import read_trace

    with open(f"{args.city}.net.json", encoding="utf-8") as fp:
        net, plans = load_network(fp)
    if plans is None:
        print("error: the network file carries no ground-truth plans; "
              "re-run `repro simulate`")
        return 2
    with open(f"{args.city}.trace.txt", encoding="utf-8") as fp:
        trace = read_trace(fp)
    signals = attach_signals_to_network(net, plans)
    partitions = partition_by_light(match_trace(trace, net), net)

    def truth_fn(iid, app, t):
        return signals[iid].schedule_at(app, t)

    report = RunReport() if args.report else None
    result = evaluate_at_times(
        partitions, truth_fn, args.times,
        backend=args.backend, max_workers=args.workers, report=report,
    )
    print(f"samples: {len(result)}  (data-starved: {result.n_failures})")
    print(summarize_errors(result.cycle_errors, "cycle length "))
    print(summarize_errors(result.red_errors, "red duration "))
    print(summarize_errors(result.change_errors, "change time  "))
    locked = [s for s in result.samples
              if s.errors and abs(s.errors.cycle_s) <= 5.0]
    print(f"cycle-locked subset: {len(locked)} samples")
    print(summarize_errors([s.errors.red_s for s in locked], "red | locked "))
    print(summarize_errors([s.errors.change_s for s in locked], "chg | locked "))
    if report is not None:
        report.save(args.report)
        print(f"\nwrote run report to {args.report}")
        print(report.summary())
    return 0


def _cmd_monitor(args) -> int:
    from .core.monitor import detect_plan_changes, monitor_cycle, repair_outliers
    from .matching import match_trace, partition_by_light
    from .network.serialization import load_network
    from .trace import read_trace

    with open(f"{args.city}.net.json", encoding="utf-8") as fp:
        net, _plans = load_network(fp)
    with open(f"{args.city}.trace.txt", encoding="utf-8") as fp:
        trace = read_trace(fp)
    try:
        iid_s, app = args.light.split(":")
        key = (int(iid_s), app.upper())
    except ValueError:
        print(f"error: --light must look like 0:NS, got {args.light!r}")
        return 2
    partitions = partition_by_light(match_trace(trace, net), net)
    if key not in partitions:
        print(f"error: no records for light {key}; available: "
              f"{sorted(partitions)}")
        return 2
    p = partitions[key]
    t0, t1 = float(p.trace.t.min()), float(p.trace.t.max())
    series = monitor_cycle(p, t0, t1, every_s=args.every, window_s=args.window)
    repaired = repair_outliers(series)
    print(f"light {key}: {len(series)} windows, "
          f"{100 * series.valid_fraction():.0f}% valid")
    for t, c in zip(repaired.t, repaired.cycle_s):
        bar = "" if np.isnan(c) else "#" * int(np.clip(c / 5, 0, 60))
        val = "   ?" if np.isnan(c) else f"{c:4.0f}"
        print(f"  t={t:7.0f}s  cycle={val}s {bar}")
    for ch in detect_plan_changes(repaired):
        print(f"plan change at t={ch.at_time:.0f}s: "
              f"{ch.old_cycle_s:.0f}s -> {ch.new_cycle_s:.0f}s")
    return 0


def _cmd_stream(args) -> int:
    from .core import PipelineConfig
    from .lights.intersection import attach_signals_to_network
    from .matching import match_trace, partition_by_light
    from .network.serialization import load_network
    from .obs import RunReport
    from .stream import StreamSession, split_by_time
    from .trace import read_trace

    with open(f"{args.city}.net.json", encoding="utf-8") as fp:
        net, plans = load_network(fp)
    with open(f"{args.city}.trace.txt", encoding="utf-8") as fp:
        trace = read_trace(fp)
    partitions = partition_by_light(match_trace(trace, net), net)
    if not partitions:
        print("error: the trace matched no signalized lights")
        return 2
    t0 = min(float(p.trace.t.min()) for p in partitions.values())
    t1 = max(float(p.trace.t.max()) for p in partitions.values())
    edges = list(np.arange(t0, t1, args.chunk)) + [t1 + 1e-9]
    print(f"replaying {len(trace):,} records over {len(partitions)} lights "
          f"in {len(edges) - 1} chunks of {args.chunk:g}s")

    report = RunReport() if args.report else None
    session = StreamSession(
        config=PipelineConfig(window_s=args.window), report=report,
        backend=args.backend, max_workers=args.workers,
    )
    for chunk in split_by_time(partitions, edges):
        update = session.ingest(chunk)
        print(f"chunk {update.chunk_index:>3}  t={update.at_time:8.0f}s  "
              f"+{update.n_records:>6,} records  "
              f"touched {len(update.touched):>3}  "
              f"dirty {len(update.dirty):>3}  "
              f"estimates {len(update.estimates):>3}")
        for key, changes in sorted(update.plan_changes.items()):
            for ch in changes:
                print(f"    plan change {key}: t={ch.at_time:.0f}s "
                      f"{ch.old_cycle_s:.0f}s -> {ch.new_cycle_s:.0f}s")

    estimates, failures = session.evaluate(t1)
    signals = attach_signals_to_network(net, plans) if plans else None
    print(f"\nfinal estimates at t={t1:.0f}s "
          f"({len(estimates)} ok, {len(failures)} failed):")
    for key in sorted(estimates):
        est = estimates[key]
        line = (f"{str(key):<12} cycle {est.cycle_s:6.1f}s  "
                f"red {est.red_s:5.1f}s")
        if signals:
            gt = signals[key[0]].schedule_at(key[1], t1)
            line += f"   (true cycle {gt.cycle_s:.1f}s)"
        print(line)
    if report is not None:
        report.save(args.report)
        print(f"\nwrote run report to {args.report}")
        print(report.summary())
    return 0


def _cmd_serve_bench(args) -> int:
    import json

    from .obs import RunReport
    from .serve import LoadSpec, run_load

    spec = LoadSpec(
        n_tenants=args.tenants,
        intersections_per_tenant=args.intersections,
        n_chunks=args.chunks,
        evaluates_per_chunk=args.evaluates_per_chunk,
        queue_depth=args.queue_depth,
        seed=args.seed,
    )
    print(f"loading {spec.n_tenants} tenants x {spec.n_chunks} chunks "
          f"({2 * spec.intersections_per_tenant} lights each, "
          f"{spec.evaluates_per_chunk} advisory queries per version) ...")
    report = RunReport() if args.report else None
    result = run_load(spec, report=report)
    print(result.summary())

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    if report is not None:
        report.save(args.report)
        print(f"wrote run report to {args.report}")

    failed = []
    if result.isolation_violations:
        failed.append(f"{result.isolation_violations} isolation violation(s)")
    if result.evaluate_p50_s > args.p50_slo_ms / 1e3:
        failed.append(
            f"p50 {1e3 * result.evaluate_p50_s:.3f} ms > "
            f"{args.p50_slo_ms:g} ms SLO"
        )
    if result.evaluate_p99_s > args.p99_slo_ms / 1e3:
        failed.append(
            f"p99 {1e3 * result.evaluate_p99_s:.3f} ms > "
            f"{args.p99_slo_ms:g} ms SLO"
        )
    if failed:
        print("SLO FAILED: " + "; ".join(failed))
        return 1
    print("SLOs met")
    return 0


def _cmd_frontier(args) -> int:
    import json

    from .eval import FrontierSpec, run_frontier

    kwargs = {}
    if args.alphas:
        kwargs["alphas"] = tuple(args.alphas)
    if args.backends:
        kwargs["backends"] = tuple(args.backends)
    spec = FrontierSpec(
        kind=args.kind,
        n_intersections=args.intersections,
        horizon_s=args.horizon,
        seed=args.seed,
        **kwargs,
    )
    print(f"sweeping alpha over {list(spec.alphas)} "
          f"({spec.n_intersections} intersections, kind={spec.kind}, "
          f"{spec.horizon_s / 3600.0:g} h horizon) ...")
    result = run_frontier(spec)
    print(result.summary())

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        print(f"wrote {args.json}")

    failed = []
    if result.fixed_plan_bitwise_match is False:
        failed.append("alpha=0 diverged bit-for-bit from the fixed-plan pipeline")
    mismatches = sum(p.backend_mismatches for p in result.points)
    if mismatches:
        failed.append(f"{mismatches} cross-backend mismatch(es)")
    if failed:
        print("FRONTIER FAILED: " + "; ".join(failed))
        return 1
    return 0


def _cmd_navigate(args) -> int:
    from .navigation import NavScenario, run_navigation_experiment

    buckets = run_navigation_experiment(
        NavScenario(n_cols=args.cols, n_rows=args.rows),
        trips_per_distance=args.trips,
        seed=args.seed,
    )
    print("distance   trips   baseline    light-aware   saving")
    for b in buckets:
        print("  " + b.row())
    overall = float(np.average(
        [b.saving_fraction for b in buckets],
        weights=[b.n_trips for b in buckets],
    ))
    print(f"overall saving: {100 * overall:.1f}%  (paper: ~15%)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "stats": _cmd_stats,
        "identify": _cmd_identify,
        "evaluate": _cmd_evaluate,
        "monitor": _cmd_monitor,
        "stream": _cmd_stream,
        "serve-bench": _cmd_serve_bench,
        "frontier": _cmd_frontier,
        "navigate": _cmd_navigate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
