"""live_serve: several city tenants on one StreamService, driven open loop.

Each tenant is one city of several districts.  It starts from one hour
of history packed into its store (identified once, untimed, before the
timed phase), then receives its districts' uploads in turn on a fixed
wall-clock schedule; the tenants' schedules are staggered evenly.  An
upload carries one district's reports since that district's previous
upload, so a chunk dirties a fixed share of the city, and the accuracy
metrics still average over every light of every tenant.  Ten per cent
of each upload's rows arrive one upload late (with the district's next
one), so appends splice rows in behind data already ingested.  Advisory
reads are due at a fixed rate, round robin over tenants and lights;
each is ``service.evaluate`` plus ``schedule.next_change`` for one
light.  The offered chunk rate is a constant of the workload, chosen so
the service's one apply thread is busy well under half the time.

After the timed phase every tenant's backlog of burst chunks is
submitted in twenty rounds, each as fast as backpressure admits it and
drained before the next; the drain rate is the median over the rounds
of a round's chunks over the time from its first submission to its
last publication.

Chunk latencies are scaled to the host's nominal speed by reference
points taken in the timed phase itself: one short point just before a
chunk is due, whenever every chunk submitted so far has been published
(so the apply thread is idle), and each latency by the median of the
points within ``LOCAL_S`` of its due time.  The host's slow spells come
and go within seconds, and points taken only before and after the
phase let one spell at either end scale every chunk of it.

Every latency is measured from when the operation was due, so a late
generator or a starved event loop shows up in the latency, and the
generator's own lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import math
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import identify_many
from repro.core import batch as batch_mod
from repro.lights.schedule import LightSchedule
from repro.obs import RunReport
from repro.scenario import synthetic_lights
from repro.serve import StreamService
from repro.serve.errors import ServeError
from repro.serve.load import verify_snapshot_parity
from repro.serve.tenant import Tenant
from repro.stream.chunking import subset_partition
from repro.stream.session import StreamSession
from repro.trace.store import PartitionStore

from common import Tally, mean, median, quantile, unpack_partitions
from hostspeed import HostSpeed
from offline import stage_metrics
from tracing import Tracer

SIZES: Dict[str, Dict[str, Any]] = {
    # rate: chunks/s per tenant; reads: reads/s over the whole service;
    # burst: backlog chunks per tenant.
    "full": {
        "tenants": 8, "intersections": 32, "districts": 16,
        "rate": 1.0, "reads": 250.0, "burst": 40,
    },
    "tiny": {
        "tenants": 2, "intersections": 2, "districts": 2,
        "rate": 5.0, "reads": 100.0, "burst": 20,
    },
}
HISTORY_S = 3600.0
#: Data time one chunk step advances; a district's upload spans
#: ``districts`` steps.
STEP_DATA_S = 30.0
LATE_SHARE = 0.1
#: The burst's backlog is submitted in this many rounds, each drained
#: before the next and scaled by the points on either side of it; the
#: drain rate is their median.
BURST_ROUNDS = 20
#: A timed-phase reference point is taken this long before a chunk is
#: due, so that it ends before the submission.
POINT_LEAD_S = 0.01
#: Chunk latencies are scaled by the median of the points this close to
#: their due time.
LOCAL_S = 0.5
#: Share of ``--seconds`` the timed phase lasts; the burst takes the rest.
TIMED_SHARE = 0.7
#: The timed phase publishes at least this many chunks, so fresh_p90 has
#: ten samples beyond it.
MIN_TIMED_CHUNKS = 100
#: GIL switch interval while the service runs.  At CPython's default
#: (5 ms) a read that lands while the apply thread holds the GIL waits up
#: to 5 ms, and only 1-2 % of reads do, so the read tail sat on the edge
#: between the fast reads and the GIL waits and read 1.7 or 3.7 ms from
#: one identical run to the next.  At 1 ms a GIL hold still shows in the
#: tail without deciding it.
SWITCH_INTERVAL_S = 0.001


def plan(size: str, seconds: float) -> Tuple[Dict[str, Any], int]:
    """The size's parameters and the number of timed chunks per tenant."""
    cfg = SIZES[size]
    floor = math.ceil(MIN_TIMED_CHUNKS / cfg["tenants"]) if size == "full" else 2
    return cfg, max(floor, round(cfg["rate"] * TIMED_SHARE * seconds))


def tenant_lights(seed: int, cfg: Dict[str, Any]) -> List[List[Any]]:
    """One synthetic city cut into tenants of ``intersections`` each.

    Tenants get distinct intersections, so one run spans the whole
    spread of cycle lengths the generator draws.
    """
    per = cfg["intersections"]
    lights = synthetic_lights(cfg["tenants"] * per, seed=seed)
    return [[lt for lt in lights if lt.intersection_id // per == i] for i in range(cfg["tenants"])]


def at_time(k: int) -> float:
    """Evaluation time of upload ``k``: the end of the data it can carry."""
    return HISTORY_S + (k + 1) * STEP_DATA_S


def generate(seed: int, size: str, seconds: float) -> Dict[str, np.ndarray]:
    from repro.scenario import synthetic_partitions

    from common import pack_partitions

    cfg, n_timed = plan(size, seconds)
    horizon = at_time(n_timed + cfg["burst"])
    arrays: Dict[str, np.ndarray] = {}
    for i, lights in enumerate(tenant_lights(seed, cfg)):
        parts = synthetic_partitions(lights, 0.0, horizon, seed=seed * 100 + i)
        arrays.update(pack_partitions(parts, f"t{i}"))
    return arrays


def _uploads(
    parts: Dict[Any, Any], n_chunks: int, districts: int, rng: np.random.Generator
) -> Tuple[List[Dict[Any, Any]], Dict[Any, Any]]:
    """The chunk submissions and, per light, every row they deliver with the history.

    Upload ``k`` belongs to district ``k % districts`` and carries that
    district's rows since its previous upload, minus a late share that
    moves on to the district's next upload.
    """
    iids = sorted({key[0] for key in parts})
    per = math.ceil(len(iids) / districts)
    rows: List[Dict[Any, np.ndarray]] = [{} for _ in range(n_chunks)]
    delivered: Dict[Any, List[np.ndarray]] = {}
    for key in sorted(parts):
        t = parts[key].trace.t
        district = iids.index(key[0]) // per
        delivered[key] = [np.flatnonzero(t < HISTORY_S)]
        for k in range(district, n_chunks, districts):
            lo = HISTORY_S + max(0, k - districts + 1) * STEP_DATA_S
            idx = np.flatnonzero((t >= lo) & (t < at_time(k)))
            late = rng.random(idx.size) < LATE_SHARE
            if k + districts >= n_chunks:
                late[:] = False
            fresh = np.concatenate([rows[k].get(key, np.empty(0, np.int64)), idx[~late]])
            rows[k][key] = fresh
            delivered[key].append(fresh)
            if late.any():
                rows[k + districts][key] = idx[late]
    uploads = [
        {key: subset_partition(parts[key], np.sort(r)) for key, r in sorted(chunk.items()) if r.size}
        for chunk in rows
    ]
    final = {
        key: subset_partition(parts[key], np.sort(np.concatenate(idx)))
        for key, idx in delivered.items()
    }
    return uploads, final


@contextmanager
def _one_cpu() -> Iterator[None]:
    """Run the event loop and the service's apply thread on one CPU.

    The two threads hand the GIL back and forth, so they never run
    Python at the same time anyway.  Left to the scheduler, about a
    third of otherwise identical runs had ``fresh_p50_s`` some 45 %
    higher; on one CPU each hand-over is a plain context switch.
    Threads inherit their creator's CPU mask, so the apply thread,
    created by the first apply, stays on this CPU too.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Workload:
    def __init__(
        self, arrays: Dict[str, np.ndarray], seed: int, size: str, tracer: Optional[Tracer] = None
    ) -> None:
        self.seed = seed
        self.size = size
        self.cfg = SIZES[size]
        self.names = [f"city-{i:02d}" for i in range(self.cfg["tenants"])]
        self.parts = {
            name: unpack_partitions(arrays, f"t{i}") for i, name in enumerate(self.names)
        }
        self.history = {
            name: {k: p.time_window(0.0, HISTORY_S) for k, p in parts.items()}
            for name, parts in self.parts.items()
        }
        self.loop = asyncio.new_event_loop()
        self.service = self.loop.run_until_complete(self._build())
        self.service_open = True
        self.notes: Dict[str, Any] = {}

    async def _build(self, report: Optional[RunReport] = None) -> StreamService:
        service = StreamService(report=report)
        for name in self.names:
            service.add_tenant(name, store=self.history[name])
        return service

    def warm_up(self) -> None:
        history = self.history[self.names[0]]
        key = sorted(history)[0]
        identify_many({key: history[key]}, HISTORY_S, backend="batched")

    def _run(self, chunks: Dict[str, List[Dict[Any, Any]]]) -> Dict[str, Any]:
        """Drive the current service at the benchmark's GIL switch interval."""
        default = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            with _one_cpu():
                return self.loop.run_until_complete(self._drive(self.service, chunks))
        finally:
            sys.setswitchinterval(default)

    def _close_service(self) -> None:
        if self.service_open:
            self.service_open = False
            self.loop.run_until_complete(self.service.close())

    def close(self) -> None:
        self._close_service()
        self.loop.close()

    # ------------------------------------------------------------------
    def _prepare(self, seconds: float) -> Dict[str, List[Dict[Any, Any]]]:
        _, n_timed = plan(self.size, seconds)
        self.n_timed = n_timed
        chunks = {}
        self.delivered = {}
        for i, name in enumerate(self.names):
            rng = np.random.default_rng([self.seed, i, 0x1A7E])
            chunks[name], self.delivered[name] = _uploads(
                self.parts[name], n_timed + self.cfg["burst"], self.cfg["districts"], rng
            )
        return chunks

    async def _drive(
        self, service: StreamService, chunks: Dict[str, List[Dict[Any, Any]]]
    ) -> Dict[str, Any]:
        """Prime, run the timed phase, then the burst; return the raw samples.

        Submission ``j`` of a tenant publishes version ``j + 1``: the
        priming chunk is ``j = 0``, upload ``k`` is ``j = k + 1``.
        """
        clock = time.perf_counter
        cfg, n_timed, names = self.cfg, self.n_timed, self.names
        n_total = 1 + len(chunks[names[0]])
        tenants: Dict[str, Tenant] = {name: service.tenant(name) for name in names}
        keys = {name: sorted(self.parts[name]) for name in names}
        published: Dict[str, List[float]] = {name: [math.nan] * n_total for name in names}
        snaps: Dict[str, List[Any]] = {name: [] for name in names}
        problems: List[str] = []
        late: List[float] = []
        reads: List[float] = []
        reached = {name: asyncio.Event() for name in names}
        host = HostSpeed()
        goal = {"version": 1}

        async def watch(name: str) -> None:
            version = 0
            while version < n_total:
                try:
                    snap = await tenants[name].evaluate(min_version=version + 1)
                except ServeError as exc:
                    problems.append(f"{name}: writer stopped: {exc!r}")
                    reached[name].set()
                    return
                now = clock()
                for j in range(version, snap.version):
                    published[name][j] = now
                if snap.version > version + 1:
                    self.notes["skipped_versions"] = self.notes.get("skipped_versions", 0) + 1
                snaps[name].append(snap)
                version = snap.version
                if version >= goal["version"]:
                    reached[name].set()

        async def wait_all(version: int) -> None:
            goal["version"] = version
            for name in names:
                if math.isnan(published[name][version - 1]):
                    reached[name].clear()
                    await reached[name].wait()

        watchers = [asyncio.ensure_future(watch(name)) for name in names]
        # Priming: identify every tenant's history once, before any timing.
        for name in names:
            await service.submit(name, {}, at_time=HISTORY_S)
        await wait_all(1)
        # Host-speed points are taken only while the service is idle: a
        # reference run beside a busy service competes with its apply
        # thread for the GIL and measures that instead.
        before = host.sample()

        period = 1.0 / cfg["rate"]
        points: List[Tuple[float, float]] = []
        submitted: List[Tuple[str, int]] = []
        last_seen = {name: 0 for name in names}
        stale_torn: List[str] = []
        submits: List["asyncio.Future[None]"] = []

        def idle() -> bool:
            return all(not math.isnan(published[n][k + 1]) for n, k in submitted)

        async def feed(schedule: List[Tuple[float, str, int]]) -> None:
            for when, name, k in schedule:
                delay = when - POINT_LEAD_S - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                if idle():
                    points.append((when, host.sample(samples=1)))
                delay = when - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(clock() - when)
                submitted.append((name, k))
                submits.append(asyncio.ensure_future(
                    service.submit(name, chunks[name][k], at_time=at_time(k))
                ))

        async def read(start: float, done: asyncio.Event) -> None:
            j = 0
            while not done.is_set():
                when = start + j / cfg["reads"]
                delay = when - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                name = names[j % len(names)]
                snap = await service.evaluate(name)
                est = snap.estimates.get(keys[name][(j // len(names)) % len(keys[name])])
                if est is not None:
                    est.schedule.next_change(snap.at_time)
                reads.append(clock() - when)
                if snap.version < last_seen[name] or snap.integrity_errors():
                    stale_torn.append(f"{name}: stale or torn read at version {snap.version}")
                last_seen[name] = max(last_seen[name], snap.version)
                j += 1

        start = clock() + 0.05
        due = {
            (name, k): start + k * period + i * period / len(names)
            for i, name in enumerate(names)
            for k in range(n_timed)
        }
        done = asyncio.Event()
        reader = asyncio.ensure_future(read(start, done))
        await feed(sorted((when, name, k) for (name, k), when in due.items()))
        await wait_all(1 + n_timed)
        done.set()
        await reader
        after = host.sample()

        def local_point(when: float) -> float:
            near = [p for t, p in points if abs(t - when) <= LOCAL_S]
            return median(near) if near else (before + after) / 2

        fresh = [
            HostSpeed.scale(published[name][k + 1] - when, local_point(when))
            for (name, k), when in sorted(due.items())
        ]

        async def backlog(name: str, ks: range) -> None:
            for k in ks:
                await service.submit(name, chunks[name][k], at_time=at_time(k))

        # The burst: rounds of backlog, each timed from its first
        # submission to its last publication and scaled by the points
        # taken before and after it.
        per_round = cfg["burst"] // BURST_ROUNDS
        bursts: List[Tuple[float, int, int]] = []
        for r in range(BURST_ROUNDS):
            ks = range(n_timed + r * per_round, n_timed + (r + 1) * per_round)
            t0 = clock()
            submits += [asyncio.ensure_future(backlog(name, ks)) for name in names]
            await wait_all(1 + ks.stop)
            before, after = after, host.sample()
            bursts.append((
                HostSpeed.scale(
                    max(published[name][ks.stop] for name in names) - t0, (before + after) / 2
                ),
                len(names) * len(ks),
                sum(len(p) for name in names for k in ks for p in chunks[name][k].values()),
            ))
        for outcome in await asyncio.gather(*submits, return_exceptions=True):
            if isinstance(outcome, BaseException):
                problems.append(f"submit failed: {outcome!r}")
        await asyncio.gather(*watchers)

        return {
            "fresh": fresh,
            "host_point_s": median(host.points),
            "timed_points": len(points),
            "reads": reads,
            "late": late,
            "bursts": bursts,
            "snaps": snaps,
            "problems": problems + stale_torn,
            "submitted": len(names) * n_total,
        }

    # ------------------------------------------------------------------
    def _score(self, run: Dict[str, Any], tally: Tally) -> None:
        for name, lights in zip(self.names, tenant_lights(self.seed, self.cfg)):
            truth = {lt.key: lt for lt in lights}
            crashed: Dict[Any, Any] = {}
            for snap in run["snaps"][name]:
                for key in sorted(truth):
                    est = snap.estimates.get(key)
                    t = snap.eval_times.get(key)
                    tally.score(est, LightSchedule(*truth[key].params_at(t)) if est else None)
                crashed.update(snap.failures)
            tally.problems.extend(tally.crash_failures(crashed, name))

    def _gate(self, service: StreamService) -> Tuple[int, List[str]]:
        """Final snapshots re-derive bit for bit from a fresh batched run."""
        checked, problems = 0, []
        for name in self.names:
            snap = service.snapshot(name)
            checked += len(snap.eval_times)
            problems += [
                f"{name}: {m}" for m in verify_snapshot_parity(snap, self.delivered[name])
            ]
            problems += [f"{name}: {m}" for m in snap.integrity_errors()]
        for stats in service.stats():
            if stats.n_dropped_chunks or stats.n_rejected_ingest:
                problems.append(
                    f"{stats.tenant}: {stats.n_dropped_chunks} chunks dropped, "
                    f"{stats.n_rejected_ingest} rejected"
                )
        return checked, problems

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        chunks = self._prepare(seconds)
        run = self._run(chunks)
        self._close_service()
        tally = Tally()
        self._score(run, tally)
        tally.operations(run["submitted"] + len(run["reads"]), run["problems"])
        tally.operations(*self._gate(self.service))
        self.notes["loadgen_late_p90_s"] = quantile(run["late"], 0.9)
        self.notes["timed_chunks"] = len(run["fresh"])
        self.notes["reads"] = len(run["reads"])
        self.notes["host_point_s"] = run["host_point_s"]
        self.notes["timed_points"] = run["timed_points"]
        metrics = {
            "records_per_s": median([records / wall for wall, _, records in run["bursts"]]),
            "fresh_p50_s": median(run["fresh"]),
            "fresh_p90_s": quantile(run["fresh"], 0.9),
            "read_p50_s": median(run["reads"]),
            "read_p90_s": quantile(run["reads"], 0.9),
            "drain_chunks_per_s": median([n / wall for wall, n, _ in run["bursts"]]),
        }
        metrics.update(tally.metrics())
        return metrics, tally

    # -- traced run ----------------------------------------------------
    def measure_traced(self, seconds: float, tracer: Tracer) -> Dict[str, float]:
        """An untraced drive on the set-up service, then a traced one on a fresh service."""
        chunks = self._prepare(seconds)
        plain = self._run(chunks)
        self._close_service()

        report = RunReport()
        session_names: Dict[int, str] = {}
        tracer.wrap(PartitionStore, "from_partitions", "store.build")
        tracer.wrap(Tenant, "submit", "serve.submit", sid=lambda a, k: (a[0].name, k["at_time"]))
        tracer.wrap(
            StreamSession, "ingest", "stream.ingest",
            sid=lambda a, k: (session_names.get(id(a[0])), k["at_time"]),
        )
        tracer.wrap(batch_mod, "identify_batch", "identify")
        try:
            self.service = self.loop.run_until_complete(self._build(report))
            self.service_open = True
            sessions = []
            for name in self.names:
                session = self.service.tenant(name).session
                session.report = RunReport()
                session_names[id(session)] = name
                sessions.append(session)
            traced = self._run(chunks)
            self._close_service()
        finally:
            tracer.restore()

        chunk_stats = [c for s in sessions for c in s.report.chunks]
        n = len(chunk_stats)
        merged = RunReport()
        for s in sessions:
            merged.telemetry.merge(s.report.telemetry)
            merged.n_failed += s.report.n_failed
        submitted = {s["id"]: s["end"] for s in tracer.named("serve.submit")}
        waits = [
            s["start"] - submitted[s["id"]]
            for s in tracer.named("stream.ingest")
            if s["id"] in submitted
        ]
        services = report.services
        identify_busy = tracer.busy("identify") / n
        out = {
            "store.build_s": tracer.busy("store.build", root_only=True),
            "store.bytes": float(sum(s.store.columns_nbytes for s in sessions)),
            "identify.busy_s": identify_busy,
            "stream.ingest_s": mean([c.wall_s for c in chunk_stats]),
            "stream.dirty": mean([c.n_dirty for c in chunk_stats]),
            "stream.refreshed": mean([c.n_refreshed for c in chunk_stats]),
            "stream.refreshed_per_dirty": (
                sum(c.n_refreshed for c in chunk_stats) / max(1, sum(c.n_dirty for c in chunk_stats))
            ),
            "serve.apply_s": sum(s.ingest_wall_s for s in services) / sum(s.n_chunks for s in services),
            "serve.queue_wait_s": mean(waits),
            "serve.read_p99_s": quantile(traced["reads"], 0.99),
            "serve.queue_high_water": float(max(s.queue_high_water for s in services)),
            "serve.rejected": float(sum(s.n_rejected_ingest + s.n_rejected_evaluate for s in services)),
            "loadgen.late_p90_s": quantile(traced["late"], 0.9),
            "trace.overhead_s": sum(b[0] for b in traced["bursts"]) - sum(b[0] for b in plain["bursts"]),
        }
        out.update(stage_metrics(merged, n, identify_busy))
        return out
