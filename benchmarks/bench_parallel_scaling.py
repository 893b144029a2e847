"""Parallel-scaling bench — the paper's "easily paralleled" claim.

The paper notes that after partitioning by nearest traffic light, "the
traffic light scheduling identification algorithm for different traffic
lights can be easily paralleled" — this being ICPP, that claim deserves
a measurement.  Two fan-outs are exercised:

* citywide identification (`identify_many`), serial against the
  ``shard`` backend (the batched kernels sharded over a process pool),
  and
* the fused simulate+sample path (`simulate_and_partition(fused=True)`),
  which keeps the heavyweight 1 Hz tracks inside the workers so only
  ~20x smaller sampled traces cross the process boundary.

What is *asserted* is the part that must hold everywhere: parallel
results are identical to serial ones at any worker count (bit-for-bit
shard kernels, per-task seeded RNG streams).  Pool speedup itself is hardware-dependent — on a
single-core host (like some CI sandboxes) process fan-out can only add
overhead, and the bench reports rather than asserts it.

The batched backend is different: it replaces per-light Python overhead
with whole-city array kernels, so its speedup does **not** depend on
core count.  ``test_batched_backend_speedup`` pins it at ≥ 3x over
serial on a 64-light city — with bit-for-bit identical estimates.
"""

import os
import time

import numpy as np

from conftest import banner
from repro.core import identify_many
from repro.eval import simulate_and_partition
from repro.lights.intersection import SignalPlan, attach_signals_to_network
from repro.network import grid_network
from repro.scenario import shenzhen_scenario
from repro.scenario.small import SmallScenario
from repro.trace.store import PartitionStore


def test_parallel_determinism_and_scaling(benchmark, shenzhen, shenzhen_data):
    _, partitions = shenzhen_data
    times = [10800.0, 12600.0, 14400.0]
    cores = os.cpu_count() or 1

    def run_identify(backend, workers=None):
        t0 = time.perf_counter()
        out = {}
        for at in times:
            ests, _ = identify_many(
                partitions, at, backend=backend, max_workers=workers
            )
            out[at] = {k: (e.cycle_s, e.red_s, e.schedule.offset_s)
                       for k, e in ests.items()}
        return time.perf_counter() - t0, out

    banner(f"Parallel scaling (host has {cores} core(s))")
    t_serial, ref = run_identify("serial")
    print(f"  identify, serial     {t_serial:6.2f} s   1.00x")
    speedups = []
    for workers in (2, 4):
        t_par, out = run_identify("shard", workers)
        assert out == ref, "shard must match serial bit-for-bit"
        speedups.append(t_serial / t_par)
        print(f"  identify, shard @{workers}w {t_par:6.2f} s   {t_serial / t_par:4.2f}x")

    # fused simulate+sample: determinism across worker counts
    scn = shenzhen_scenario()
    t0 = time.perf_counter()
    tr_serial, _ = simulate_and_partition(
        scn, 0.0, 1800.0, seed=5, serial=True, fused=True
    )
    t_fused_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    tr_par, _ = simulate_and_partition(
        scn, 0.0, 1800.0, seed=5, max_workers=4, fused=True
    )
    t_fused_par = time.perf_counter() - t0
    np.testing.assert_array_equal(tr_serial.t, tr_par.t)
    np.testing.assert_array_equal(tr_serial.taxi_id, tr_par.taxi_id)
    np.testing.assert_allclose(tr_serial.lon, tr_par.lon)
    print(f"  fused sim+sample     {t_fused_serial:6.2f} s serial, "
          f"{t_fused_par:6.2f} s @4w — results bitwise identical ✓")

    if cores >= 4:
        # real parallel hardware: the fan-out must actually pay
        assert max(speedups) > 1.3, "multi-core host should see speedup"
    else:
        print("  (single-core host: speedup not expected; determinism is the contract)")

    benchmark.pedantic(run_identify, args=("shard", 2), rounds=1, iterations=1)


def _city64():
    """A 64-light city (8x4 grid, two approaches per intersection)."""
    rng = np.random.default_rng(11)
    net = grid_network(8, 4, 500.0)
    plans = {
        node.id: [
            SignalPlan(
                cycle_s=float(rng.choice([60.0, 90.0, 98.0, 120.0])),
                ns_red_s=39.0,
                offset_s=float(rng.uniform(0.0, 60.0)),
            )
        ]
        for node in net.signalized_intersections()
    }
    signals = attach_signals_to_network(net, plans)
    rates = {seg.id: 400.0 for seg in net.segments}
    return SmallScenario(
        net=net, signals=signals, rate_per_segment=rates, plans=plans
    )


def test_batched_backend_speedup(benchmark):
    """Batched kernels vs the serial and shard backends on 64 lights x 10 spots.

    The batched backend's win is algorithmic (one FFT, one vectorized
    fold-and-scan, one moving-average pass for the whole city), so
    unlike pool scaling it is asserted: >= 3x over serial, with
    bit-for-bit identical estimates and failure keys.
    """
    scn = _city64()
    _trace, partitions = simulate_and_partition(scn, 0.0, 5400.0, seed=11)
    times = [3600.0 + 180.0 * i for i in range(10)]

    def sweep_serial():
        return {at: identify_many(partitions, at, backend="serial") for at in times}

    def sweep_shard():
        return {
            at: identify_many(partitions, at, backend="shard", max_workers=4)
            for at in times
        }

    def sweep_batched():
        store = PartitionStore.from_partitions(partitions)
        return {
            at: identify_many(store, at, backend="batched") for at in times
        }

    banner(f"Backend comparison ({len(partitions)} lights, "
           f"{len(times)} time spots)")
    t0 = time.perf_counter()
    ref = sweep_serial()
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep_shard()
    t_shard = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = sweep_batched()
    t_batched = time.perf_counter() - t0

    print(f"  serial   {t_serial:6.2f} s   1.00x")
    print(f"  shard @4w {t_shard:6.2f} s   {t_serial / t_shard:4.2f}x")
    print(f"  batched  {t_batched:6.2f} s   {t_serial / t_batched:4.2f}x")

    for at in times:
        e_ref, f_ref = ref[at]
        e_out, f_out = out[at]
        assert sorted(e_out) == sorted(e_ref)
        assert sorted(f_out) == sorted(f_ref)
        for k in e_ref:
            assert e_out[k].cycle_s == e_ref[k].cycle_s
            assert e_out[k].red_s == e_ref[k].red_s
            assert e_out[k].green_s == e_ref[k].green_s
    assert t_serial / t_batched >= 3.0, (
        f"batched backend must be >= 3x serial, got {t_serial / t_batched:.2f}x"
    )

    benchmark.pedantic(sweep_batched, rounds=1, iterations=1)
