"""Backend parity: serial (the oracle), batched and shard identification.

The batched backend (``repro.core.batch``) re-implements the per-light
pipeline as whole-city array kernels.  Its contract is not "close": the
estimate maps must match the serial reference **bit-for-bit** and the
failure maps must carry the same keys, stages, and exception types —
including when a slice of the city is poisoned.  These tests pin that
contract on the seeded test city and on a ~10%-corrupted variant.
"""

import numpy as np
import pytest

from repro.core import PipelineConfig, identify_many
from repro.matching.partition import LightPartition
from repro.obs import RunReport
from repro.trace.store import PartitionStore

from tests.test_faults import synth_partition


def _est_tuple(est):
    """The numbers parity is asserted on, per estimate."""
    return (
        est.cycle_s,
        est.red_s,
        est.green_s,
        est.schedule.offset_s,
        est.change.red_to_green_s,
        est.change.green_to_red_s,
    )


def _assert_parity(ref, other, what):
    e_ref, f_ref = ref
    e_oth, f_oth = other
    assert sorted(e_oth) == sorted(e_ref), f"{what}: estimate keys differ"
    assert sorted(f_oth) == sorted(f_ref), f"{what}: failure keys differ"
    for key in e_ref:
        assert _est_tuple(e_oth[key]) == _est_tuple(e_ref[key]), (
            f"{what}: estimate for {key} differs"
        )
    for key in f_ref:
        assert f_oth[key].stage == f_ref[key].stage, key
        assert f_oth[key].error_type == f_ref[key].error_type, key
        assert f_oth[key].message == f_ref[key].message, key


def _poisoned_city(partitions):
    """The 8-light seeded city plus 2 synthetic lights, 1 in 10 corrupt."""
    city = dict(partitions)
    healthy = synth_partition(seed=3, iid=100)
    dead = synth_partition(speed=0.0, iid=101)  # flat signal: expected failure
    city[healthy.key] = healthy
    city[dead.key] = dead
    bad_key = sorted(partitions)[0]
    p = city[bad_key]
    city[bad_key] = LightPartition(
        p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
    )
    return city, bad_key, dead.key


class TestBackendParity:
    def test_batched_matches_serial_bitwise(self, partitions):
        ref = identify_many(partitions, 5400.0, backend="serial")
        out = identify_many(partitions, 5400.0, backend="batched")
        assert len(ref[0]) > 0, "fixture city must identify some lights"
        _assert_parity(ref, out, "batched")
        # no backend named and no pool asked for: the batched kernels
        report = RunReport()
        _assert_parity(ref, identify_many(partitions, 5400.0, report=report), "default")
        assert report.shards == []

    def test_batched_accepts_store_or_dict(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        from_dict = identify_many(partitions, 5400.0, backend="batched")
        from_store = identify_many(store, 5400.0, backend="batched")
        _assert_parity(from_dict, from_store, "store-backed batched")

    def test_shard_matches_serial_bitwise(self, partitions):
        ref = identify_many(partitions, 5400.0, backend="serial")
        out = identify_many(partitions, 5400.0, backend="shard", max_workers=1)
        _assert_parity(ref, out, "shard")

    def test_shard_accepts_store_or_dict(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        from_dict = identify_many(
            partitions, 5400.0, backend="shard", max_workers=1
        )
        from_store = identify_many(store, 5400.0, backend="shard", max_workers=1)
        _assert_parity(from_dict, from_store, "store-backed shard")

    @pytest.mark.slow
    def test_shard_pool_matches_serial(self, partitions):
        ref = identify_many(partitions, 5400.0, backend="serial")
        out = identify_many(partitions, 5400.0, backend="shard", max_workers=2)
        _assert_parity(ref, out, "shard@2w")
        # no backend named but a pool asked for: the shard backend
        report = RunReport()
        out = identify_many(partitions, 5400.0, max_workers=2, report=report)
        _assert_parity(ref, out, "default@2w")
        assert report.shards

    def test_unknown_backend_rejected(self, partitions):
        # "process" names the deleted per-light pool backend
        for name in ("gpu", "process"):
            with pytest.raises(ValueError, match="'serial', 'batched', 'stream', 'shard'"):
                identify_many(partitions, 5400.0, backend=name)


class TestPoisonedCityParity:
    def test_poisoned_city_all_backends(self, partitions):
        city, bad_key, dead_key = _poisoned_city(partitions)
        ref = identify_many(city, 5400.0, backend="serial")
        assert bad_key in ref[1], "corrupt partition must fail"
        assert ref[1][bad_key].error_type == "ValueError"
        assert ref[1][bad_key].stage == "samples"

        out = identify_many(city, 5400.0, backend="batched")
        _assert_parity(ref, out, "batched/poisoned")
        # containment: the poison costs exactly the poisoned lights
        assert len(out[0]) + len(out[1]) == len(city)

        out_shard = identify_many(city, 5400.0, backend="shard", max_workers=1)
        _assert_parity(ref, out_shard, "shard/poisoned")
        assert len(out_shard[0]) + len(out_shard[1]) == len(city)

    @pytest.mark.slow
    def test_poisoned_city_shard_pool(self, partitions):
        city, _bad_key, _dead_key = _poisoned_city(partitions)
        ref = identify_many(city, 5400.0, backend="serial")
        out = identify_many(city, 5400.0, backend="shard", max_workers=2)
        _assert_parity(ref, out, "shard@2w/poisoned")


class TestStoreReuse:
    def test_store_reused_across_time_spots(self, partitions):
        """One store across spots: cached grids must not change results."""
        store = PartitionStore.from_partitions(partitions)
        times = (4500.0, 5400.0, 5400.0)  # repeated spot hits the cache
        for at in times:
            ref = identify_many(partitions, at, backend="serial")
            out = identify_many(store, at, backend="batched")
            _assert_parity(ref, out, f"store reuse at t={at}")
        assert len(store.cache) > 0, "repeated spots should populate the cache"

    def test_store_roundtrip_partitions(self, partitions):
        store = PartitionStore.from_partitions(partitions)
        assert sorted(store) == sorted(partitions)
        assert store.n_records == sum(len(p.trace) for p in partitions.values())
        for key, p in partitions.items():
            q = store.partition(key)
            np.testing.assert_array_equal(q.trace.t, p.trace.t)
            np.testing.assert_array_equal(q.trace.speed_kmh, p.trace.speed_kmh)
            np.testing.assert_array_equal(
                q.dist_to_stopline_m, p.dist_to_stopline_m
            )

    def test_irregular_partition_quarantined(self, partitions):
        city, bad_key, _ = _poisoned_city(partitions)
        store = PartitionStore.from_partitions(city)
        assert not store.is_regular(bad_key)
        assert store.is_regular(sorted(partitions)[1])
        # the corrupt object comes back as-is, not silently re-packed
        assert store.partition(bad_key) is city[bad_key]
        # and its neighbours' rows are uncorrupted
        good = sorted(partitions)[1]
        np.testing.assert_array_equal(
            store.partition(good).trace.t, city[good].trace.t
        )

    def test_store_pickles_for_process_backend(self, partitions):
        import pickle

        store = PartitionStore.from_partitions(partitions)
        clone = pickle.loads(pickle.dumps(store))
        assert sorted(clone) == sorted(store)
        key = sorted(store)[0]
        np.testing.assert_array_equal(
            clone.partition(key).trace.t, store.partition(key).trace.t
        )


@pytest.fixture(scope="module")
def adaptive_city():
    """Demand-responsive synthetic city (gap controllers, alpha=0.6) —
    the scenario the frontier eval sweeps, pinned here at one point."""
    from repro.scenario import adaptive_synthetic_lights, synthetic_partitions

    lights = adaptive_synthetic_lights(3, alpha=0.6, kind="gap", seed=5)
    return synthetic_partitions(lights, 0.0, 5400.0, seed=5)


class TestAdaptiveTraceParity:
    """Backends must stay bit-for-bit identical on adaptive traces: the
    kernels see ordinary columns, so demand-responsive data is no excuse
    for divergence."""

    def test_batched_matches_serial_bitwise(self, adaptive_city):
        ref = identify_many(adaptive_city, 5400.0, backend="serial")
        out = identify_many(adaptive_city, 5400.0, backend="batched")
        assert len(ref[0]) > 0, "adaptive city must identify some lights"
        _assert_parity(ref, out, "batched/adaptive")

    def test_shard_matches_serial_bitwise(self, adaptive_city):
        ref = identify_many(adaptive_city, 5400.0, backend="serial")
        out = identify_many(adaptive_city, 5400.0, backend="shard", max_workers=1)
        _assert_parity(ref, out, "shard/adaptive")

    @pytest.mark.slow
    def test_shard_pool_matches_serial(self, adaptive_city):
        ref = identify_many(adaptive_city, 5400.0, backend="serial")
        out = identify_many(adaptive_city, 5400.0, backend="shard", max_workers=2)
        _assert_parity(ref, out, "shard@2w/adaptive")
