"""Unit tests for the evaluation harness (§VIII.A)."""

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.signal_types import (
    ChangePointEstimate,
    CycleEstimate,
    RedEstimate,
    ScheduleEstimate,
)
from repro.eval.cdf import cdf_at, empirical_cdf, fraction_within, summarize_errors
from repro.eval.errors import compare
from repro.eval.harness import evaluate_at_times
from repro.lights.schedule import LightSchedule


def make_estimate(cycle=98.0, red=39.0, offset=10.0):
    sched = LightSchedule(cycle, red, offset)
    return ScheduleEstimate(
        intersection_id=0,
        approach="NS",
        at_time=1800.0,
        schedule=sched,
        cycle=CycleEstimate(cycle, 18, 100.0, 5.0, 200),
        red=RedEstimate(red, 2, np.arange(6) * 20.0, np.ones(5), 50, 3),
        change=ChangePointEstimate(offset % cycle, (offset + red) % cycle,
                                   np.zeros(98), np.zeros(98)),
    )


class TestCompare:
    def test_exact_match_zero_errors(self):
        truth = LightSchedule(98.0, 39.0, 10.0)
        err = compare(make_estimate(), truth)
        assert err.cycle_s == 0.0 and err.red_s == 0.0 and err.change_s == pytest.approx(0.0)
        assert err.within(0.1)

    def test_cycle_and_red_errors_signed(self):
        truth = LightSchedule(100.0, 42.0, 10.0)
        err = compare(make_estimate(cycle=98.0, red=39.0), truth)
        assert err.cycle_s == pytest.approx(-2.0)
        assert err.red_s == pytest.approx(-3.0)

    def test_change_error_is_circular(self):
        # estimate's red->green at 49; truth's at 49 + 96 ≡ 47 (mod 98)
        truth = LightSchedule(98.0, 39.0, 10.0 + 96.0)
        err = compare(make_estimate(), truth)
        assert abs(err.change_s) == pytest.approx(2.0)

    def test_offset_whole_cycles_ignored(self):
        truth = LightSchedule(98.0, 39.0, 10.0 + 3 * 98.0)
        err = compare(make_estimate(), truth)
        assert err.change_s == pytest.approx(0.0)

    def test_row_and_max_abs(self):
        truth = LightSchedule(98.0, 45.0, 10.0)
        err = compare(make_estimate(), truth)
        assert err.max_abs == pytest.approx(6.0)
        assert "dRed" in err.row()


class TestCDF:
    def test_empirical_cdf(self):
        x, f = empirical_cdf([3.0, 1.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(f, [1 / 3, 2 / 3, 1.0])

    def test_nans_dropped(self):
        x, _ = empirical_cdf([1.0, np.nan])
        assert x.size == 1

    def test_fraction_within(self):
        assert fraction_within([1.0, -2.0, 5.0, np.nan], 2.0) == pytest.approx(0.5)

    def test_cdf_at(self):
        out = cdf_at([-1.0, 2.0, 3.0], [0.0, 2.5, 10.0])
        np.testing.assert_allclose(out, [0.0, 2 / 3, 1.0])

    def test_summarize(self):
        s = summarize_errors([1.0, 2.0, 30.0], "cycle")
        assert "cycle" in s and "median" in s
        assert summarize_errors([], "none") == "none: no data"


class TestEvaluateAtTimes:
    def test_full_sweep(self, partitions, city):
        def truth_fn(iid, app, t):
            return city.truth_at(iid, app, t)

        res = evaluate_at_times(partitions, truth_fn, [3600.0, 5400.0], backend="serial")
        assert len(res) == 2 * len(partitions)
        assert res.n_failures < len(res)
        assert res.cycle_errors.shape == (len(res),)
        ok = res.cycle_errors[~np.isnan(res.cycle_errors)]
        assert np.median(np.abs(ok)) < 5.0

    def test_for_key_filter(self, partitions, city):
        def truth_fn(iid, app, t):
            return city.truth_at(iid, app, t)

        res = evaluate_at_times(partitions, truth_fn, [5400.0], backend="serial")
        key = next(iter(sorted(partitions)))
        sub = res.for_key(key)
        assert all(s.key == key for s in sub.samples)
        assert len(sub) == 1


@pytest.mark.slow
class TestFusedSimulatePath:
    def test_fused_deterministic_across_workers(self):
        from repro.scenario import small_scenario
        from repro.eval import simulate_and_partition

        scn = small_scenario(rate_per_hour=300.0)
        a, _ = simulate_and_partition(scn, 0.0, 900.0, seed=4, serial=True, fused=True)
        b, _ = simulate_and_partition(scn, 0.0, 900.0, seed=4, max_workers=3, fused=True)
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.taxi_id, b.taxi_id)
        np.testing.assert_allclose(a.lon, b.lon)

    def test_fused_produces_usable_partitions(self):
        from repro.scenario import small_scenario
        from repro.eval import simulate_and_partition
        from repro.core import identify_many

        scn = small_scenario(rate_per_hour=400.0)
        trace, parts = simulate_and_partition(
            scn, 0.0, 5400.0, seed=11, serial=True, fused=True
        )
        assert len(trace) > 1000 and len(parts) == 8
        ests, _ = identify_many(parts, 5400.0, backend="serial")
        good = sum(1 for e in ests.values() if abs(e.cycle_s - 98.0) <= 3.0)
        assert good >= 5
