"""Unit tests for arterial coordination analysis."""

import numpy as np
import pytest

from repro.core.coordination import (
    corridor_report,
    progression_bandwidth,
    relative_offset,
)
from repro.lights.schedule import LightSchedule


class TestRelativeOffset:
    def test_zero_for_identical(self):
        a = LightSchedule(100, 40, 10)
        assert relative_offset(a, a) == pytest.approx(0.0)

    def test_signed_shift(self):
        a = LightSchedule(100, 40, 0)
        b = LightSchedule(100, 40, 25)
        assert relative_offset(a, b) == pytest.approx(25.0)
        assert relative_offset(b, a) == pytest.approx(-25.0)

    def test_wraps_circularly(self):
        a = LightSchedule(100, 40, 0)
        b = LightSchedule(100, 40, 90)
        assert relative_offset(a, b) == pytest.approx(-10.0)

    def test_red_difference_included(self):
        # offsets compare *green starts*, not red starts
        a = LightSchedule(100, 40, 0)   # green at 40
        b = LightSchedule(100, 60, 0)   # green at 60
        assert relative_offset(a, b) == pytest.approx(20.0)

    def test_mismatched_cycles_rejected(self):
        with pytest.raises(ValueError):
            relative_offset(LightSchedule(100, 40, 0), LightSchedule(120, 40, 0))


class TestProgressionBandwidth:
    def test_perfect_wave(self):
        # downstream green starts exactly one travel time later
        up = LightSchedule(100, 40, 0)
        down = LightSchedule(100, 40, 30)
        assert progression_bandwidth(up, down, 30.0) == pytest.approx(1.0)

    def test_perfect_antiwave(self):
        # platoon arrives exactly into red
        up = LightSchedule(100, 60, 0)      # green 60..100
        down = LightSchedule(100, 40, 90)   # red 90..130 -> arrivals 90..130
        bw = progression_bandwidth(up, down, 30.0)
        assert bw == pytest.approx(0.0, abs=0.05)

    def test_uncoordinated_average(self):
        # averaged over random offsets, the bandwidth approaches the
        # downstream green fraction
        rng = np.random.default_rng(0)
        up = LightSchedule(100, 40, 0)
        bws = [
            progression_bandwidth(
                up, LightSchedule(100, 40, float(rng.uniform(0, 100))), 37.0
            )
            for _ in range(300)
        ]
        assert np.mean(bws) == pytest.approx(0.6, abs=0.05)

    def test_bounds(self):
        up = LightSchedule(100, 40, 0)
        down = LightSchedule(100, 70, 13)
        bw = progression_bandwidth(up, down, 45.0)
        assert 0.0 <= bw <= 1.0


class TestCorridorReport:
    def test_report_structure(self):
        lights = [LightSchedule(100, 40, 30 * i) for i in range(4)]
        report = corridor_report(lights, [30.0, 30.0, 30.0])
        assert len(report) == 3
        # offsets equal the travel times: a designed green wave
        for link in report:
            assert link.bandwidth == pytest.approx(1.0)
            assert "bandwidth" in link.row()

    def test_mismatched_cycle_gets_nan_offset(self):
        lights = [LightSchedule(100, 40, 0), LightSchedule(130, 40, 0)]
        report = corridor_report(lights, [25.0])
        assert np.isnan(report[0].offset_s)
        assert 0.0 <= report[0].bandwidth <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            corridor_report([LightSchedule(100, 40, 0)], [])
        with pytest.raises(ValueError):
            corridor_report(
                [LightSchedule(100, 40, 0), LightSchedule(100, 40, 0)], [1.0, 2.0]
            )

    def test_identified_vs_truth_consistency(self, city, partitions):
        """Coordination analysis on identified schedules must agree with
        the analysis on ground truth (end-to-end sanity)."""
        from repro.core import identify_many
        ests, _ = identify_many(partitions, 5400.0, backend="serial")
        keys = [(0, "EW"), (1, "EW")]
        if not all(k in ests for k in keys):
            pytest.skip("sparse run: not all corridor lights identified")
        truth = [city.truth_at(k[0], k[1], 5400.0) for k in keys]
        est = [ests[k].schedule for k in keys]
        if any(abs(e.cycle_s - t.cycle_s) > 3 for e, t in zip(est, truth)):
            pytest.skip("cycle not locked in this run")
        bw_truth = progression_bandwidth(truth[0], truth[1], 45.0)
        bw_est = progression_bandwidth(est[0], est[1], 45.0)
        assert bw_est == pytest.approx(bw_truth, abs=0.25)
