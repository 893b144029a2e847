"""Integration tests: the full identification pipeline on the test city."""

import numpy as np
import pytest

from repro._util import circular_diff
from repro.core.pipeline import (
    PipelineConfig,
    identify_light,
    identify_many,
    measured_mean_interval,
)
from repro.core.signal_types import InsufficientDataError, ScheduleEstimate
from repro.network.roadnet import Approach


def truth_for(city, key):
    iid, app = key
    plan = city.plans[iid][0]
    return plan.ns_schedule() if app == Approach.NS else plan.ew_schedule()


class TestIdentifyLight:
    def test_returns_complete_estimate(self, partitions, city):
        key = (0, Approach.EW)
        est = identify_light(
            partitions[key], 5400.0, perpendicular=partitions[(0, Approach.NS)]
        )
        assert isinstance(est, ScheduleEstimate)
        assert est.intersection_id == 0 and est.approach == Approach.EW
        assert est.schedule.red_s < est.schedule.cycle_s
        assert est.cycle.n_samples > 0
        assert est.row()

    def test_cycle_accuracy_on_busy_lights(self, partitions, city):
        hits = 0
        for key, p in sorted(partitions.items()):
            iid, app = key
            perp = partitions.get((iid, "EW" if app == "NS" else "NS"))
            est = identify_light(p, 5400.0, perpendicular=perp)
            if abs(est.cycle_s - 98.0) <= 3.0:
                hits += 1
        assert hits >= 6  # at least 6 of the 8 lights lock the cycle

    def test_red_and_change_reasonable_when_locked(self, partitions, city):
        red_errs, chg_errs = [], []
        for key, p in sorted(partitions.items()):
            iid, app = key
            perp = partitions.get((iid, "EW" if app == "NS" else "NS"))
            est = identify_light(p, 5400.0, perpendicular=perp)
            if abs(est.cycle_s - 98.0) > 3.0:
                continue
            gt = truth_for(city, key)
            red_errs.append(abs(est.red_s - gt.red_s))
            chg_errs.append(abs(float(circular_diff(
                est.schedule.offset_s + est.schedule.red_s,
                gt.offset_s + gt.red_s,
                gt.cycle_s,
            ))))
        assert np.median(red_errs) <= 10.0
        assert np.median(chg_errs) <= 6.0

    def test_insufficient_data_raises(self, partitions):
        p = next(iter(partitions.values()))
        empty = p.time_window(0.0, 1.0)
        with pytest.raises(InsufficientDataError):
            identify_light(empty, 5400.0)

    def test_paper_literal_config_runs(self, partitions):
        from repro.core.cycle import CycleConfig
        cfg = PipelineConfig(
            cycle=CycleConfig(n_candidates=1, refine=False, stop_end_weight=0.0),
            fusion_weight=0.0,
            refine_red=False,
        )
        key = (0, Approach.EW)
        est = identify_light(partitions[key], 5400.0, config=cfg)
        assert est.schedule.cycle_s > 0


class TestMeasuredInterval:
    def test_in_plausible_range(self, partitions):
        for p in partitions.values():
            iv = measured_mean_interval(p)
            assert 5.0 <= iv <= 60.0

    def test_fallback_on_empty(self, partitions):
        p = next(iter(partitions.values())).time_window(0.0, 1.0)
        assert measured_mean_interval(p, default_s=20.14) == 20.14


class TestIdentifyMany:
    def test_estimates_for_every_light(self, partitions):
        ests, fails = identify_many(partitions, 5400.0, backend="serial")
        assert len(ests) + len(fails) == len(partitions)
        assert len(ests) >= 6

    @pytest.mark.slow
    def test_parallel_equals_serial(self, partitions):
        serial, _ = identify_many(partitions, 5400.0, backend="serial")
        parallel, _ = identify_many(partitions, 5400.0, max_workers=4)
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key].cycle_s == pytest.approx(parallel[key].cycle_s)
            assert serial[key].red_s == pytest.approx(parallel[key].red_s)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(window_s=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(phase_window_s=-5.0)


class TestNoSharedDefaultConfig:
    """Regression: ``config=PipelineConfig()`` *in the signature* is one
    shared instance for every call — mutating it (even through
    ``object.__setattr__`` on the frozen dataclass) would leak into all
    later calls.  The defaults must be constructed per call.
    """

    def test_signature_defaults_are_none(self):
        import inspect

        from repro.core.cycle import identify_cycle, identify_cycle_from_samples
        from repro.eval.harness import evaluate_at_times, simulate_and_partition

        for fn, name in [
            (identify_light, "config"),
            (identify_many, "config"),
            (identify_cycle, "config"),
            (identify_cycle_from_samples, "config"),
            (evaluate_at_times, "config"),
            (simulate_and_partition, "match_config"),
        ]:
            default = inspect.signature(fn).parameters[name].default
            assert default is None, (
                f"{fn.__name__}({name}=...) must default to None, "
                f"not a shared instance"
            )

    def test_mutated_config_cannot_leak_between_calls(self, partitions):
        key = sorted(partitions)[0]
        ref = identify_many(partitions, 5400.0, backend="serial")

        # a caller passes (and then corrupts) its own config ...
        cfg = PipelineConfig()
        identify_many({key: partitions[key]}, 5400.0, backend="serial", config=cfg)
        object.__setattr__(cfg, "window_s", 1.0)
        object.__setattr__(cfg, "use_enhancement", False)

        # ... later default-config calls must be unaffected
        out = identify_many(partitions, 5400.0, backend="serial")
        assert sorted(out[0]) == sorted(ref[0])
        assert sorted(out[1]) == sorted(ref[1])
        for k in ref[0]:
            assert out[0][k].cycle_s == ref[0][k].cycle_s
            assert out[0][k].red_s == ref[0][k].red_s
