"""Ablation — cycle-identification estimator variants (DESIGN.md #3).

Compares, over the Table II scenario:

1. paper-literal: single DFT argmax, no refinement, no stop-end fusion;
2. +candidate re-scoring (top-5 peaks judged by epoch folding);
3. +fine refinement;
4. full default (refinement + stop-end comb + subharmonic check).

This is the evidence for the repository's main methodological additions
over the paper.
"""

import numpy as np
import pytest

from conftest import banner
from repro.core import PipelineConfig, identify_many
from repro.core.cycle import CycleConfig

VARIANTS = {
    "paper-literal argmax": CycleConfig(n_candidates=1, refine=False, stop_end_weight=0.0),
    "+top-5 fold rescore": CycleConfig(n_candidates=5, refine=False, stop_end_weight=0.0),
    "+fine refinement": CycleConfig(n_candidates=5, refine=True, stop_end_weight=0.0),
    "full (stop-end comb)": CycleConfig(),
}
TIMES = (10800.0, 12600.0, 14400.0, 16200.0, 18000.0)


def test_ablation_dft_variants(benchmark, shenzhen, shenzhen_data):
    _, partitions = shenzhen_data

    banner("Ablation — cycle estimator variants (Table II scenario)")
    summary = {}
    for name, cyc_cfg in VARIANTS.items():
        cfg = PipelineConfig(cycle=cyc_cfg)
        errs = []
        for at in TIMES:
            ests, _ = identify_many(partitions, at, config=cfg)
            for key, est in ests.items():
                gt = shenzhen.truth_at(key[0], key[1], at)
                errs.append(abs(est.cycle_s - gt.cycle_s))
        errs = np.array(errs)
        summary[name] = errs
        print(f"  {name:<24} n={errs.size:3d}  within 3 s: "
              f"{100 * (errs <= 3.0).mean():.0f}%  >10 s: "
              f"{100 * (errs > 10.0).mean():.0f}%  median {np.median(errs):.2f} s")

    lit = (summary["paper-literal argmax"] <= 3.0).mean()
    full = (summary["full (stop-end comb)"] <= 3.0).mean()
    print(f"\n  the full estimator must clearly beat the literal argmax "
          f"({100 * lit:.0f}% -> {100 * full:.0f}%)")
    assert full > lit + 0.10

    benchmark.pedantic(
        identify_many, args=(partitions, TIMES[0]),
        kwargs=dict(config=PipelineConfig()),
        rounds=1, iterations=1,
    )
