"""Extension bench — green-light speed advisory (GLOSA).

The paper's introduction motivates speed advisories as a key consumer
of real-time schedules.  This bench quantifies the benefit end-to-end:
schedules are *identified from taxi traces*, then drive an advisory for
vehicles approaching the lights; outcomes are charged against the true
signals.  Compared: blind cruising, advisory on identified schedules,
advisory on perfect schedules (upper bound).
"""

import numpy as np
import pytest

from conftest import banner
from repro.core import identify_many
from repro.navigation.advisory import advisory_trial


def test_advisory_on_identified_schedules(benchmark, small_city, small_city_data):
    _, partitions = small_city_data
    estimates, _ = identify_many(partitions, 7200.0)

    rng = np.random.default_rng(17)
    rows = {"cruise (blind)": [], "advisory (identified)": [], "advisory (oracle)": []}
    stops = {"cruise (blind)": 0, "advisory (identified)": 0, "advisory (oracle)": 0}
    n_trials = 0
    for key, est in sorted(estimates.items()):
        truth = small_city.truth_at(key[0], key[1], 7200.0)
        for _ in range(40):
            t0 = float(rng.uniform(7200.0, 7200.0 + 600.0))
            d = float(rng.uniform(200.0, 800.0))
            adv_t, cruise_t, adv_stopped = advisory_trial(truth, est.schedule, d, t0)
            orc_t, _, orc_stopped = advisory_trial(truth, truth, d, t0)
            rows["cruise (blind)"].append(cruise_t)
            rows["advisory (identified)"].append(adv_t)
            rows["advisory (oracle)"].append(orc_t)
            t_cruise = t0 + d / 14.0
            stops["cruise (blind)"] += truth.wait_if_arriving(t_cruise) > 0
            stops["advisory (identified)"] += adv_stopped
            stops["advisory (oracle)"] += orc_stopped
            n_trials += 1

    banner("Extension — GLOSA speed advisory on identified schedules")
    base = float(np.mean(rows["cruise (blind)"]))
    for name, vals in rows.items():
        m = float(np.mean(vals))
        print(f"  {name:<24} mean approach time {m:6.1f} s "
              f"({100 * (1 - m / base):+5.1f}%)  stopped at red: "
              f"{100 * stops[name] / n_trials:.0f}%")

    print("\n  GLOSA's payoff is smoothness: red-light stops collapse while")
    print("  total approach time stays flat (the safety margin trades the")
    print("  last ~2 s of time for robustness to schedule error).")
    ident = float(np.mean(rows["advisory (identified)"]))
    oracle = float(np.mean(rows["advisory (oracle)"]))
    # stops must collapse under the advisory...
    assert stops["advisory (oracle)"] <= 0.5 * stops["cruise (blind)"]
    assert stops["advisory (identified)"] <= 0.6 * stops["cruise (blind)"]
    # ...without a material travel-time penalty
    assert ident <= base * 1.10 and oracle <= base * 1.10

    key, est = next(iter(sorted(estimates.items())))
    truth = small_city.truth_at(key[0], key[1], 7200.0)
    benchmark(advisory_trial, truth, est.schedule, 500.0, 7300.0)
