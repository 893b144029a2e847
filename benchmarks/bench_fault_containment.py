"""Fault-containment bench: a citywide run with ~10% poisoned lights.

The paper's "easily paralleled" fan-out only scales if one degenerate
partition cannot sink the run — at city scale, sparse or corrupt
per-light inputs are the common case, not the exception.  This bench
poisons ~10% of the Table II city's partitions (corrupt parallel
arrays, the kind of garbage a broken map-matching export produces),
runs ``identify_many`` on the shard backend's real process pool, and
prints the failure taxonomy and stage wall-time breakdown from the
:class:`~repro.obs.report.RunReport`.

Asserted contract (the acceptance criterion of the containment issue):

* the run completes despite the poison;
* every poisoned light appears in the failure map typed with exception
  class + pipeline stage;
* healthy lights get the same estimates as in a clean run;
* the exported JSON carries per-stage wall time and counter totals.

Note on the taxonomy counts: §V.B enhancement reads the perpendicular
partition, so a poisoned partition can also fail its sparse
perpendicular neighbour at the ``samples`` stage — the taxonomy may
show slightly more ``samples/ValueError`` entries than lights poisoned.
Both failures are contained and correctly attributed; the neighbour's
input genuinely is corrupt.
"""

import json

import numpy as np
import pytest

from conftest import banner
from repro.core import identify_many
from repro.matching.partition import LightPartition
from repro.obs import RunReport, format_light_key


def poison(p: LightPartition) -> LightPartition:
    """Corrupt the partition's parallel arrays (length mismatch)."""
    return LightPartition(
        p.intersection_id, p.approach, p.trace, p.segment_id, np.empty(3)
    )


def test_fault_containment_citywide(shenzhen_data, tmp_path):
    _, partitions = shenzhen_data
    at_time = 14400.0
    keys = sorted(partitions)
    n_poison = max(1, round(0.1 * len(keys)))
    bad = keys[::max(1, len(keys) // n_poison)][:n_poison]

    city = dict(partitions)
    for k in bad:
        city[k] = poison(city[k])

    report = RunReport()
    ests, fails = identify_many(city, at_time, max_workers=2, report=report)

    banner(
        f"Fault containment: {len(keys)} lights, {len(bad)} poisoned "
        f"({100 * len(bad) / len(keys):.0f}%)"
    )
    print(f"  estimates: {len(ests)}   failures: {len(fails)}")
    print()
    print(report.summary())

    # Run completed; every poisoned light is in the failure map, typed.
    for k in bad:
        assert k in fails
        assert fails[k].error_type == "ValueError"
        assert fails[k].stage == "samples"

    # Healthy lights are unaffected by their poisoned neighbours.
    clean, _ = identify_many(partitions, at_time)
    for k in clean:
        if k in bad:
            continue
        assert k in ests
        assert ests[k].cycle_s == pytest.approx(clean[k].cycle_s)

    # The JSON export carries per-stage wall time and counter totals.
    path = tmp_path / "report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    assert doc["lights"]["failed"] == len(fails)
    assert doc["stages"] and all(v["wall_s"] >= 0.0 for v in doc["stages"].values())
    assert doc["counters"]["samples_primary"] > 0
    for k in bad:
        assert doc["failures"][format_light_key(k)]["stage"] == "samples"
    print(f"\n  report JSON: {len(path.read_text()):,} bytes, "
          f"{len(doc['stages'])} stages, {len(doc['counters'])} counters")
