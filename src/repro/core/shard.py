"""Zero-copy sharded identification over the spilled column store.

:func:`repro.core.batch.identify_batch` already runs the whole city
through shared vectorized kernels; what keeps multi-process execution
from scaling is the boundary cost — pickling the full column store
into every worker keeps wall-clock core-count independent.  This
module shards the batched backend by light partition and moves the
columns across the boundary through the filesystem page cache instead
of pickles:

1. the store spills its columns once to mmap-able ``.npy`` files
   (:meth:`~repro.trace.store.PartitionStore.spilled`, built on the
   sanctioned ``spill_to`` / ``_swap_backing`` seam);
2. ``pmap(common=store)`` then ships only a lightweight handle —
   metadata plus file paths — and ``common_bytes_limit`` enforces that
   zero column bytes ride in the per-worker pickle;
3. each worker attaches to the columns read-only and runs
   ``identify_batch`` over its own key shard.  The batched kernels are
   row-wise bit-exact for any key subset (the contract the stream
   backend already leans on), so shard = batched = serial bit-for-bit
   with no new numeric code.

Shards are balanced by row count — Table II's ~25× per-light record
skew would otherwise leave workers idle behind one heavy shard — and a
shard whose worker dies at the pool boundary re-runs in-parent through
the same ``identify_batch`` subset, so per-light fault containment and
the failure taxonomy are preserved.  Per-shard wall time and the
handle's byte size come back as :class:`~repro.obs.report.ShardStats`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..matching.partition import LightKey, LightPartition
from ..obs import LightFailure, ShardStats, StageTelemetry
from ..parallel.pool import (
    WorkerError,
    default_workers,
    get_common,
    payload_nbytes,
    pmap,
)
from ..trace.store import PartitionStore
from .batch import identify_batch
from .pipeline import PipelineConfig
from .signal_types import ScheduleEstimate

__all__ = ["balanced_shards", "identify_shard"]

#: Floor for ``pmap``'s ``common_bytes_limit``: the spilled handle is
#: metadata + file paths + any quarantined irregular partitions (which
#: are never columnar), so a regular city stays far below this; a limit
#: trip means column bytes leaked back into the per-worker pickle.
_HANDLE_BYTES_CEILING = 1 << 20

#: One shard result: (shard index, estimates, failures, per-light
#: telemetry, shard-level telemetry carrying the worker wall time).
_ShardResult = Tuple[
    int,
    Dict[LightKey, ScheduleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
    StageTelemetry,
]

#: One shard job: (shard index, keys, at_time, config).  The store is
#: **not** part of the job — it rides once per worker as ``common``.
_ShardJob = Tuple[int, List[LightKey], float, PipelineConfig]


def balanced_shards(
    store: PartitionStore, keys: Sequence[LightKey], n_shards: int
) -> List[List[LightKey]]:
    """Split *keys* into ≤ *n_shards* contiguous runs of ~equal row count.

    Contiguity (in sorted-key order) keeps each worker's column reads
    clustered in the mapped files; weighting by
    :meth:`~repro.trace.store.PartitionStore.light_n_records` absorbs
    the per-light record skew.  Deterministic in its inputs.
    """
    ordered = list(keys)
    if not ordered:
        return []
    n_shards = max(1, min(int(n_shards), len(ordered)))
    weights = np.asarray(
        [max(1, store.light_n_records(key)) for key in ordered], dtype=np.float64
    )
    cum = np.cumsum(weights)
    total = float(cum[-1])
    bounds = [0]
    for s in range(1, n_shards):
        target = total * s / n_shards
        idx = int(np.searchsorted(cum, target))
        # stay monotonic and leave at least one key per remaining shard
        bounds.append(max(bounds[-1] + 1, min(idx, len(ordered) - (n_shards - s))))
    bounds.append(len(ordered))
    return [ordered[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _identify_shard_worker(job: _ShardJob) -> _ShardResult:
    """Worker: one key shard through the batched kernels.

    The job carries only keys + time + config; the partitions come out
    of the spilled :class:`~repro.trace.store.PartitionStore` the pool
    shipped once per worker as the ``common`` handle, columns attached
    read-only via mmap on first touch.
    """
    shard_index, keys, at_time, config = job
    store = get_common()
    tel = StageTelemetry()
    with tel.stage("shard"):
        estimates, failures, tels = identify_batch(
            store, at_time, config=config, keys=keys
        )
    return shard_index, estimates, failures, tels, tel


def identify_shard(
    partitions: Union[Mapping[LightKey, LightPartition], PartitionStore],
    at_time: float,
    *,
    config: Optional[PipelineConfig] = None,
    keys: Optional[Sequence[LightKey]] = None,
    max_workers: Optional[int] = None,
    shards_per_worker: int = 2,
    mmap_dir: Optional[str] = None,
) -> Tuple[
    Dict[LightKey, ScheduleEstimate],
    Dict[LightKey, LightFailure],
    Dict[LightKey, StageTelemetry],
    List[ShardStats],
]:
    """Identify ``keys`` (default: every light) via balanced zero-copy shards.

    Returns ``(estimates, failures, telemetries, shard_stats)`` where
    the first three match :func:`repro.core.batch.identify_batch` over
    the same keys **bit-for-bit**, and ``shard_stats`` carries one
    :class:`~repro.obs.report.ShardStats` per dispatched shard.

    ``partitions`` may be a plain mapping or a
    :class:`~repro.trace.store.PartitionStore`.  An in-memory store is
    spilled for the duration of the call (to ``mmap_dir``, or a
    temporary directory that is removed afterwards) and restored on
    exit; an already-spilled store is used as-is.  ``shards_per_worker``
    over-decomposes the fan-out so stragglers rebalance.

    Fault containment matches the other backends at both granularities:
    per-light failures come back typed from inside ``identify_batch``,
    and a shard that dies at the pool boundary re-runs in-parent over
    the same keys.
    """
    config = PipelineConfig() if config is None else config
    store = (
        partitions
        if isinstance(partitions, PartitionStore)
        else PartitionStore.from_partitions(partitions)
    )
    wanted = sorted(store) if keys is None else sorted(keys)
    estimates: Dict[LightKey, ScheduleEstimate] = {}
    failures: Dict[LightKey, LightFailure] = {}
    tels: Dict[LightKey, StageTelemetry] = {}
    stats: List[ShardStats] = []
    if not wanted:
        return estimates, failures, tels, stats
    workers = default_workers(max_workers)
    with store.spilled(mmap_dir):
        handle_bytes = payload_nbytes(store)
        shards = balanced_shards(store, wanted, workers * shards_per_worker)
        jobs: List[_ShardJob] = [
            (i, shard, at_time, config) for i, shard in enumerate(shards)
        ]
        results = pmap(
            _identify_shard_worker,
            jobs,
            max_workers=workers,
            chunks_per_worker=1,
            on_error="return",
            common=store,
            common_bytes_limit=max(_HANDLE_BYTES_CEILING, 2 * handle_bytes),
        )
        for i, (shard, res) in enumerate(zip(shards, results)):
            if isinstance(res, WorkerError):
                # The whole shard died at the pool boundary (e.g. an
                # unpicklable result): re-run it in-parent through the
                # same kernels, keeping per-light containment intact.
                fb_tel = StageTelemetry()
                with fb_tel.stage("shard"):
                    s_est, s_fail, s_tels = identify_batch(
                        store, at_time, config=config, keys=shard
                    )
                res = (i, s_est, s_fail, s_tels, fb_tel)
            shard_index, s_est, s_fail, s_tels, s_tel = res
            estimates.update(s_est)
            failures.update(s_fail)
            tels.update(s_tels)
            stats.append(
                ShardStats(
                    shard_index=shard_index,
                    n_lights=len(shard),
                    n_records=sum(store.light_n_records(k) for k in shard),
                    n_ok=len(s_est),
                    n_failed=len(s_fail),
                    wall_s=s_tel.stage_s.get("shard", 0.0),
                    common_bytes=handle_bytes,
                )
            )
    return estimates, failures, tels, stats
