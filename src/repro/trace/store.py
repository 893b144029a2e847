"""Run-scoped column store of partitioned records.

A :class:`PartitionStore` flattens all partitions into one set of
contiguous columns (CSR-style: per-light row ranges over shared arrays)
built **once per run** — ``evaluate_at_times`` packs it once and reuses
it at every time spot — and layers the caches the identification
pipeline re-derives per call on top of it:

* ``window_samples`` — ``(t, speed)`` extraction near the stop line,
  O(log n) via ``searchsorted`` on the time-sorted rows instead of a
  full boolean mask per call;
* ``stops`` — the per-light :class:`~repro.core.stops.StopEvents`,
  extracted once over the whole partition and time-windowed per spot;
* ``mean_interval`` — the measured mean report interval, which never
  changes between time spots;
* ``cache`` — an open memo dictionary the batched backend uses for
  regularized grids and other per-(light, window) intermediates.

The store also travels cheaply across process boundaries: the shard
backend ships it once per worker (via ``pmap(..., common=...)``) after
spilling the columns to ``.npy`` files, so workers re-open them
memory-mapped and the pickle payload shrinks to the file paths.

Extraction semantics are bit-identical to the per-partition code paths
(the parity suite ``tests/test_batch_parity.py`` holds them together).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..parallel.pool import WorkerError, run_guarded
from .records import TraceArrays

if TYPE_CHECKING:  # import cycle: matching/core import the store lazily
    from ..core.stops import StopEvents
    from ..matching.partition import LightPartition

__all__ = ["PartitionStore"]

#: Partition key: (intersection id, approach group) — mirrors
#: :data:`repro.matching.partition.LightKey` without importing it
#: (matching sits above trace in the layer order).
LightKey = Tuple[int, str]

#: Per-record columns beyond the raw trace fields.
_EXTRA_COLUMNS = ("segment_id", "dist_to_stopline_m")

_ALL_COLUMNS = TraceArrays.COLUMNS + _EXTRA_COLUMNS


class PartitionStore:
    """Columnar, cache-carrying view over a city's light partitions.

    Build once per run with :meth:`from_partitions`; behaves as a
    read-only mapping from :data:`LightKey` to
    :class:`~repro.matching.partition.LightPartition` (reconstructed as
    zero-copy column slices), so it can stand in for the plain
    partition dict everywhere in the pipeline.
    """

    def __init__(
        self,
        keys: Sequence[LightKey],
        offsets: np.ndarray,
        columns: Dict[str, np.ndarray],
        *,
        irregular: Optional[Dict[LightKey, Any]] = None,
        mmap_dir: Optional[str] = None,
    ) -> None:
        self._regular_keys: List[LightKey] = [
            (int(iid), str(app)) for iid, app in keys
        ]
        self._offsets = np.asarray(offsets, dtype=np.int64)
        if self._offsets.shape[0] != len(self._regular_keys) + 1:
            raise ValueError(
                f"offsets has length {self._offsets.shape[0]}, expected "
                f"{len(self._regular_keys) + 1}"
            )
        missing = [c for c in _ALL_COLUMNS if c not in columns]
        if missing:
            raise ValueError(f"columns missing {missing}")
        self._columns: Optional[Dict[str, np.ndarray]] = dict(columns)
        # Partitions whose columns disagree on length cannot be stored
        # columnar without corrupting their neighbours' row ranges; they
        # ride along as-is and always take the serial path.
        self._irregular: Dict[LightKey, Any] = dict(irregular or {})
        self._mmap_dir = mmap_dir
        self._init_derived()

    def _init_derived(self) -> None:
        self._refresh_keys()
        self._partitions: Dict[LightKey, Any] = {}
        self._stops: Dict[LightKey, Any] = {}
        self._intervals: Dict[LightKey, float] = {}
        #: Open memo for per-(light, window) intermediates — the batched
        #: backend parks regularized grids and enhanced sample windows
        #: here so repeated ``evaluate_at_times`` spots reuse them.
        #: Convention: memo keys are tuples whose element ``[1]`` is the
        #: owning :data:`LightKey` — :meth:`invalidate_light` relies on
        #: it to purge one light's entries without touching the rest.
        self.cache: Dict[Any, Any] = {}

    def _refresh_keys(self) -> None:
        """Rebuild the key/index/sortedness views after a column change."""
        self._keys: List[LightKey] = sorted(
            list(self._regular_keys) + list(self._irregular)
        )
        self._index: Dict[LightKey, int] = {
            key: i for i, key in enumerate(self._regular_keys)
        }
        t = self.columns["t"]
        self._time_sorted = np.array(
            [
                bool(np.all(np.diff(t[self._offsets[i]:self._offsets[i + 1]]) >= 0))
                for i in range(len(self._regular_keys))
            ],
            dtype=bool,
        )

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_partitions(
        cls,
        partitions: "Mapping[LightKey, LightPartition]",
        *,
        mmap_dir: Optional[str] = None,
    ) -> "PartitionStore":
        """Flatten a partition mapping into one columnar store.

        ``partitions`` maps :data:`LightKey` to
        :class:`~repro.matching.partition.LightPartition` (a store is
        returned unchanged).  With ``mmap_dir`` the columns are written
        as ``.npy`` files there and re-opened memory-mapped, so worker
        processes share pages instead of copies.
        """
        if isinstance(partitions, cls):
            return partitions
        keys: List[LightKey] = []
        irregular: Dict[LightKey, Any] = {}
        for key in sorted(partitions):
            if _is_regular(partitions[key]):
                keys.append(key)
            else:
                irregular[key] = partitions[key]
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        for i, key in enumerate(keys):
            offsets[i + 1] = offsets[i] + len(partitions[key])
        per_key = [_partition_columns(partitions[key]) for key in keys]
        columns: Dict[str, np.ndarray] = {
            name: _concat([cols[name] for cols in per_key]) for name in _ALL_COLUMNS
        }
        store = cls(keys, offsets, columns, irregular=irregular)
        if mmap_dir is not None:
            store.spill_to(mmap_dir)
        return store

    def append_partitions(
        self, chunk: "Mapping[LightKey, LightPartition]"
    ) -> FrozenSet[LightKey]:
        """Append a chunk of per-light records **in place**.

        ``chunk`` maps :data:`LightKey` to a partition holding only the
        new records (a chunk of a replayed trace, or fresh arrivals of a
        live stream).  Returns the set of touched lights.  Contracts:

        * each touched light's rows are re-sorted into the canonical
          ``(t, taxi_id)`` order, so the merged columns are independent
          of how the records were chunked or permuted on the way in
          (bit-for-bit, whenever report timestamps are unique per
          light — always true for continuous-time traces);
        * **only** touched lights lose their cached partition view, stop
          events, mean report interval, and memo (:attr:`cache`)
          entries — every other light's caches survive verbatim;
        * an irregular chunk (inconsistent column lengths) quarantines
          its light onto the serial pass-through path, exactly like an
          irregular partition at build time; healthy lights are
          unaffected;
        * a store spilled to ``mmap_dir`` is pulled back in-memory (the
          on-disk columns no longer match).
        """
        touched: Set[LightKey] = set()
        demoted: Set[LightKey] = set()
        add_rows: Dict[LightKey, "LightPartition"] = {}
        for raw_key in sorted(chunk):
            part = chunk[raw_key]
            key: LightKey = (int(raw_key[0]), str(raw_key[1]))
            if key not in self._irregular and _is_regular(part):
                if len(part.trace) == 0:
                    continue  # empty chunk: nothing changes, keep caches
                add_rows[key] = part
            else:
                base = self._irregular.get(key)
                if base is None and key in self._index:
                    base = self.partition(key)
                    demoted.add(key)
                self._irregular[key] = (
                    part if base is None else _merge_irregular(base, part)
                )
            touched.add(key)
        if add_rows or demoted:
            self._splice_rows(add_rows, demoted)
        for key in touched:
            self.invalidate_light(key)
        if touched:
            self._refresh_keys()
        return frozenset(touched)

    def _splice_rows(
        self,
        add_rows: "Mapping[LightKey, LightPartition]",
        demoted: AbstractSet[LightKey],
    ) -> None:
        """Rebuild the CSR columns with *add_rows* merged in.

        Untouched lights' rows are copied verbatim (one concatenate per
        column); each touched light's merged rows are re-sorted into the
        canonical ``(t, taxi_id)`` order.
        """
        old_cols = self.columns
        new_keys = sorted(
            (set(self._regular_keys) | set(add_rows)) - set(demoted)
        )
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in _ALL_COLUMNS}
        offsets = np.zeros(len(new_keys) + 1, dtype=np.int64)
        for i, key in enumerate(new_keys):
            cols_k: Dict[str, np.ndarray] = {}
            if key in self._index:
                lo, hi = self._range(key)
                for name in _ALL_COLUMNS:
                    cols_k[name] = old_cols[name][lo:hi]
            fresh = add_rows.get(key)
            if fresh is not None:
                new_cols = _partition_columns(fresh)
                if cols_k:
                    for name in _ALL_COLUMNS:
                        cols_k[name] = np.concatenate([cols_k[name], new_cols[name]])
                else:
                    cols_k = new_cols
                order = np.lexsort((cols_k["taxi_id"], cols_k["t"]))
                if not np.array_equal(order, np.arange(order.shape[0])):
                    cols_k = {name: col[order] for name, col in cols_k.items()}
            offsets[i + 1] = offsets[i] + cols_k["t"].shape[0]
            for name in _ALL_COLUMNS:
                pieces[name].append(np.asarray(cols_k[name]))
        previous_dir = self._mmap_dir
        self._regular_keys = list(new_keys)
        self._offsets = offsets
        self._columns = {name: _concat(pieces[name]) for name in _ALL_COLUMNS}
        self._mmap_dir = None
        if previous_dir is not None:
            # the on-disk columns no longer match the spliced rows;
            # leaving them behind would let a later reload serve stale data
            _remove_column_files(previous_dir)

    def invalidate_light(self, key: LightKey, *, derived_only: bool = False) -> None:
        """Drop one light's cached state, leaving every other light's intact.

        With ``derived_only=True`` the light's own extractions (cached
        partition view, stop events, mean interval) survive and only its
        open-memo (:attr:`cache`) entries are purged — the right scope
        when a *neighbouring* light's new data can invalidate
        enhancement-dependent intermediates (mirrored sample grids) but
        not this light's own records.
        """
        if not derived_only:
            self._partitions.pop(key, None)
            self._stops.pop(key, None)
            self._intervals.pop(key, None)
        stale = [
            ck
            for ck in self.cache
            if isinstance(ck, tuple) and len(ck) >= 2 and ck[1] == key
        ]
        for ck in stale:
            del self.cache[ck]

    def _swap_backing(
        self,
        columns: Optional[Dict[str, np.ndarray]],
        mmap_dir: Optional[str],
    ) -> None:
        """Flip the column backing between in-memory and memory-mapped.

        Both representations hold bit-identical rows, so no derived
        cache depends on which one is active and no invalidation is
        due; this is the single sanctioned column write outside the
        row-splicing path.
        """
        self._columns = columns  # repro: allow[REP007]
        self._mmap_dir = mmap_dir

    def spill_to(self, mmap_dir: str) -> None:
        """Write the columns to ``mmap_dir`` and re-open them mapped.

        After this, pickling the store ships only metadata + file paths
        and every process re-opens the same pages read-only.

        Idempotent: re-spilling to the directory already backing the
        store is a no-op, and spilling an already-spilled store to a
        *different* directory rewrites the columns there and deletes the
        old directory's column files — ``_mmap_dir`` never points at
        stale state and no orphaned ``.npy`` files accumulate.
        """
        mmap_dir = os.path.abspath(mmap_dir)
        previous = self._mmap_dir
        if previous == mmap_dir:
            return
        os.makedirs(mmap_dir, exist_ok=True)
        # `columns` (not `_columns`): an already-spilled store may have
        # lazily dropped its arrays, and the property reloads them.
        for name, col in self.columns.items():
            np.save(os.path.join(mmap_dir, f"{name}.npy"), col)
        self._swap_backing(None, mmap_dir)  # reload lazily, memory-mapped
        if previous is not None:
            _remove_column_files(previous)

    @contextmanager
    def spilled(self, mmap_dir: Optional[str] = None) -> Iterator["PartitionStore"]:
        """Temporarily back the columns with on-disk ``.npy`` maps.

        Spills to *mmap_dir* (default: a fresh temporary directory) and
        yields the store itself — which now pickles as a lightweight
        handle (metadata + file paths, zero column bytes), the seam the
        sharded backend fans out over.  On exit the original in-memory
        arrays are swapped back and the spill files are removed (the
        whole temporary directory when this call created it).

        A store that was already spilled is yielded as-is and left
        spilled — its caller owns the lifecycle.  The restore is also
        skipped when the backing changed underneath (e.g. an
        :meth:`append_partitions` inside the context pulled the store
        back in-memory): the fresher rows win over the snapshot.
        """
        if self._mmap_dir is not None:
            yield self
            return
        original = self._columns
        own_dir = mmap_dir is None
        target = tempfile.mkdtemp(prefix="repro-store-") if own_dir else mmap_dir
        assert target is not None
        self.spill_to(target)
        token = self._mmap_dir  # the normalized path spill_to recorded
        try:
            yield self
        finally:
            if self._mmap_dir == token and original is not None:
                self._swap_backing(original, None)
                if own_dir:
                    shutil.rmtree(token, ignore_errors=True)
                else:
                    _remove_column_files(token)

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The shared column arrays (lazily re-opened when mapped)."""
        if self._columns is None:
            assert self._mmap_dir is not None
            self._swap_backing(
                {
                    name: np.load(
                        os.path.join(self._mmap_dir, f"{name}.npy"), mmap_mode="r"
                    )
                    for name in _ALL_COLUMNS
                },
                self._mmap_dir,
            )
        assert self._columns is not None
        return self._columns

    def __getstate__(self) -> Dict[str, Any]:
        state = {
            "keys": self._regular_keys,
            "offsets": self._offsets,
            "irregular": self._irregular,
            "mmap_dir": self._mmap_dir,
            # mapped columns reload from disk in the receiving process
            "columns": self._columns if self._mmap_dir is None else None,
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._regular_keys = state["keys"]
        self._offsets = state["offsets"]
        self._irregular = state["irregular"]
        self._mmap_dir = state["mmap_dir"]
        self._columns = state["columns"]
        self._init_derived()

    # ------------------------------------------------------------------
    # Mapping protocol (drop-in for Dict[LightKey, LightPartition])
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[LightKey]:
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index or key in self._irregular

    def keys(self) -> List[LightKey]:
        return list(self._keys)

    def __getitem__(self, key: LightKey) -> "LightPartition":
        return self.partition(key)

    def get(
        self, key: LightKey, default: Optional["LightPartition"] = None
    ) -> Optional["LightPartition"]:
        return self.partition(key) if key in self else default

    def is_regular(self, key: LightKey) -> bool:
        """False for pass-through partitions with inconsistent columns
        (those always take the serial path)."""
        return key in self._index

    @property
    def n_records(self) -> int:
        return int(self._offsets[-1])

    @property
    def columns_nbytes(self) -> int:
        """Total bytes of the column arrays — what a full (unspilled)
        pickle would ship to every worker."""
        return int(sum(int(col.nbytes) for col in self.columns.values()))

    def light_n_records(self, key: LightKey) -> int:
        """Rows held for *key*: the columnar range for regular lights,
        the pass-through partition's own record count for quarantined
        ones (0 when even that is unmeasurable).  The sharded backend
        balances its shards on these weights."""
        if key in self._irregular:
            n = run_guarded(len, self._irregular[key])
            return 0 if isinstance(n, WorkerError) else int(n)
        i = self._index[key]
        return int(self._offsets[i + 1] - self._offsets[i])

    # ------------------------------------------------------------------
    # Cached per-light views
    # ------------------------------------------------------------------
    def _range(self, key: LightKey) -> Tuple[int, int]:
        i = self._index[key]
        return int(self._offsets[i]), int(self._offsets[i + 1])

    def partition(self, key: LightKey) -> "LightPartition":
        """The light's :class:`LightPartition`, as zero-copy slices."""
        if key in self._irregular:
            return self._irregular[key]
        part = self._partitions.get(key)
        if part is None:
            from ..matching.partition import LightPartition

            lo, hi = self._range(key)
            cols = self.columns
            trace = TraceArrays(
                **{name: cols[name][lo:hi] for name in TraceArrays.COLUMNS}
            )
            part = LightPartition(
                intersection_id=key[0],
                approach=key[1],
                trace=trace,
                segment_id=np.asarray(cols["segment_id"][lo:hi]),
                dist_to_stopline_m=np.asarray(cols["dist_to_stopline_m"][lo:hi]),
            )
            self._partitions[key] = part
        return part

    def window_samples(
        self, key: LightKey, t0: float, t1: float, max_dist_m: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(t, speed) near the stop line within ``[t0, t1)``.

        Identical values to
        :func:`repro.core.pipeline._window_samples` on the equivalent
        partition; time-sorted lights use a binary search instead of a
        full mask.
        """
        if key in self._irregular:
            p = self._irregular[key]
            keep = (
                (p.trace.t >= t0)
                & (p.trace.t < t1)
                & (p.dist_to_stopline_m <= max_dist_m)
            )
            return p.trace.t[keep], p.trace.speed_kmh[keep]
        lo, hi = self._range(key)
        cols = self.columns
        t = cols["t"][lo:hi]
        dist = cols["dist_to_stopline_m"][lo:hi]
        v = cols["speed_kmh"][lo:hi]
        if self._time_sorted[self._index[key]]:
            a = int(np.searchsorted(t, t0, side="left"))
            b = int(np.searchsorted(t, t1, side="left"))
            near = dist[a:b] <= max_dist_m
            return t[a:b][near], v[a:b][near]
        keep = (t >= t0) & (t < t1) & (dist <= max_dist_m)
        return t[keep], v[keep]

    def stops(self, key: LightKey) -> "StopEvents":
        """The light's stop events, extracted once per store lifetime."""
        events = self._stops.get(key)
        if events is None:
            from ..core.stops import extract_stops

            events = extract_stops(self.partition(key))
            self._stops[key] = events
        return events

    def mean_interval(self, key: LightKey, default_s: float = 20.14) -> float:
        """Measured mean report interval (cached; see pipeline)."""
        interval = self._intervals.get(key)
        if interval is None:
            from ..core.pipeline import measured_mean_interval

            interval = measured_mean_interval(self.partition(key), default_s)
            self._intervals[key] = interval
        return interval

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backing = f"mmap:{self._mmap_dir}" if self._mmap_dir else "in-memory"
        return (
            f"PartitionStore({len(self._keys)} lights, "
            f"{self.n_records:,} records, {backing})"
        )


def _probe_regular(partition: "LightPartition") -> bool:
    """All per-record columns agree on one length (may raise on garbage)."""
    n = len(partition.trace)
    cols = [getattr(partition.trace, name) for name in TraceArrays.COLUMNS]
    cols += [
        np.asarray(partition.segment_id),
        np.asarray(partition.dist_to_stopline_m),
    ]
    return all(c.ndim == 1 and c.shape[0] == n for c in cols)


def _is_regular(partition: "LightPartition") -> bool:
    """True when the partition can be stored columnar.

    Probing arbitrary partition-like objects can raise anything, so the
    probe runs through the sanctioned containment seam
    (:func:`repro.parallel.pool.run_guarded`); a partition whose probe
    fails is quarantined onto the serial path rather than trusted.
    """
    return run_guarded(_probe_regular, partition) is True


def _remove_column_files(mmap_dir: str) -> None:
    """Best-effort removal of a directory's spilled column files.

    Only the store's own ``<column>.npy`` files are touched — the
    directory itself may be caller-owned and is left in place.
    """
    for name in _ALL_COLUMNS:
        try:
            os.unlink(os.path.join(mmap_dir, f"{name}.npy"))
        except OSError:
            pass  # already gone, or the directory vanished with it


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def _partition_columns(part: "LightPartition") -> Dict[str, np.ndarray]:
    """One partition's rows as the store's column dict."""
    out: Dict[str, np.ndarray] = {
        name: np.asarray(getattr(part.trace, name)) for name in TraceArrays.COLUMNS
    }
    out["segment_id"] = np.asarray(part.segment_id)
    out["dist_to_stopline_m"] = np.asarray(part.dist_to_stopline_m, dtype=np.float64)
    return out


def _merge_partitions(
    base: "LightPartition", fresh: "LightPartition"
) -> "LightPartition":
    """Row-concatenate two partitions (may raise on garbage inputs)."""
    from ..matching.partition import LightPartition

    return LightPartition(
        intersection_id=base.intersection_id,
        approach=base.approach,
        trace=TraceArrays.concat([base.trace, fresh.trace]),
        segment_id=np.concatenate(
            [np.asarray(base.segment_id), np.asarray(fresh.segment_id)]
        ),
        dist_to_stopline_m=np.concatenate(
            [
                np.asarray(base.dist_to_stopline_m, dtype=np.float64),
                np.asarray(fresh.dist_to_stopline_m, dtype=np.float64),
            ]
        ),
    )


def _merge_irregular(base: Any, fresh: Any) -> Any:
    """Best-effort merge of two pass-through partitions.

    Either side may be arbitrary garbage, so the merge runs through the
    sanctioned containment seam.  When it fails, the *fresh* chunk wins:
    the serial path then surfaces the fault for this light instead of
    silently serving estimates from stale pre-chunk records.
    """
    merged = run_guarded(_merge_partitions, base, fresh)
    if isinstance(merged, WorkerError):
        return fresh
    return merged
