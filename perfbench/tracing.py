"""Benchmark-side spans around calls into each layer's public functions.

The program has no tracing of its own yet, so the traced run patches
the public functions a workload reaches (``CitySimulation.run``,
``TraceGenerator.generate``, ``match_trace``, ``identify_many`` …) with
thin wrappers that record one span per call: name, start, end, parent
span and an id naming the time spot or chunk the call served.  Spans
stay in memory and are written out once, when the run ends.  End-to-end
runs install nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SidFn = Callable[[Tuple[Any, ...], Dict[str, Any]], Any]
CountFn = Callable[[Any], Dict[str, float]]


class Tracer:
    """Collects spans; patches and restores layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, sid: Any = None) -> Iterator[Dict[str, Any]]:
        """Record one span; the innermost open span on this thread is its parent."""
        stack = self._stack()
        rec: Dict[str, Any] = {
            "span": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "id": sid,
            "thread": threading.get_ident(),
        }
        stack.append(rec["span"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        sid: Optional[SidFn] = None,
        counts: Optional[CountFn] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``sid`` maps the call's arguments to the span id; ``counts``
        maps its result to counters stored on the span.  Class and
        static methods keep their binding.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, sid(args, kwargs) if sid else None) as rec:
                result = func(*args, **kwargs)
                if counts is not None:
                    rec["counts"] = counts(result)
                return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- views --------------------------------------------------------
    def named(self, name: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def busy(self, name: str, root_only: bool = False) -> float:
        """Summed duration of the spans called ``name`` (only parentless ones if ``root_only``)."""
        return sum(
            s["end"] - s["start"]
            for s in self.named(name)
            if not (root_only and s["parent"] is not None)
        )

    def covered(self, lo: float, hi: float, names: List[str]) -> float:
        """Length of ``[lo, hi]`` covered by the union of the named spans."""
        ivals = sorted(
            (max(s["start"], lo), min(s["end"], hi))
            for s in self.spans
            if s["name"] in names and s["end"] > lo and s["start"] < hi
        )
        total, cur_lo, cur_hi = 0.0, None, None
        for a, b in ivals:
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"schema": "perfbench.spans/v1", "spans": self.spans}, fp, default=str)
            fp.write("\n")
