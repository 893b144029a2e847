"""How fast the host runs right now, from a fixed reference workload.

A reference point times a few milliseconds of fixed work, a pure-Python
integer loop and a NumPy sort, the two kinds of work the program does,
and takes the median of ``SAMPLES`` such runs.  A workload takes points
next to its timed units and scales each timing by ``NOMINAL_S`` over
the point, to what it would read on the host at its nominal speed.
Neither the reference nor its scale touches the program, so a change to
the program moves a scaled timing exactly as much as the raw one.

``QuerySpeed`` is the reference for advisory reads, which are small
pure-Python method calls on frozen objects.  The host's slow spells
slow that kind of work by about 75 % where they slow the integer loop
by about 35 %, so reads scaled by ``HostSpeed`` kept half the swing;
its reference is the same kind of call on benchmark-side objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from common import median

#: Reference runs in one point.
SAMPLES = 6


class HostSpeed:
    """Reference points taken through a run."""

    #: About the median point on the development host (2 vCPUs, Python
    #: 3.11, NumPy 2.4), so that scaled times read as seconds there.
    NOMINAL_S = 0.0030

    def __init__(self) -> None:
        self._sortable = np.random.default_rng(0).random(1 << 15)
        self.points: List[float] = []

    def _reference(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        np.sort(self._sortable)
        return time.perf_counter() - start

    def sample(self, samples: int = SAMPLES) -> float:
        """Take one point, keep it in ``points`` and return it."""
        point = median([self._reference() for _ in range(samples)])
        self.points.append(point)
        return point

    @classmethod
    def scale(cls, seconds: float, point: float) -> float:
        """``seconds`` measured while the reference read ``point``, at nominal speed."""
        return seconds * cls.NOMINAL_S / point


@dataclass(frozen=True)
class _Dial:
    """A periodic two-state signal, queried like a fixed-time schedule."""

    period: float
    on: float
    phase: float

    def position(self, t: float) -> float:
        r = (t - self.phase) % self.period
        return r if r < self.period else 0.0

    def next_flip(self, t: float) -> Tuple[float, str]:
        x = float(self.position(t))
        if x < self.on:
            return t + (self.on - x), "OFF"
        return t + (self.period - x), "ON"


class QuerySpeed(HostSpeed):
    """Reference points for advisory reads: 20 sweeps over 256 dials."""

    #: About the point outside slow spells on the development host.
    NOMINAL_S = 0.0010

    def __init__(self) -> None:
        super().__init__()
        self._dials = [
            _Dial(60.0 + i % 37, 20.0 + i % 11, float(i * 7 % 50)) for i in range(256)
        ]

    def _reference(self) -> float:
        start = time.perf_counter()
        for j in range(20):
            t = 9000.0 + 0.37 * j
            for dial in self._dials:
                dial.next_flip(t)
        return time.perf_counter() - start
