"""Instrumented operation counters.

The performance claims of this package are asserted through deterministic
counters rather than wall-clock times: how many distribution (CDF)
evaluations a visibility query needs, how many per-segment density
evaluations the density-based oracle needs, and how many spherical-
harmonics fits a render performs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace


@dataclass
class CounterSnapshot:
    """The value of every counter: the one declaration of their names."""

    cdf_evals: int = 0
    density_evals: int = 0
    sh_fits: int = 0
    color_samples: int = 0


class Counters:
    """Global, lock-protected event counters, one per field of CounterSnapshot."""

    def __init__(self):
        self._lock = threading.Lock()
        self._values = CounterSnapshot()

    def reset(self):
        with self._lock:
            self._values = CounterSnapshot()

    def add(self, counter: str, amount: int = 1):
        with self._lock:
            setattr(self._values, counter, getattr(self._values, counter) + int(amount))

    def snapshot(self) -> CounterSnapshot:
        with self._lock:
            return replace(self._values)


counters = Counters()
