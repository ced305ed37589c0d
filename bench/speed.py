"""Host speed probe, for scaling task times to a nominal machine speed.

The benchmark runs on shared hosts whose speed changes by up to 2x for
seconds or minutes at a time, and every kind of work slows down together.
So the timed passes stop every PROBE_INTERVAL seconds, at a task boundary,
and time a few small reference kernels that use none of the program: a
pure-Python loop over a small interval-like class, numpy element-wise work
and scipy kd-tree queries, each run once untimed and then timed so that what
the program left in the caches does not count.  Each probe gives the host's slowdown against the kernels' nominal times (NOMINAL);
a task's time is divided by the slowdown around it.  A change to the program
does not touch the kernels, so it shows in the scaled times in full.

Probe time is kept out of the task times: the workloads read the clock
through ``Speed.now``, which stops while a probe runs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

PROBE_INTERVAL = 0.25
#: seconds per kernel call on the reference host (2-vCPU Intel Xeon KVM
#: guest), the median over a 10-second loop; a slowdown of 1 means that speed
NOMINAL = {"py": 2.1e-3, "np": 1.0e-3, "kd": 2.25e-3}
#: samples on each side of a probe in the running median that smooths them
SMOOTH = 2


class _Iv:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def __add__(self, other: "_Iv") -> "_Iv":
        return _Iv(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "_Iv") -> "_Iv":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Iv(min(p), max(p))


class Speed:
    """Probes the host between tasks and keeps the clock that excludes them."""

    def __init__(self, kernels: tuple[str, ...] = ("py", "np", "kd")):
        rng = np.random.default_rng(0)
        self._wave = rng.uniform(-3.0, 3.0, size=1 << 15)
        self._tree = cKDTree(rng.uniform(size=(1 << 15, 3)))
        self._queries = rng.uniform(size=(1500, 3))
        every = {"py": self._py, "np": self._np, "kd": self._kd}
        self.kernels = {name: every[name] for name in kernels}
        self.samples: list[tuple[float, dict[str, float]]] = []
        self.paused = 0.0
        self._due = 0.0
        self.probe()

    def _py(self):
        a, b, acc = _Iv(0.3, 1.7), _Iv(-0.5, 2.5), _Iv(0.0, 0.0)
        seen = {}
        for i in range(1000):
            c = a * b + acc
            acc = _Iv(c.lo * 1e-3, c.hi * 1e-3)
            seen[i & 31] = c
        return acc

    def _np(self):
        x = self._wave
        return float(np.sort(np.sin(x) * x + np.exp(-x * x))[::64].sum())

    def _kd(self):
        return self._tree.query(self._queries, k=1)

    def now(self) -> float:
        """Seconds on a clock that stands still while probes run."""
        return time.perf_counter() - self.paused

    def _time_kernels(self) -> dict[str, float]:
        """Seconds per kernel call.  Each kernel runs once untimed first, so
        what the program left in the caches does not count."""
        took = {}
        for name, kernel in self.kernels.items():
            kernel()
            t = time.perf_counter()
            kernel()
            took[name] = time.perf_counter() - t
        return took

    def probe(self) -> None:
        start = time.perf_counter()
        at = start - self.paused
        self.samples.append((at, self._time_kernels()))
        end = time.perf_counter()
        self.paused += end - start
        self._due = end + PROBE_INTERVAL

    def maybe_probe(self) -> None:
        """Probe if PROBE_INTERVAL has passed since the last probe ended."""
        if time.perf_counter() >= self._due:
            self.probe()

    @staticmethod
    def slowdown(took: dict[str, float]) -> float:
        """Geometric mean of the kernels' times over NOMINAL."""
        return math.exp(statistics.fmean(math.log(t / NOMINAL[k]) for k, t in took.items()))

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Probe times and their slowdowns, smoothed by a running median."""
        raw = [self.slowdown(took) for _, took in self.samples]
        smooth = [statistics.median(raw[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(raw))]
        return np.array([t for t, _ in self.samples]), np.array(smooth)

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Task durations divided by the slowdown at each task's midpoint."""
        at, slow = self.curve()
        spans_arr = np.array(spans, dtype=float)
        mid = spans_arr.mean(axis=1)
        return [float(d) for d in (spans_arr[:, 1] - spans_arr[:, 0]) / np.interp(mid, at, slow)]
