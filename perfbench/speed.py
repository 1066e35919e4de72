"""Timings scaled by the machine's speed at the moment they were taken.

The shared 2-vCPU host this benchmark was built on runs the same code up to
1.8x slower for stretches of one to fifteen seconds, and process CPU time
slows with it (the neighbours share the cores' caches and clocks, so nothing
is counted as stolen). No run length averages that out within a 25% bound.

So while a timed pass runs, a SIGALRM handler in the benchmark's own (only)
thread times a fixed reference computation every `PERIOD_S` seconds: a pure
Python loop and small numpy matrix products, the same mix of interpreter and
BLAS work the pipeline does. A timing is then reported in reference seconds:
its wall time, less the handler's own time inside it, times the mean of
`REFERENCE_S / (reference time)` over the ticks around it. `REFERENCE_S` is
what the reference takes when the machine runs fast, so the figures read as
seconds on the machine at its fast speed. The reference is benchmark code; a change to
the program does not change it, so a slower program still reads slower.

The speed also wanders within tens of milliseconds, so a short reference
taken often estimates it far better than a long one taken rarely: at the same
4% cost, 0.2 ms every 10 ms left a quarter of the epoch-to-epoch spread that
2 ms every 100 ms left.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
REFERENCE_S = 0.0002  # the reference's time when the machine runs fast

_A = np.linspace(-1.0, 1.0, 16 * 32).reshape(16, 32)
_B = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)


def reference() -> float:
    """A fixed amount of interpreter and small-matrix work."""
    table: dict[int, int] = {}
    for i in range(600):
        key = i % 61
        table[key] = table.get(key, 0) + i
    x = _A
    for _ in range(24):
        x = np.tanh(x @ _B) * 0.5 + _A
    return len(table) + float(x[0, 0])


class Speedometer:
    """Samples the reference every PERIOD_S seconds while entered."""

    def __init__(self):
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        reference()
        self._starts.append(t0)
        self._durations.append(time.perf_counter() - t0)

    def __enter__(self) -> Speedometer:
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scaled(self, intervals) -> np.ndarray:
        """Reference seconds of each (start, end) perf_counter interval taken
        while entered: wall time less the ticks inside it, times the mean
        speed (REFERENCE_S over reference time) of the ticks within one period
        of it. Ticks are even in wall time, so each stretch of the interval
        counts at its own speed (a mean of reference times would weigh the
        slow stretches too much)."""
        starts = np.asarray(self._starts)
        durations = np.asarray(self._durations)
        stolen = np.concatenate(([0.0], np.cumsum(durations)))
        out = np.empty(len(intervals))
        for i, (t0, t1) in enumerate(intervals):
            inside = stolen[np.searchsorted(starts, t1)] - stolen[np.searchsorted(starts, t0)]
            lo = min(np.searchsorted(starts, t0 - PERIOD_S), len(starts) - 1)
            hi = max(np.searchsorted(starts, t1 + PERIOD_S), lo + 1)
            out[i] = (t1 - t0 - inside) * (REFERENCE_S / durations[lo:hi]).mean()
        return out
