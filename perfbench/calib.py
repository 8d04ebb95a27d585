"""Drift calibration: program time rescaled by a fixed reference kernel.

On a small shared VM the speed of a core drifts by tens of percent within a
few seconds, so raw wall-clock rates do not repeat. A timer interrupts the
program every SAMPLE_INTERVAL_S and times reference_kernel() in the signal
handler. Program time between two samples is scaled by
NOMINAL_REF_S / (median of the latest RECENT_SAMPLES kernel times), and the
kernel's own time is left out, so a calibrated second is a second on a
machine that runs the kernel in exactly NOMINAL_REF_S.

The kernel mixes small elementwise numpy operations with a pure Python loop,
like the program's period evaluator and swarm loop, and makes no BLAS call:
BLAS thread settings cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_REF_S = 0.0025
SAMPLE_INTERVAL_S = 0.05
RECENT_SAMPLES = 5

_X = np.linspace(0.05, 20.0, 1024)
_V = np.linspace(-1.0, 1.0, 40)


def reference_kernel() -> float:
    acc = 0.0
    for i in range(48):
        y = np.sin(_X * (1.0 + 1e-3 * i)) / _X
        acc += float(np.add.reduce(y * y))
        z = np.where(_V > 0.0, _V * i, -_V)
        acc += float(z.max())
    s = 0
    for i in range(8000):
        s += (i * i) % 7
    return acc + s


@dataclass(frozen=True)
class Reading:
    """Clock state at one instant; differences of readings are durations."""

    wall: float  # calibrated seconds of program wall time
    cpu: float  # calibrated seconds of process CPU time, all threads
    raw: float  # uncalibrated seconds of program wall time

    def __sub__(self, other: "Reading") -> "Reading":
        return Reading(self.wall - other.wall, self.cpu - other.cpu, self.raw - other.raw)


class DriftClock:
    """Calibrated program clock, active inside a ``with`` block.

    ``read()`` may be called at any time; ``now()`` is a cheaper calibrated
    wall time for trace spans. Both exclude the time spent in the kernel.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._gen = 0
        self._busy = False
        self._factor = 1.0
        self._wall = self._cpu = self._raw = 0.0
        self._mark = time.perf_counter()
        self._cmark = time.process_time()
        self._previous = None

    def __enter__(self) -> "DriftClock":
        for _ in range(5):
            reference_kernel()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest inside a sample
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        c0 = time.process_time()
        self._wall += (t0 - self._mark) * self._factor
        self._raw += t0 - self._mark
        self._cpu += (c0 - self._cmark) * self._factor
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        # the median of the latest samples ignores a kernel run hit by an interrupt
        self._factor = NOMINAL_REF_S / statistics.median(self.samples[-RECENT_SAMPLES:])
        self._mark = t1
        self._cmark = time.process_time()
        self._gen += 1
        self._busy = False

    def now(self) -> float:
        while True:
            gen = self._gen
            value = self._wall + (time.perf_counter() - self._mark) * self._factor
            if gen == self._gen:
                return value

    def read(self) -> Reading:
        while True:
            gen = self._gen
            t = time.perf_counter()
            c = time.process_time()
            value = Reading(
                self._wall + (t - self._mark) * self._factor,
                self._cpu + (c - self._cmark) * self._factor,
                self._raw + (t - self._mark),
            )
            if gen == self._gen:
                return value

    def ref_median(self) -> float:
        return statistics.median(self.samples)
