"""Host-speed calibration: CPU time rescaled to a reference host.

The shared hosts this benchmark runs on change speed by up to 2-3x from
one minute to the next, and by a quarter from one second to the next,
without the guest seeing it as steal time; process CPU time inflates
with the wall time.  The hosts expose no hardware counters, so the
benchmark cannot count instructions.  Instead it times a fixed
calibration slice while the workload runs: a ``SIGPROF`` interval timer
interrupts the benchmark process after every :data:`INTERVAL_S` of its
CPU time, and the handler runs one slice and adds the slice's thread CPU
time to :attr:`Calibrator.cpu`.  The slices sample the host speed at the
same moments as the workload, so

    reference CPU = (phase CPU - slice CPU) * REFERENCE_SLICE_S / mean slice CPU

is the phase's CPU time on a host where one slice takes exactly
:data:`REFERENCE_SLICE_S`.  The slice mixes interpreter work, a pointer
chase through memory and small numpy calls, because the workloads slow
down unevenly across the three; it uses python and numpy only, so no
change to ``repro`` can move it.

This module imports nothing from ``repro``, so ``run.py`` can start the
calibrator before it imports ``repro`` and rescale the import time too
(numpy's own import is not counted).
"""

from __future__ import annotations

import random
import signal
import time
from typing import Tuple

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_SLICE_S", "Calibrator", "Mark", "handler_wall"]

#: Process CPU seconds between two calibration slices (~5% overhead).
INTERVAL_S = 0.02
#: A slice's CPU time on the reference host (about a quiet 2-vCPU Xeon).
REFERENCE_SLICE_S = 0.001
#: Fewer slices than this in a phase: rescale by the run's mean slice.
MIN_SLICES = 8

#: (process CPU, slice CPU, slices, handler wall) at one moment.
Mark = Tuple[float, float, int, float]

_HANDLER_WALL = [0.0]


def handler_wall() -> float:
    """Wall seconds spent in calibration slices so far (to subtract from latencies)."""
    return _HANDLER_WALL[0]


_CHASE = 60_000
_FLOATS = [float(i) for i in range(_CHASE)]
_NEXT = list(range(_CHASE))
random.Random(1).shuffle(_NEXT)
_SMALL = np.random.default_rng(1).random((2, 256))


def _slice() -> float:
    """Fixed work in the proportions the workloads mix them.

    Interpreter work (dict and list traffic, float math, a sort), a
    pointer chase through a few MiB of python objects (cache and memory
    latency), and small-array numpy calls (ufunc dispatch), about 1 ms
    on the reference host.
    """
    table: dict = {}
    pairs = []
    acc = 0.0
    for i in range(1200):
        k = i & 255
        table[k] = table.get(k, 0.0) + i * 0.5
        pairs.append((k, acc))
        acc += (i % 7) * 1.5
    pairs.sort()
    j = 0
    for _ in range(4000):
        j = _NEXT[j]
        acc += _FLOATS[j]
    a, b = _SMALL
    for _ in range(25):
        fit = (a <= 0.5) & (b <= 0.5)
        acc += float(a[np.flatnonzero(fit)[:8]].sum())
    return acc + len(table)


class Calibrator:
    """Runs calibration slices on a CPU-time interval timer while started."""

    def __init__(self) -> None:
        self.cpu = 0.0
        self.slices = 0
        self._running = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        w, c = time.perf_counter(), time.thread_time()
        _slice()
        self.cpu += time.thread_time() - c
        self.slices += 1
        _HANDLER_WALL[0] += time.perf_counter() - w

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._running = False

    def mark(self) -> Mark:
        return time.process_time(), self.cpu, self.slices, handler_wall()

    def reference_cpu(self, since: Mark) -> Tuple[float, float]:
        """(reference CPU seconds, raw CPU seconds) of the work since ``since``.

        Both exclude the calibration slices.  The rescaling uses the
        slices of the phase itself, or the run's mean slice when the
        phase held fewer than :data:`MIN_SLICES`.
        """
        cpu0, cal0, n0, _ = since
        cal, n = self.cpu - cal0, self.slices - n0
        raw = max(time.process_time() - cpu0 - cal, 0.0)
        if n < MIN_SLICES:
            while self.slices < MIN_SLICES:  # a short run: time a few now
                self._tick(None, None)
            cal, n = self.cpu, self.slices
        return raw * REFERENCE_SLICE_S / (cal / n), raw
