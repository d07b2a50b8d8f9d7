"""Unit timing paced by a fixed reference loop.

The machines this runs on change speed by up to 2x within seconds, for
every process alike (CPU time tracks wall time), so raw unit times of
two runs differ by far more than the changes worth detecting.  The
clock runs a short, fixed reference loop at every segment boundary (and
every `PERIOD_S` seconds inside long segments) and reports each timed
segment scaled to the reference's nominal speed:

    scaled = wall * REFERENCE_S / (mean reference time at and within the segment)

Time spent in the reference is excluded from every segment.  Each
workload names the reference that matches the work its units spend
their time on, interpreter-bound or memory-bound; neither calls
sparsebeam, so a change to the program cannot change them.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import spans

REFERENCE_S = 1e-3  # nominal duration of one reference loop
PERIOD_S = 0.1
_SMALL = np.arange(50.0)
_PHASES = 1j * np.linspace(0.0, 1.0, 8192)
_TABLE = np.arange(1 << 20, dtype=np.float64)  # 8 MB, larger than cache
_STRIDED = np.arange(0, 1 << 20, 16)


def interpreter_reference() -> float:
    """Small numpy calls and vectorized complex exponentials, like the
    sweeps' optimizer loop and channel generation and the BFS loop;
    returns its wall seconds."""
    start = time.perf_counter()
    for _ in range(100):
        float(np.exp(_SMALL).sum())
        [j * j for j in range(20)]
    for _ in range(2):
        np.exp(_PHASES).sum()
    return time.perf_counter() - start


def memory_reference() -> float:
    """Strided gathers from a table larger than cache, like the attention
    kernel's key and value gathers; returns its wall seconds."""
    start = time.perf_counter()
    for _ in range(2):
        _TABLE[_STRIDED].sum()
    return time.perf_counter() - start


def scaled(wall: float, ref: float) -> float:
    return wall * REFERENCE_S / ref


class UnitClock:
    """Times units made of one or more segments (`start`, then `split`
    at each segment end).  The reference runs at every segment boundary
    and, while the clock is entered as a context manager, every
    `PERIOD_S` seconds inside long segments; a segment is scaled by the
    mean of the samples at its two ends and within it.  `tracer` puts
    the samples in `trace.reference` spans."""

    def __init__(self, reference):
        self.reference = reference
        self.tracer = None
        self.units: list[tuple[float, float]] = []  # (wall s, scaled s)
        self._segments: list[tuple[float, float]] = []
        self._inside: list[float] = []  # timer samples in the open segment
        self._paused = 0.0
        self._busy = False
        self._ref = 0.0
        self._open = (0.0, 0.0)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _run_reference(self) -> float:
        self._busy = True
        try:
            return spans.run(self.tracer, "trace.reference", self.reference)
        finally:
            self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a boundary sample is running; nesting would inflate it
            return
        start = time.perf_counter()
        self._inside.append(self._run_reference())
        self._paused += time.perf_counter() - start

    def _open_segment(self, ref: float) -> None:
        self._ref = ref
        self._inside = []
        self._open = (time.perf_counter(), self._paused)

    def start(self) -> None:
        """Open a unit's first segment; drops an unfinished unit."""
        self._segments = []
        self._open_segment(self._run_reference())

    def split(self, unit_done: bool) -> None:
        """Close the open segment and open the next one."""
        start, paused = self._open
        wall = time.perf_counter() - start - (self._paused - paused)
        ref = self._run_reference()
        samples = [self._ref, ref, *self._inside]
        self._segments.append((wall, scaled(wall, sum(samples) / len(samples))))
        if unit_done:
            self.units.append((sum(w for w, _ in self._segments), sum(s for _, s in self._segments)))
            self._segments = []
        self._open_segment(ref)
