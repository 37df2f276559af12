"""Reference-speed timing.

The speed of a shared 2-vCPU machine drifts by a third within seconds, and
wall time and process CPU time drift together. Every timed interval is
therefore scaled by a fixed reference loop that runs just before and just
after it: an interval of r raw seconds measured while one reference sample
takes s seconds is reported as r * NOMINAL_REF_S / s "reference-speed
seconds". The loop accumulates a 2x2 numpy matmul and a few scalar Python
operations per step, so it is bound by bytecode and numpy dispatch like
the program, and it depends on nothing in the program.
"""

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

REF_ITERATIONS = 1000
REF_REPEATS = 3          # one sample is the median of this many loops
NOMINAL_REF_S = 2.5e-3   # nominal duration of one loop

_REF_MATRIX = np.array([[0.6, 0.3], [-0.2, 0.7]])


def reference_loop():
    """Raw seconds of one pass of the fixed reference loop."""
    acc = np.zeros((2, 2))
    x = 0.0
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        acc += _REF_MATRIX @ _REF_MATRIX
        for j in range(10):
            x = 0.999 * x + j
    return time.perf_counter() - start


def reference_sample():
    """Median of REF_REPEATS loops, so one preemption does not skew it."""
    return statistics.median(reference_loop() for _ in range(REF_REPEATS))


def process_age():
    """Seconds since this process started, from the kernel's start time.

    Resolution is one clock tick (10 ms), small against a set-up of about
    a second.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class OpRecord:
    """One timed operation: raw seconds and the reference samples around it."""

    name: str
    round: int
    raw_s: float
    ref_before_s: float
    ref_after_s: float
    ok: bool

    @property
    def factor(self):
        return NOMINAL_REF_S / (0.5 * (self.ref_before_s + self.ref_after_s))

    @property
    def corrected_s(self):
        return self.raw_s * self.factor


class Meter:
    """Times operations and keeps their reference-corrected records.

    Consecutive operations share the reference sample between them. After
    untimed work (output checks), call invalidate() so the next operation
    measures a fresh "before" sample.

    setup_s, the time from process start to the first operation, is scaled
    by the run's time-weighted mean factor rather than by samples taken
    during set-up: import work follows the loop poorly over a second, but a
    slow phase of the machine lasting minutes slows set-up as it slows the
    operations.
    """

    def __init__(self, ref=reference_sample, clock=time.perf_counter, age=process_age):
        self._ref = ref
        self._clock = clock
        self._age = age
        self._last_ref = None
        self.records = []
        self.setup_raw_s = None

    def invalidate(self):
        self._last_ref = None

    def time_op(self, name, round_index, fn):
        """Run fn() as one timed operation; re-raises its exception."""
        before = self._last_ref if self._last_ref is not None else self._ref()
        if self.setup_raw_s is None:
            self.setup_raw_s = self._age()
        ok = False
        start = self._clock()
        try:
            result = fn()
            ok = True
        finally:
            raw = self._clock() - start
            after = self._ref()
            self._last_ref = after
            self.records.append(OpRecord(name, round_index, raw, before, after, ok))
        return result

    @property
    def setup_s(self):
        corrected = sum(r.corrected_s for r in self.records)
        return self.setup_raw_s * corrected / sum(r.raw_s for r in self.records)

    def ops_per_s(self, corrected=True):
        """Completed operations per (reference-speed) second of operation time."""
        done = sum(1 for r in self.records if r.ok)
        total = sum(r.corrected_s if corrected else r.raw_s for r in self.records)
        return done / total
