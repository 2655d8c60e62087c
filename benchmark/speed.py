"""Machine-speed reference used to normalise the end-to-end times.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x
as other tenants load the host; CPU time drifts with wall time, so it does
not help.  Timing a fixed piece of reference work right before and right
after each timed step gives the machine's speed at that moment, and
``normalise`` rescales the step's wall time to the speed at which the
reference takes ``NOMINAL_S``.  This tracks the machine for steps of up to
about a second, which is why the workloads keep their operations short.

The reference mixes interpreter work (integer loop, float formatting and
parsing) with cache-resident numpy work (sin, FFT), like the layers under
test.  It does not touch the program, so a change to the program cannot move
it.  Changing this file rescales every normalised time: do not change it in
a change that is measured against its parent.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.030

_X = np.arange(1 << 15) * 0.001


def _reference_work() -> int:
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    text = ",".join(repr(i * 0.37) for i in range(10_000))
    acc += len([float(f) for f in text.split(",")])
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(np.sin(_X)))
    return acc


def reference_seconds() -> float:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def normalise(seconds: float, *reference: float) -> float:
    """Rescale a wall time by the mean of the reference times around it."""
    return seconds * NOMINAL_S / statistics.fmean(reference)
