"""Machine-speed gauge: a fixed pure-Python kernel timed between jobs.

The shared machine's speed drifts by half over minutes, and every job of a
run drifts with it.  So every round process times this kernel, which is
benchmark code that no change to degcalc touches, once before each job and
once after the last, and scales its job times by ``REFERENCE_S`` over the
kernel's mean time in that round: job times are reported at the speed at
which the kernel takes ``REFERENCE_S``.  The kernel does what the program
mostly does, interpreted arithmetic on Fractions kept in dicts, so it slows
down with the program; the raw wall times are kept in the run record.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: the kernel's time at the reference speed, a 2-core x86-64 container
#: (Python 3.11.7) in its fast state
REFERENCE_S = 0.6e-3
#: kernel runs timed after set-up, to scale the set-up time
SETUP_SLICES = 100

_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}


def _kernel():
    """Square a fixed 12-term polynomial with Fraction coefficients."""
    out = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _POLY.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


def kernel_seconds():
    """One timed run of the kernel, with the garbage collector off so that
    the program's heap does not slow the gauge."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Kernel times of one round; ``scale()`` turns its wall times into
    times at the reference speed."""

    def __init__(self):
        self.samples = []

    def tick(self, n=1):
        self.samples += [kernel_seconds() for _ in range(n)]

    def scale(self):
        return REFERENCE_S / statistics.mean(self.samples)
