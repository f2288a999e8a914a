"""Machine-speed probe used to scale the benchmark's time metrics.

On a shared virtual machine the same single-threaded code can run 40-100%
slower for tens of seconds while other tenants are busy.  Every timed phase is
therefore bracketed by two probes, a fixed loop of dict, integer and numpy
gather work, and its time is scaled by REF_PROBE_S / (mean of the two probes):
the result is the time the phase would have taken at the probe speed of the
reference machine.  Raw times are kept beside the scaled ones in the run
record.  The probe is benchmark code only; the package is never called.
"""

import gc
import statistics
import time

import numpy as np

# Probe time on the 2-vCPU machine the benchmark was written on, when idle.
REF_PROBE_S = 0.0030

_A = np.arange(100_000, dtype=np.int64)
_IDX = (_A * 7919) % 100_000


def _loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(15_000):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + 1
        acc += i % 13
    acc += int(_A[_IDX].sum() & 1)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for one probe loop: the median of five back-to-back runs.

    The garbage collector is off meanwhile: a collection of the heap the
    program left behind would slow the probe, not the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(5))
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A phase's time at reference speed, given the probes around it."""
    return seconds * 2 * REF_PROBE_S / (before + after)
