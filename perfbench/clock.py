"""Timing for the benchmark: one clock shared by all processes, and a
calibration that scales host speed out of the reported times.

Why the scaling: on a shared 2-core host the same pure-Python pass runs at
speeds up to 2x apart, in phases of seconds to minutes, and CPU time moves
with wall time, so neither clock alone repeats from run to run.  The worker
and the runner therefore time a fixed piece of work (a pure-Python loop, or
for process starts a probe process) before and after each timed operation,
and report ``measured * nominal / mean(before, after)``: seconds on a host
where the calibration takes its nominal time.  The bracketing samples see
the host in the state the operation saw, which makes the scaled times repeat:
over ten runs of each workload on the reference host the quartile spread of
``wall_s`` was 3-5% scaled against 21-64% raw.  The raw medians go into the
run record.
"""

from __future__ import annotations

import subprocess
import sys
import time
from math import comb

# CLOCK_MONOTONIC is system-wide, so a spawn time taken in the parent and a
# ready time taken in the child are on one scale.
_CLOCK = time.CLOCK_MONOTONIC

def now() -> float:
    return time.clock_gettime(_CLOCK)


def calibration_loop(n: int = 5000) -> int:
    """Fixed work in the idiom of the package: tuples, dicts, frozensets,
    generator sums and binomials."""
    acc = 0
    table: dict = {}
    for i in range(n):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + 1
        col = frozenset(range(i % 9))
        acc += sum(a for a in col if a & 1) - comb(len(col), 2)
    return acc + len(table)


def _loop_seconds() -> float:
    start = now()
    calibration_loop()
    return now() - start


def _spawn_seconds() -> float:
    start = now()
    subprocess.run(SPAWN_PROBE, capture_output=True, check=True, timeout=60)
    return now() - start


class Calibration:
    """A fixed piece of work timed next to the work being measured."""

    def __init__(self, measure, nominal_s: float):
        self.measure = measure
        self.nominal_s = nominal_s

    def scale(self, before: float, after: float) -> float:
        """Multiplier to reference-host seconds for work between two samples."""
        return self.nominal_s / ((before + after) / 2)


# In-process work is scaled by the loop.  Work that starts processes is
# scaled by starting one: process start-up slows less than the loop when
# the host is busy (on the reference host a CLI request slowed 0.72x as much
# as the loop, and 1.01x as much as this probe).  The nominal times are the
# reference host's in its fast phase (2 cores, Python 3.11); they only set
# the unit of the reported times.
SPAWN_PROBE = [sys.executable, "-c", "import argparse, dataclasses, fractions, json"]
LOOP = Calibration(_loop_seconds, 0.0055)
SPAWN = Calibration(_spawn_seconds, 0.05)
