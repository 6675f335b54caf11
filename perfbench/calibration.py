"""Fixed reference work that measures how slow the machine runs right now.

On a shared host the speed of a core drifts by a fifth or more over seconds
(other tenants' load on the same physical cores, caches and memory), and
CPU time does not hide that: on a 2-vCPU Xeon VM, twelve 8-second runs of
one seed of seq-questions spread from 83 to 106 queries per CPU second.
The timed loop therefore runs a calibration pass between queries (every
0.1 s, or every second for CLI calls) and divides each query's CPU time by
the mean slowness of the run's passes: a pass's CPU time over its time at
the reference speed.  Over ten seeds of each workload that cut the quartile
spread of the end-to-end times from 0.05-0.29 of their median to 0.02-0.07,
but for one tail at 0.14.

Each workload uses the pass most like its own work.  The in-process task
mixes what the library spends its time on: Fraction arithmetic, small
containers, sorting, and numpy calls on arrays of a thousand floats.  The
process pass starts a fresh interpreter that imports numpy, as a CLI call
and set-up do; the in-process task followed those badly.  (Set-up varies
from process to process more than any pass follows; the pass takes out the
drift between runs.)  Neither pass
touches flexnum, so a change to the program cannot change them.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# CPU seconds a pass takes at the reference speed: about the median pass on
# a 2-vCPU Intel Xeon VM at 2.0 GHz, where task passes took 2.0-4.0 ms and
# process passes 0.22-0.36 s.
REFERENCE_TASK_S = 0.0035
REFERENCE_PROCESS_S = 0.35

_X = np.linspace(0.0, 1.0, 1000)


def _task() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc = (acc + q * q - Fraction(1, i % 11 + 1)) % 3
        table[(i % 13, q)] = acc
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    y = _X
    for _ in range(16):
        y = np.cumsum(np.sin(y)) / 1000.0
    return len(ordered) + int(y[-1] > 0)


def task_slowness() -> float:
    """CPU time of one pass of the in-process task, over its reference time."""
    t = time.process_time()
    _task()
    return (time.process_time() - t) / REFERENCE_TASK_S


def cpu_seconds() -> float:
    """CPU time of this process since it started, plus that of its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def process_slowness() -> float:
    """CPU time of a fresh interpreter that imports numpy, over its reference time.

    ``-E`` keeps ``PYTHONPATH`` (and so the program) out of it.
    """
    t = cpu_seconds()
    subprocess.run([sys.executable, "-E", "-c", "import numpy"], check=True, timeout=60)
    return (cpu_seconds() - t) / REFERENCE_PROCESS_S
