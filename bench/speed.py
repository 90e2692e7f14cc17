"""The speed the shared host gives the benchmark, sampled during the run.

The benchmark's host is shared, and the speed one process gets from it
drifts by a third and more, over both fractions of a second and tens of
seconds, longer than a run. That drift, not the program, set the spread
between runs of the same code. ``Probe`` measures it where the program
runs: on a wall-clock timer, every ``INTERVAL_S``, a SIGALRM handler
times a fixed pure-Python loop (calls, set membership, dict stores; it
does not touch ``setforge``) in the middle of whatever the program is
doing (a long call into C delays the sample to its end). The mean loop
time of a child is the host's slowness while it ran; ``factor`` turns
it into the ratio by which ``run.py`` scales the child's times to the
speed where the benchmark was defined. A slow phase of the host slows
the loop much as it slows the program and mostly cancels out (less
so for memory-bound stretches, which is most of the spread that is
left), while a slower program leaves the loop as it is and shows in
full.

The handler's own time is counted and taken off the times of the ops
it interrupted. A sampler in another process does not work: the two
vCPUs of the host slow down independently of each other.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.1
ITERATIONS = 10_000
# Mean time of one loop where the benchmark was defined (2-vCPU x86-64
# VM, Python 3.11.7). It only sets the scale of the reported times, so
# that they read as seconds on that machine.
NOMINAL_S = 0.0022

# A sample keeps no object it makes alive (the table holds only cached
# small ints, the totals live in an array): one would pin the allocator
# arena it landed in, among the program's objects, and raise the peak
# RSS the benchmark reports.
_MEMBERS = frozenset(range(0, 4000, 3))
_TABLE = dict.fromkeys(range(1024), 0)


def _member(key: int) -> bool:
    return key in _MEMBERS


def _loop() -> None:
    hits = 0
    for i in range(ITERATIONS):
        if _member(i):
            hits += 1
        _TABLE[i & 1023] = hits & 255


class Probe:
    """Samples the loop from SIGALRM while it is started; ``totals``
    gives the number of samples and their summed wall and CPU time."""

    def __init__(self) -> None:
        self._totals = array("d", (0.0, 0.0, 0.0))

    def _sample(self, signum: int, frame: object) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        _loop()
        self._totals[1] += time.perf_counter() - wall0
        self._totals[2] += time.process_time() - cpu0
        self._totals[0] += 1

    def start(self) -> None:
        """Take a first sample at once, so that even a child too short
        for the timer has one, then one every ``INTERVAL_S``."""
        self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def totals(self) -> dict[str, float]:
        samples, wall_s, cpu_s = self._totals
        return {"samples": int(samples), "wall_s": wall_s, "cpu_s": cpu_s}


def factor(totals: dict[str, float], clock: str) -> float:
    """Nominal over measured mean loop time, on ``clock``."""
    return NOMINAL_S / (totals[clock] / totals["samples"])
