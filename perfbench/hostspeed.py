"""How fast the host runs Python right now, for timings that compare across runs.

On a shared VM the same grid pass can take twice as long from one minute
to the next: the host, not the program, changes speed, and it stays in
one speed for minutes at a time, longer than a run.  No amount of work
per run averages that out, so the grid workloads sample a fixed piece
of pure-Python work while they measure and rescale their timings to a
reference host on which one unit of that work takes
``settings.REFERENCE_UNIT_S``.  The unit is frozen here and touches no
program code, so a change to the program moves the rescaled timings
exactly as it moves the raw ones.

Samples are short and taken between the program's own steps, never
alongside them: a grid process samples between cells.  advise-live's
work runs in the server, so its load generator samples on the server's
CPU while the server is idle (:class:`advise.Cpus`).
"""

from __future__ import annotations

import statistics
import time

from perfbench import settings

_TABLE = tuple(range(4096))
_MAP = {i: 3 * i for i in range(1024)}


def _unit() -> int:
    """A fixed unit of interpreter work: indexing, dict lookups, integer arithmetic."""
    acc = 0
    table, get = _TABLE, _MAP.get
    for i in range(2000):
        j = (i * 7919) & 4095
        acc = (acc + table[j] + get(j & 1023, 0)) & 0xFFFFFF
    return acc


class Probe:
    """Samples of the host's speed, taken one short burst at a time."""

    def __init__(self):
        self.units: list[float] = []  # seconds per unit, one entry per sample
        self.seconds = 0.0  # time spent sampling

    def sample(self, seconds: float) -> None:
        """Run whole units for at least ``seconds``."""
        clock = time.perf_counter
        t0 = clock()
        n = 0
        while True:
            _unit()
            n += 1
            elapsed = clock() - t0
            if elapsed >= seconds:
                break
        self.units.append(elapsed / n)
        self.seconds += elapsed

    def slowdown(self) -> float:
        """How much slower than the reference host the samples ran (median)."""
        return statistics.median(self.units) / settings.REFERENCE_UNIT_S

    def last(self) -> float:
        """The slowdown of the latest sample alone."""
        return self.units[-1] / settings.REFERENCE_UNIT_S
