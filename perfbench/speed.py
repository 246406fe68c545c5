"""Times at a reference machine speed.

The benchmark's host is a shared virtual machine whose vCPUs each run at
one of two speeds, about 1.5 times apart. The speed switches from one tenth
of a second to the next and sometimes stays for minutes, so one run can be
slow from start to end. No statistic of wall times alone corrects that.

`Meter` probes the machine's speed while the benchmark runs: every
`INTERVAL_S` a SIGALRM handler times `probe_kernel`, a fixed piece of work
that uses no stlmimic code. An interval's time is its wall time, less the
time the probes took, scaled by `REFERENCE_S` over the mean probe time
inside it. The probe brackets the interval too. So a command that the
machine slowed by some factor reads about the same as on a fast machine,
while a change to the program's own work shows in full.

The kernel is a JSON round trip of dataset-like records. Of the kernels
tried (a float loop, a Value-node graph and its backward pass, small
numpy operations, JSON), it tracked the commands' own slowdowns best. The
garbage collector is off while it runs, so a probe never pays for a
collection of the program's heap.
"""

from __future__ import annotations

import gc
import json
import signal
import time

INTERVAL_S = 0.025  # time between probes
# About the probe's time, taken between commands, on the fast state of the
# reference machine (a 2-vCPU Intel Xeon KVM guest, Python 3.11): a metered
# interval reads as the seconds it would take there.
REFERENCE_S = 0.0014

_RECORDS = [
    {"agent_states": [[round(0.37 * i + 0.011 * j * j - 1.3, 6) for j in range(4)] for i in range(20)],
     "env_states": [[0.5 * i, -0.25 * i] for i in range(20)], "label": 1 - 2 * (k % 2)}
    for k in range(12)
]


def probe_kernel() -> float:
    """Time two JSON round trips of the fixed records, with GC off. The
    first meets the caches as the program left them, the second finds them
    warm; the pair tracked the commands' slowdowns better than either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(2):
            json.loads(json.dumps(_RECORDS))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probes the machine's speed every INTERVAL_S between start() and stop().

    mark() probes once and returns a mark; seconds(a, b) is the time between
    two marks at the reference speed."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.probes: list[float] = []  # probe times, in order
        self.spent = 0.0  # wall time inside probes, kernel and bookkeeping
        self._busy = False
        self._old_handler = None

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.probes.append(probe_kernel())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def mark(self) -> tuple:
        """(wall clock, probe time spent so far, index after this mark's probe)."""
        self._probe()
        return time.perf_counter(), self.spent, len(self.probes)

    def wall_seconds(self, a: tuple, b: tuple) -> float:
        """Wall time between two marks, less the probes in between."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def seconds(self, a: tuple, b: tuple) -> float:
        """Time between two marks at the reference speed."""
        probes = self.probes[a[2] - 1 : b[2]]
        return self.wall_seconds(a, b) * REFERENCE_S * len(probes) / sum(probes)
