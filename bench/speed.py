"""Host-speed probes: timing in reference seconds.

The shared machines this benchmark runs on change speed by a quarter or
more within seconds, and the program's own timing cannot see it. While a
timed region runs, a fixed slice of interpreter work (the probe) runs
every PROBE_EVERY_S of the process's CPU time; how long it takes tracks
the host's speed at that moment. A region's reference seconds are its
host seconds, less the probes' own time, times the mean over the probes
of PROBE_REF_S / probe seconds: the time the region would take on a host
where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.0005  # about the fastest probe on a shared 2-core Xeon host


def probe() -> float:
    """Host seconds that one fixed slice of dict and integer work takes now."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(6000):
        k = i & 63
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


class Timer:
    """Times a `with` block in host and in reference seconds.

    One probe runs just before and one just after the block, outside its
    time, so a block too short for the interval timer still has two."""

    def __enter__(self) -> "Timer":
        self.inside: list[float] = []
        self.outside = [probe()]
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.host_s = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.outside.append(probe())

    def _sample(self, signum, frame) -> None:
        self.inside.append(probe())

    @property
    def probes(self) -> list[float]:
        return self.outside[:1] + self.inside + self.outside[1:]

    @property
    def reference_s(self) -> float:
        scale = statistics.fmean(PROBE_REF_S / p for p in self.probes)
        return (self.host_s - sum(self.inside)) * scale
