"""Correct timed intervals for the host's changing CPU speed.

On a shared host the same pure-Python work can run at two or more speeds
that differ by up to 1.6x, each lasting from seconds to minutes, so one
15-second pass can read 15 s or 24 s.  A probe running on another core does
not follow this process's speed (its own core changes state independently),
so the probe runs in this process: every ``INTERVAL`` seconds a SIGALRM
handler times a fixed loop in CPU time.  The loop's speed relative to
``REF_S`` gives the speed of the interval around it, and

    corrected(a, b) = (b - a) * mean(REF_S / d_i) - (probes in [a, b]) * REF_S

is the interval's length in reference seconds with the probes' own time
removed.  ``REF_S`` is a constant, so corrected times compare across runs;
it is close to the loop's time at full speed on a 2-core x86 host with
Python 3.11, so corrected times read close to uncontended seconds there.

Timers are not inherited across fork, so Pool workers are not probed.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.01
LOOPS = 1500
REF_S = 100e-6


def _loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


class SpeedProbe:
    """Samples this process's speed while installed (a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durs: list[float] = []
        self._old = None

    def _sample(self, signum, frame) -> None:
        # CPU time, so that a Pool worker sharing this core does not read
        # as a slow host
        c0 = time.thread_time()
        self.starts.append(time.perf_counter())
        _loop()
        self.durs.append(time.thread_time() - c0)

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self, a: float, b: float) -> float:
        """Mean speed relative to the reference over the probes in [a, b]."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        if i == j:
            return 1.0
        return sum(REF_S / d for d in self.durs[i:j]) / (j - i)

    def corrected(self, a: float, b: float, margin: float = 0.0) -> float:
        """Reference seconds of [a, b]; speed read over [a - margin, b + margin]."""
        inside = bisect.bisect_right(self.starts, b) - bisect.bisect_left(self.starts, a)
        return (b - a) * self.speed(a - margin, b + margin) - inside * REF_S
