"""Machine-speed calibration for timing on a shared machine.

On a shared VM the speed a process gets drifts by tens of percent within
seconds, because of other tenants.  A worker therefore times a fixed
pure-Python loop (Fractions and dicts, the kind of work the library does)
next to every operation: twice a second from a timer signal while an
operation runs in-process, and between operations.  Each operation's wall
time, minus the time spent in the loop, is then scaled by REF_S over the
mean loop time around it, which gives seconds on a machine that runs the
loop in REF_S.  The raw wall times are reported as well.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Dict, List, Tuple

REF_S = 0.0165  # the loop's time on a quiet machine of the kind the benchmark was built on
PERIOD_S = 0.5


def loop() -> float:
    """Time one run of the calibration loop."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 97, i)
        table[i % 3001] = table.get(i % 2003, 0) + i
        if i % 1000 == 0:
            acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**12 + 1)
    return time.perf_counter() - t0


class Sampler:
    """Collects (time, loop seconds) samples and the time they took."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.stolen = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, loop()))
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, t0: float, t1: float) -> float:
        """Mean loop time over the samples in [t0, t1] plus the last one
        before t0 and the first one after t1."""
        inside = [d for s, d in self.samples if t0 <= s <= t1]
        before = [d for s, d in self.samples if s < t0][-1:]
        after = [d for s, d in self.samples if s > t1][:1]
        picked = inside + before + after
        return sum(picked) / len(picked)
