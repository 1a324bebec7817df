"""Machine-speed reference: times reported at a fixed reference speed.

On small shared machines the CPU's speed itself drifts: a fixed loop timed
in 100 ms slices alternates between a fast and a slow state lasting
around a second, and five-second means of the same loop differ by up to
50 % between runs.  Any wall time taken across such a run moves with the
machine, not with the code.

So while a run measures, a timer signal interrupts it every
:data:`PERIOD_S` to time one short slice of a fixed pure-Python loop (the
*reference slice*).  Every measured interval is then re-expressed at the
reference speed: its parts between slices are scaled by
``NOMINAL_S / slice_time``, with ``slice_time`` the median of the slices
around that part, and the slices' own time is left out.  A time thus
reads as it would on a machine that runs the slice in :data:`NOMINAL_S`.
Measured on a 2-core VM, the ratio of replay time to slice time stayed
within about 3 % across runs whose raw replay times differed by 65 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

perf = time.perf_counter

#: Wall seconds between reference slices.
PERIOD_S = 0.025
#: Iterations of the reference loop in one slice.
SLICE_LOOPS = 2000
#: Seconds one slice takes at the reference speed (about what a 2-core VM
#: measured in its fast state).
NOMINAL_S = 0.00035
#: Slices on each side of a moment that its local speed is taken from.
HALF_WINDOW = 2


def _loop(n: int) -> int:
    table = {}
    total = 0
    for i in range(n):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


class Reference:
    """Reference slices taken on a timer while the context is entered."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._old_handler = None

    def take_slice(self, *_signal_args) -> None:
        t0 = perf()
        _loop(SLICE_LOOPS)
        self.durations.append(perf() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "Reference":
        self.take_slice()
        self._old_handler = signal.signal(signal.SIGALRM, self.take_slice)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.take_slice()

    def _scale(self, j: int) -> float:
        """Reference seconds per wall second just before slice ``j``."""
        lo = max(0, j - HALF_WINDOW)
        hi = min(len(self.durations), j + HALF_WINDOW)
        if hi <= lo:
            lo, hi = max(0, hi - HALF_WINDOW), hi
        return NOMINAL_S / statistics.median(self.durations[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the work done in ``[t0, t1]``, slices excluded."""
        j = bisect.bisect_left(self.starts, t0)
        total = 0.0
        cur = t0
        while j < len(self.starts) and self.starts[j] < t1:
            total += (self.starts[j] - cur) * self._scale(j)
            cur = self.starts[j] + self.durations[j]
            j += 1
        return total + max(0.0, t1 - cur) * self._scale(j)

    def raw_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds in ``[t0, t1]`` with the slices taken out."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.durations[lo:hi])
