"""Host-speed reference: fixed pure-Python work timed between episodes.

The benchmark runs on shared hosts whose speed drifts: on the 2-core
development VM the same episode ran up to 1.6x slower for stretches of
seconds to a minute, and other code slowed down with it, so
the spread of a plain median over ten runs was set by when each run
happened, not by the program.  Each episode is therefore bracketed by two
timings of a fixed reference task that does not use the program: random
reads over an array and a dict larger than the L2 cache, building and
sorting small containers, and bisecting a sorted list and calling methods
on the slotted objects found there — the kinds of work the program does.
Memory-bound and call-bound work did not slow down alike: on a 4-minute
``mixed-backlog`` trace cut into 30 s windows, the spread of the window
medians was 0.138 raw, 0.052 scaled by a memory-bound task alone, 0.075
by a call-bound one alone and 0.031 by the geometric mean of the two.  The
episode's *scale* is the reference's time around it over
:data:`REFERENCE_S`; the gated times are divided by it and the gated
rates multiplied by it, so they read as times at a fixed reference host
speed.  The raw figures are printed beside them.

Program changes do not move the reference (it calls no ``repro`` code,
runs between episodes, outside their timing, and with the garbage
collector off), so a change in the program shows in full in the scaled
figures.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from bisect import bisect_left

#: About the reference task's time, in seconds, on the development host at
#: its fastest (Intel Xeon, 2 shared vCPUs, CPython 3.11).  A constant: it
#: only fixes the unit the scaled figures are expressed in.
REFERENCE_S = 0.032

#: Doubles the reference reads at random (3.2 MB, beyond the 2 MB L2
#: cache) and reads per timing; the table it looks keys up in has a
#: quarter as many entries.
_VALUES = 400_000
_READS = 30_000
#: Small containers built and sorted per timing.
_BUILDS = 7_500
#: Slotted objects in the sorted list, and bisect-and-scan steps per
#: timing (each calls a method on the eight objects after the bisection).
_SLOTS = 1_000
_SCANS = 12_000


class _Slot:
    __slots__ = ("start", "free")

    def __init__(self, start: float, free: int) -> None:
        self.start = start
        self.free = free

    def fits(self, need: int) -> bool:
        return self.free >= need


class HostSpeed:
    """The reference task and its data (built once, outside any timing)."""

    def __init__(self) -> None:
        rng = random.Random(20_260_917)  # fixed: the same task always
        self.values = array("d", range(_VALUES))
        self.index = array("l", (rng.randrange(_VALUES) for _ in range(_READS)))
        self.table = dict.fromkeys(range(_VALUES // 4), 1.0)
        self.keys = array("l", (i >> 2 for i in self.index))
        self.slots = [_Slot(float(i), i % 64) for i in range(_SLOTS)]
        self.starts = [slot.start for slot in self.slots]

    def _task(self) -> float:
        values, table = self.values, self.table
        total = 0.0
        for i in self.index:
            total += values[i]
        for k in self.keys:
            total += table[k]
        built = [(k, [k], {"k": k}) for k in self.keys[:_BUILDS]]
        built.sort(key=lambda item: -item[0])
        slots, starts = self.slots, self.starts
        for j in range(_SCANS):
            i = bisect_left(starts, (j * 7919) % _SLOTS)
            for slot in slots[i : i + 8]:
                if slot.fits(j & 63):
                    total += 1
        return total + built[0][0]

    def measure(self) -> float:
        """Seconds the reference task takes now (mean of two timings)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                self._task()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return sum(times) / len(times)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """How much slower than the reference speed the host ran an episode
        bracketed by reference timings ``before`` and ``after``."""
        return (before + after) / 2 / REFERENCE_S
