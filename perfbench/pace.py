"""Host-speed reference for untraced passes.

The CPU speed this benchmark gets can change by up to 2x for seconds at
a time when other work shares the machine, so the same pass can take
2.5 s in one minute and 4.0 s in the next.  To take that out, a fixed
unit of pure-Python work that calls no clcc code (tuples, frozensets,
dicts and a sort, like the program's own inner loops) is timed between
calls into clcc, at most every INTERVAL_S.  Each input's time is then
scaled by REF_S over the median unit time around it: the time the input
would take on a machine where the unit takes REF_S.  Time spent in the
unit is not counted in any input.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.2
REF_S = 0.013  # the unit's typical time on a shared 2-vCPU x86-64 VM, Python 3.11


def reference_unit() -> int:
    acc = 0
    seen: dict = {}
    for i in range(5000):
        t = (i % 97, str(i % 101), i % 7)
        s = frozenset((t, (t[0] + 1, t[1], t[2])))
        seen[s] = t
        acc += len(seen) + hash(t) % 3
    return acc + len(sorted(seen, key=min))


class Pacer:
    """Times the reference unit between calls; `call` is the paced
    counterpart of `spans.direct_call`."""

    def __init__(self):
        self.at: list[float] = []
        self.unit_s: list[float] = []
        self.spent = 0.0  # seconds spent in the unit so far
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or start >= self._next:
            # a collection of the program's objects must not land in the unit
            gc.disable()
            try:
                reference_unit()
            finally:
                gc.enable()
            end = time.perf_counter()
            self.at.append(start)
            self.unit_s.append(end - start)
            self.spent += end - start
            self._next = end + INTERVAL_S

    def call(self, name: str, fn, *args, **kwargs):
        self.tick()
        return fn(*args, **kwargs)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median unit time from the last sample taken at or
        before `start` to the first taken at or after `end`."""
        lo = max(0, bisect_right(self.at, start) - 1)
        hi = min(len(self.at), bisect_left(self.at, end) + 1)
        return REF_S / statistics.median(self.unit_s[lo:hi])
