"""In-memory spans recorded around the benchmark's calls into clcc.

A span is (name, start, end, parent, input id).  Spans stay in a list
while the run lasts and are written out once, at the end.  Self time is
a span's duration minus the durations of its direct children; summing
self time per name gives the time each layer spent in its own code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Tracer.spans
    item: Optional[str]


class Tracer:
    """Records spans; `call` is the traced counterpart of `direct_call`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item: Optional[str] = None

    def open(self, name: str, item: Optional[str] = None) -> int:
        if item is not None:
            self._item = item
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._item))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx] = self.spans[idx]._replace(end=end)
        if not self._stack:
            self._item = None

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0) -> dict[str, tuple[float, int]]:
        """name -> (summed self time in s, number of spans), over the spans
        recorded from index `since` on."""
        child_time = defaultdict(float)
        for sp in self.spans[since:]:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, sp in enumerate(self.spans[since:], start=since):
            acc = out[sp.name]
            acc[0] += (sp.end - sp.start) - child_time[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "item": sp.item,
                }) + "\n")


def direct_call(name: str, fn, *args, **kwargs):
    """Untraced call: the name is ignored."""
    return fn(*args, **kwargs)
