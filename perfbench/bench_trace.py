"""In-memory span recording for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into ``rbc``; the
library itself is not instrumented.  A span is (name, start, end, parent,
op): ``parent`` is the index of the enclosing span or -1, ``op`` is the id
of the benchmark operation the call belongs to.  Spans stay in memory until
the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import math
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through and nothing is kept."""

    def call(self, name, op, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: every call through ``call`` becomes one span."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._current = -1

    def call(self, name, op, fn, *args, **kwargs):
        parent = self._current
        span = [name, 0.0, 0.0, parent, op]
        self._current = len(self.spans)
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._current = parent

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def write(self, fh, origin: float) -> None:
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"workload": self.workload, "name": name,
                                 "start": start - origin, "end": end - origin,
                                 "parent": parent, "op": op}) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; values need not be sorted."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]
