"""Call tracing from outside the program: wrap named functions, aggregate
calls, total time and self time per boundary on an in-memory stack, and
keep full spans only for the few coarse boundaries.

A boundary's self time is its call's duration minus the time its wrapped
descendants took. Per-call boundaries are aggregated rather than stored,
so a run with millions of calls holds one duration per call in a float
array and no span objects; spans (id, name, start, end, parent) are kept
for coarse boundaries only and written out when the run ends.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Optional

import numpy as np

# after(counters, args, kwargs, result): runs inside the boundary's frame.
AfterHook = Callable[[dict, tuple, dict, object], None]


class BoundaryStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")

    def p50_s(self) -> float:
        if not self.durations:
            return 0.0
        return float(np.median(np.frombuffer(self.durations, dtype=float)))


class Tracer:
    """Aggregates wrapped calls; `coarse` names also get full spans."""

    def __init__(
        self,
        coarse: Iterable[str] = (),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.coarse = frozenset(coarse)
        self.stats: dict[str, BoundaryStats] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[int, str, float, float, Optional[int]]] = []
        # frames: [name, start, time covered by wrapped children, span id or None]
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- aggregation -------------------------------------------------------

    def enter(self, name: str) -> None:
        span_id = None
        if name in self.coarse:
            span_id = self._next_span
            self._next_span += 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = BoundaryStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        stats.durations.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name, start, end, self._open_span()))

    def _open_span(self) -> Optional[int]:
        """Id of the innermost coarse span still open, if any."""
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def add_span(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a span that is not a function call (a training episode)."""
        self.spans.append((self._next_span, name, start, end, parent))
        self._next_span += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Optional[AfterHook] = None) -> Callable:
        enter, exit_, counters = self.enter, self.exit, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counters, args, kwargs, result)
                return result
            finally:
                exit_()

        return wrapper

    def patch(self, owner: object, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        """Replace owner.attr (a module global or a class attribute) with a
        traced wrapper; restore() puts the original back."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[tuple]):
        """Patch every (owner, attr, name, after) target for the duration."""
        try:
            for owner, attr, name, after in targets:
                self.patch(owner, attr, name, after)
            yield self
        finally:
            self.restore()

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "boundaries": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "us_per_call_p50": 1e6 * s.p50_s(),
                }
                for name, s in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
        }
