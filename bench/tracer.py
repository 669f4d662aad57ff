"""Call-boundary tracer for the vanetlab benchmark.

The tracer replaces public functions and methods of the program with
timing wrappers from the outside and puts every original back on
`restore()`. Each wrapped boundary is aggregated as (calls, inclusive
seconds, self seconds), so memory stays bounded however many events a
run executes; coarse boundaries (stages, scenarios, models) also record
one span each with the id of the span that caused it. Self time is a
call's duration minus the time its wrapped children took.

Boundaries too hot to time are counted with `count()` instead, which
adds no clock reads.
"""

from __future__ import annotations

import collections
import itertools
import time

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: collections.Counter = collections.Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self._stack: list[list] = [[0.0, 0]]  # per open call: [child_s, span id]
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._tallies: list[tuple[str, itertools.count]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first, and fold the
        count-only tallies into `counts`."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        for name, ticks in self._tallies:
            self.counts[name] += next(ticks)
        self._tallies.clear()

    def wrap(self, owner, attr: str, name, *, span: bool = False, after=None) -> None:
        """Time every call of `owner.attr`.

        `name` is the boundary name, or a callable that derives it from
        the call's positional arguments. `after(result, *args)` runs once
        the call has returned, outside its timed interval.
        """
        orig = getattr(owner, attr)
        stack, totals, spans, ids = self._stack, self.totals, self.spans, self._ids
        clock = time.perf_counter
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            key = name if fixed else name(*args)
            parent = stack[-1]
            frame = [0.0, next(ids) if span else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                agg = totals.get(key)
                if agg is None:
                    agg = totals[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if span:
                    spans.append((frame[1], parent[1], key, t0, t1))
            if after is not None:
                after(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without timing them."""
        orig = getattr(owner, attr)
        ticks = itertools.count()
        tick = ticks.__next__

        def wrapper(*args, **kwargs):
            tick()
            return orig(*args, **kwargs)

        self._patch(owner, attr, wrapper)
        self._tallies.append((name, ticks))

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]
