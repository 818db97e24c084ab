"""In-memory spans for the traced benchmark run.

A `Tracer` wraps library functions as their calling modules bind them, so the
library itself is left untouched. Each call becomes a span (id, name, start,
end, parent, operation id); spans stay in memory until the run ends and are
then aggregated into self times and written out.
"""
from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "sid name start end parent op")

SETUP_OP = -1  # operation id of the set-up span


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return {
        sp.sid: (sp.end - sp.start) - union_length(children.get(sp.sid, ()), sp.start, sp.end)
        for sp in spans
    }


class Tracer:
    """Records spans and per-operation counts; patches module attributes."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)  # (op, key) -> value
        self.op = SETUP_OP
        self._stack = []
        self._next_id = 0

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.op, key)] += value

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op))

    def wrap(self, name: str, fn, on_result=None):
        """`fn` recording one span per call; `on_result(tracer, result)` runs
        after the span closes, outside the measured interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each `(module, attr)` in `targets` by `make(tracer, original)`
        for the duration of the block, restoring the originals afterwards."""
        saved = []
        try:
            for module, attr, make in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(self, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """op -> {"<span>.calls", "<span>.self_s", count keys} -> value."""
        out = defaultdict(lambda: defaultdict(float))
        selfs = self_times(self.spans)
        for sp in self.spans:
            out[sp.op][sp.name + ".calls"] += 1
            out[sp.op][sp.name + ".self_s"] += selfs[sp.sid]
        for (op, key), value in self.counts.items():
            out[op][key] += value
        return out

    def write_csv(self, path) -> None:
        selfs = self_times(self.spans)
        origin = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "op", "self_s"])
            for sp in sorted(self.spans, key=lambda s: s.sid):
                w.writerow([sp.sid, sp.name, f"{sp.start - origin:.9f}",
                            f"{sp.end - origin:.9f}", sp.parent, sp.op,
                            f"{selfs[sp.sid]:.9f}"])


def per_operation(totals: dict, ops) -> dict:
    """What one operation costs in a process that sets up once: the set-up's
    totals plus the mean of the given operations' totals."""
    ops = list(ops)
    keys = set(totals.get(SETUP_OP, {}))
    for op in ops:
        keys |= set(totals.get(op, {}))
    out = {}
    for key in keys:
        setup = totals.get(SETUP_OP, {}).get(key, 0.0)
        mean = sum(totals.get(op, {}).get(key, 0.0) for op in ops) / len(ops) if ops else 0.0
        out[key] = setup + mean
    return out
