"""In-memory span recorder for one traced CLI invocation.

A span is ``(id, parent, name, start, end, attrs)``; ``start`` and ``end``
come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from
forked workers share the parent's time base).  Span ids are ``"<pid>.<n>"``,
unique across the processes of one invocation, and every file written
carries the invocation's run id.

Spans stay in memory.  The main process writes its spans once, when the
invocation ends (``Tracer.flush``).  A forked worker inherits the open span
stack, so its first span's parent is the span that forked it; the worker
writes its own spans each time its outermost span closes, because pool
workers are terminated without running exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self, run_id: str, out_dir: Path):
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.fork_depth = 0
        self._next = 0
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.pid = os.getpid()
        self.fork_depth = len(self.stack)
        self._next = 0
        self._flushes = 0

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        may add counters to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{self.pid}.{self._next}"
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self.stack.pop()
                extra = attrs(args, kwargs, result) if (ok and attrs) else None
                if not ok:
                    extra = {"error": True}
                self.spans.append((sid, parent, name, start, end, extra))
                if self.pid != self.root_pid and len(self.stack) == self.fork_depth:
                    self.flush()
            return result

        return traced

    def flush(self) -> None:
        """Write the spans recorded in this process since the last flush."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}-{self._flushes}.json"
        self._flushes += 1
        doc = {"run_id": self.run_id, "pid": self.pid, "spans": self.spans}
        path.write_text(json.dumps(doc))
        self.spans = []


def load_spans(out_dir: Path, run_id: str) -> list[tuple]:
    """All spans of one invocation, from every process that wrote any."""
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        if doc["run_id"] != run_id:
            raise ValueError(f"{path.name} belongs to run {doc['run_id']}, not {run_id}")
        spans.extend(tuple(s) for s in doc["spans"])
    return spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children of one span may overlap (forked workers run side by side), so
    the covered part is the union of their intervals clipped to the parent.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _extra in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _extra in spans:
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(sid, [])
            if min(hi, end) > max(lo, start)
        ]
        out[sid] = (end - start) - union_length(clipped)
    return out


def outermost(spans: list[tuple], names: set[str]) -> list[tuple]:
    """Spans named in ``names`` that have no ancestor named in ``names``,
    so that summing their durations counts nested calls once."""
    by_id = {s[0]: s for s in spans}
    found = []
    for span in spans:
        if span[2] not in names:
            continue
        parent = span[1]
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent][2] in names:
                nested = True
                break
            parent = by_id[parent][1]
        if not nested:
            found.append(span)
    return found
