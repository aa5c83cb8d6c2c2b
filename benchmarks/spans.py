"""In-memory spans for the traced benchmark run.

A span records a name, start and end (time.monotonic, which is one
system-wide clock on Linux, so spans from a CLI child line up with the
parent's), the index of the span that was open when it started, the op it
belongs to, and the exception type if the call raised.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, name, start, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "error": self.error,
                "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = None

    def current(self):
        """Index of the innermost open span, or None."""
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str, **attrs):
        record = Span(name, time.monotonic(), self.current(), self.op,
                      attrs or None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.monotonic()
            self._open.pop()

    def wrap(self, name: str, fn, attrs_of=None):
        """fn with a span around every call; attrs_of(args, result) adds
        counts measured at the boundary."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    record.attrs = attrs_of(args, result)
                return result
        return traced

    def add(self, name: str, start: float, end: float, parent=None,
            error=None, attrs=None) -> int:
        """Append a finished span, for spans timed elsewhere (a child
        process); returns its index."""
        record = Span(name, start, parent, self.op, attrs)
        record.end = end
        record.error = error
        self.spans.append(record)
        return len(self.spans) - 1

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({**extra, "spans": [s.as_dict() for s in self.spans]},
                      fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]
