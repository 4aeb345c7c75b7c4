"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own files around each call into a
layer of ``repro``; the program itself is not instrumented. Spans of one
request share its root span as ``parent``. They stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Spans:
    """Append-only list of ``(id, parent, name, start_s, end_s)`` spans."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._origin = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        """Record one span from clock readings already taken."""
        span_id = len(self.records)
        self.records.append((span_id, parent, name, start, end))
        return span_id

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record a span around a ``with`` block; yields its id."""
        span_id = len(self.records)
        self.records.append(None)  # reserve the id for children
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.records[span_id] = (span_id, parent, name, start,
                                     time.perf_counter())

    def add_tracer(self, tracer, start: float, parent: int) -> None:
        """Lay a package ``Tracer``'s stage spans end to end from
        ``start`` as children of ``parent`` (stages run in sequence)."""
        t = start
        for s in tracer.spans:
            self.add(f"pipeline.{s.name}", t, t + s.wall_seconds, parent)
            t += s.wall_seconds

    def nbytes(self) -> int:
        """Approximate memory the span store holds."""
        size = sys.getsizeof(self.records)
        for r in self.records:
            size += sys.getsizeof(r) + sum(sys.getsizeof(v) for v in r)
        return size

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [
                [i, p, n, s - self._origin, e - self._origin]
                for i, p, n, s, e in self.records
            ],
        }
        path.write_text(json.dumps(payload))
