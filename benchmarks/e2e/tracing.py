"""In-memory spans around the calls the harness makes into each layer.

A span holds name, start, end, the span that caused it and a request
id.  Spans are kept in memory and written out once, when the run ends.
A layer's *self time* is its span's duration minus the part its child
spans cover.  Spans are recorded from the harness only; spans inside
``src/`` are a later change.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Span:
    """One timed interval; use as a context manager."""

    __slots__ = ("tracer", "name", "request", "parent", "index", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, request: int, parent: int | None):
        self.tracer = tracer
        self.name = name
        self.request = request
        self.parent = parent
        self.index = -1
        self.start = self.end = 0

    def child(self, name: str) -> "Span":
        return Span(self.tracer, name, self.request, self.index)

    def __enter__(self) -> "Span":
        # The index is taken on entry so that children, which finish
        # first, can already name their parent.
        self.index = len(self.tracer.spans)
        self.tracer.spans.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()


class _NoSpan:
    """What an op gets when tracing is off: every span is this no-op."""

    def child(self, name: str) -> "_NoSpan":
        return self

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NO_SPAN = _NoSpan()


class Tracer:
    """The span store of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.requests = 0

    def request(self, name: str) -> Span:
        """A root span: one request of a workload, with a fresh id."""
        self.requests += 1
        return Span(self, name, self.requests, None)

    def self_times_us(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        by_name: dict[str, list[float]] = {}
        for span, inner in zip(self.spans, covered):
            by_name.setdefault(span.name, []).append(
                (span.end - span.start - inner) / 1e3
            )
        return by_name

    def summary(self) -> dict[str, dict]:
        """Per span name: count and median self time."""
        return {
            name: {"count": len(values), "self_us_p50": statistics.median(values)}
            for name, values in sorted(self.self_times_us().items())
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.request]
                        for s in self.spans
                    ],
                    "self_time": self.summary(),
                },
                out,
            )
