"""In-memory spans and the percentile helper.

A span is recorded around each call the benchmark makes into a layer's
public function. Spans of one question (or one loop stage) share a trace
id; a span's parent is the span that was open when it started. Self time
is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    trace_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; when disabled, span() only yields."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace_id = ""

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), math.nan, parent, self.trace_id, attrs)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(s.duration - covered)
    return result


class TooFewSamples(ValueError):
    pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; refuses unless at least ten samples lie
    beyond it, so a reported tail is never one or two outliers."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < 10:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {n - rank} beyond it; need at least 10"
        )
    return ordered[rank - 1]
