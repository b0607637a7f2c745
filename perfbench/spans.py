"""In-memory span recorder for the traced passes of the benchmark.

A span has a name, a start, an end, the span that was open when it began
(its parent) and the pass it belongs to.  A span may also name the call it
*replicates*: bhmat is not instrumented, so the traced pass re-runs, after
a construction or CLI call, the public calls that it makes internally, and
times each as a replica span.  Subtracting those replicas from the call
estimates the call's own work (``replica_self``).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    pass_id: int
    replicates: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Untraced:
    """Stand-in for Tracer in untimed-layer passes: spans cost nothing."""

    on = False

    def span(self, name: str, replicates: int | None = None) -> Any:
        return nullcontext()


class Tracer:
    on = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, replicates: int | None = None) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), parent, name, self.pass_id, replicates, perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record.id
        finally:
            record.end = perf_counter()
            self._open.pop()

    def stage(self, call: int, name: str, fn: Callable[[], Any]) -> Any:
        """Run fn as a replica of the span ``call`` and return its result."""
        with self.span(name, replicates=call):
            return fn()

    def of_pass(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def dump(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name of duration minus the time of nested child spans."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - covered[s.id]
    return out


def replica_self(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called ``name`` minus their replicas."""
    replicated: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.replicates is not None:
            replicated[s.replicates] += s.duration
    return sum(s.duration - replicated[s.id] for s in spans if s.name == name)
