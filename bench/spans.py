"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a sleepstager module: its name
(``module.function``), start and end on the ``perf_counter`` clock, the
span that was open when it started, the operation it belongs to, and any
counts recorded at the same boundary. ``Tracer.wrapping`` puts a span
around every call the program makes to a module attribute, by replacing
the attribute for the duration of a block, so the program's own code is
timed and nothing in it changes. Spans stay in memory and are written out
when the run ends, so recording one costs a list append and two clock
reads.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int | None = None, **counts):
        """Time the body as a child of the innermost open span.

        ``op`` marks an operation's root span; nested spans inherit it.
        """
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = parent.op
        s = Span(len(self.spans), name, parent.id if parent else None, op, counts=dict(counts))
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, counts=None):
        """``fn`` with a span named ``name`` around each call.

        ``counts`` maps the call's result to counts stored on the span; it
        runs after the span has ended.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(out))
            return out

        return wrapper

    @contextmanager
    def wrapping(self, targets):
        """Span every call to each target while the block runs.

        A target is ``(owner, attribute, span name, counts)``: the module or
        class through which the program looks the function up at call time,
        and ``counts`` as for ``wrap``. The attributes are restored on exit.
        """
        saved = []
        try:
            for owner, attr, name, counts in targets:
                real = getattr(owner, attr)
                saved.append((owner, attr, real))
                setattr(owner, attr, self.wrap(real, name, counts))
            yield self
        finally:
            for owner, attr, real in reversed(saved):
                setattr(owner, attr, real)

    def named(self, name: str, op: int | None = None, parent: Span | None = None) -> list[Span]:
        """Spans called ``name`` in start order, of operation ``op`` or under ``parent``."""
        return [
            s
            for s in self.spans
            if s.name == name
            and (op is None or s.op == op)
            and (parent is None or s.parent == parent.id)
        ]

    def roots(self) -> list[Span]:
        """The root span of every operation."""
        return [s for s in self.spans if s.parent is None and s.op is not None]

    def child_seconds(self) -> dict[int, float]:
        """Summed duration of each span's direct children, by span id."""
        total: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                total[s.parent] = total.get(s.parent, 0.0) + s.seconds
        return total

    def coverage(self, span: Span) -> float:
        """Share of the span's time that its child spans cover."""
        return self.child_seconds().get(span.id, 0.0) / span.seconds

    def records(self) -> list[dict]:
        """Every span as a JSON-ready dict in start order.

        ``self_s`` is the span's time minus its children's; children never
        overlap because the run is single-threaded.
        """
        covered = self.child_seconds()
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "op": s.op,
                "start": s.start,
                "end": s.end,
                "self_s": s.seconds - covered.get(s.id, 0.0),
                "counts": s.counts,
            }
            for s in self.spans
        ]


def span_seconds(batch: int = 2000, batches: int = 5) -> float:
    """Median cost of one spanned call to an empty function, timed in batches."""
    costs = []
    for _ in range(batches):
        empty = Tracer().wrap(lambda: None, "empty")
        t0 = time.perf_counter()
        for _ in range(batch):
            empty()
        costs.append((time.perf_counter() - t0) / batch)
    return statistics.median(costs)
