"""Hierarchical span tracing — the pipeline's one stage recorder.

One Table 2 run nests ``table2 → table2.cases → ...``; the tracer
records that nesting as a tree of :class:`Span` objects, serializes it
to JSONL for the ``python -m repro.obs tree`` renderer, and folds it
back into the flat per-stage sums every ``BENCH_*.json`` publishes
(:meth:`Tracer.stages`).

Design constraints, in order:

* **Always on, stage-level only.**  Spans mark experiment stages, not
  inner calls, so a run records tens of them and the tracer needs no
  off switch.
* **Exception-safe.**  A span raised through still records its end
  time and pops cleanly; partial timings are never lost.
* **Flat view.**  :meth:`Tracer.stage_totals` folds the tree into
  per-name sums (outermost occurrence only, so re-entrant spans are
  not double-counted); :meth:`Tracer.stages` is the view under one
  CLI's name prefix.
* **Profiled stages.**  Every span below a root runs under
  :data:`~repro.obs.profile.PROFILER` (``--profile-out``), which
  captures the outermost one only.

>>> tracer = Tracer()
>>> with tracer.span("outer"):
...     with tracer.span("outer.inner"):
...         pass
>>> [root.name for root in tracer.roots]
['outer']
>>> list(tracer.stages("outer"))
['inner']
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Union

from .profile import PROFILER

#: Versioned schema tag stamped on every serialized span record.
SPAN_SCHEMA = "repro.obs.span/1"


class Span:
    """One timed, named region; children are the spans opened inside it."""

    __slots__ = ("name", "start", "end", "children", "meta")

    def __init__(
        self, name: str, start: float, meta: Optional[dict[str, Any]] = None
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.children: list[Span] = []
        self.meta = meta

    @property
    def duration(self) -> float:
        """Seconds spanned; still-open spans measure up to *now*."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return f"<Span {self.name!r} {self.duration * 1000:.3f}ms children={len(self.children)}>"


class Tracer:
    """A process-local span collector."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        """Time *name* nested under the current span; yields the span."""
        span = Span(name, time.perf_counter(), meta or None)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self.roots).append(span)
        self._stack.append(span)
        try:
            if parent is None:
                yield span
            else:
                with PROFILER.record(name):
                    yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def reset(self) -> None:
        """Drop all recorded spans (test isolation / fresh run)."""
        self.roots = []
        self._stack = []
        self.epoch = time.perf_counter()

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first in recording order."""
        for root in self.roots:
            yield from root.walk()

    def stage_totals(self) -> dict[str, float]:
        """Per-name wall-clock sums, in first-opened order.

        Only the *outermost* occurrence of each name contributes, so a
        re-entrant span (``a`` inside ``a``) is counted once, not twice.
        """
        totals: dict[str, float] = {}

        def fold(span: Span, active: frozenset[str]) -> None:
            outermost = span.name not in active
            if outermost:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
                active = active | {span.name}
            for child in span.children:
                fold(child, active)

        for root in self.roots:
            fold(root, frozenset())
        return totals

    def stages(self, prefix: str, digits: int = 4) -> dict[str, float]:
        """The BENCH ``stages`` view: totals of the ``<prefix>.*`` spans.

        Keys drop the prefix (``table2.cases`` -> ``cases``); values
        are rounded to *digits*.
        """
        head = prefix + "."
        return {
            name[len(head):]: round(secs, digits)
            for name, secs in self.stage_totals().items()
            if name.startswith(head)
        }

    # -- serialization ---------------------------------------------------------

    def records(self, digits: int = 6) -> list[dict[str, Any]]:
        """Flattened span records (depth-first, ids link the tree).

        ``t0``/``t1`` are seconds relative to the tracer epoch so traces
        from different runs line up at zero.
        """
        out: list[dict[str, Any]] = []

        def emit(span: Span, parent_id: Optional[int], depth: int) -> None:
            span_id = len(out)
            record: dict[str, Any] = {
                "schema": SPAN_SCHEMA,
                "id": span_id,
                "parent": parent_id,
                "depth": depth,
                "name": span.name,
                "t0": round(span.start - self.epoch, digits),
                "t1": (
                    round(span.end - self.epoch, digits)
                    if span.end is not None
                    else None
                ),
            }
            if span.meta:
                record["meta"] = span.meta
            out.append(record)
            for child in span.children:
                emit(child, span_id, depth + 1)

        for root in self.roots:
            emit(root, None, 0)
        return out

    def to_jsonl(self) -> str:
        """One JSON object per line, one line per span."""
        return "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in self.records()
        )

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the trace to *path*; returns the path written."""
        out = Path(path)
        out.write_text(self.to_jsonl())
        return out


def read_jsonl(source: Union[str, Path, Iterable[str]]) -> list[dict[str, Any]]:
    """Parse span records from a path or an iterable of JSONL lines."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text().splitlines()
    else:
        lines = source
    records = []
    for line in lines:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


#: The process-wide tracer every experiment stage reports to.
TRACER = Tracer()
