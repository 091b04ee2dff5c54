"""Stage profiling and memory gauges — *why* a stage is slow or big.

Two instruments, both reporting through the existing obs surfaces:

* **Stage profiler** (:data:`PROFILER`) — opt-in ``cProfile`` capture
  per stage span (every :data:`~repro.obs.trace.TRACER` span below a
  root).  Each outermost stage span runs under its own profile; the accumulated
  stats export as *collapsed-stack* text (``stage;file:func count``
  lines, one sample unit per microsecond of tottime) that any
  flamegraph renderer ingests directly.  Enabled by ``--profile-out
  PATH`` on every experiment CLI; off by default and free when off
  (one attribute check per stage, zero per inner call).

  ``cProfile`` cannot nest, so re-entrant/nested stages profile the
  *outermost* block only — the same outermost-occurrence rule the
  tracer's stage totals use.

* **Memory gauges** (:func:`memory_report`) — the run's peak RSS via
  ``resource.getrusage`` (one syscall, always on, stamped into every
  ``BENCH_*.json`` under ``"memory"``) and the Python-heap peak via
  ``tracemalloc`` (real overhead, so opt-in: ``--mem``).  Under
  ``--obs`` the same numbers land as
  ``mem.max_rss_kb`` / ``mem.tracemalloc_peak_kb`` gauges, which merge
  across ``--jobs`` workers by max — a cross-process high-water mark.

Neither instrument may perturb payloads: memory and profile data live
in the obs sections of the bench output and in side files, never in
rows or counters (pinned by the no-perturbation test).
"""

from __future__ import annotations

import cProfile
import pstats
import resource
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union


def max_rss_kb() -> int:
    """Lifetime peak resident set size of this process, in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here
    so gauges and ledger entries agree across platforms.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def start_memory_tracking() -> None:
    """Begin tracking Python-heap allocations (idempotent)."""
    if not tracemalloc.is_tracing():
        tracemalloc.start()


def stop_memory_tracking() -> None:
    """Stop tracking and release the trace buffers (idempotent)."""
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def memory_report() -> dict[str, Any]:
    """The run's memory gauges, cheap enough to stamp on every bench.

    ``tracemalloc_peak_kb`` is ``None`` unless tracking was started
    (``--mem``): reading the peak is free, *collecting* it is not, so
    the default path costs one ``getrusage`` call and nothing else.
    """
    tracing = tracemalloc.is_tracing()
    peak_kb: Optional[float] = None
    if tracing:
        _, peak = tracemalloc.get_traced_memory()
        peak_kb = round(peak / 1024.0, 1)
    return {
        "max_rss_kb": max_rss_kb(),
        "tracemalloc_peak_kb": peak_kb,
        "tracemalloc_enabled": tracing,
    }


def publish_memory_gauges(metrics) -> None:
    """Fold the current memory gauges into a counter registry's gauges.

    ``set_max`` keeps the worker-merge semantics: the published value
    is the high-water mark across every process that reported.
    """
    report = memory_report()
    metrics.gauge("mem.max_rss_kb").set_max(float(report["max_rss_kb"]))
    if report["tracemalloc_peak_kb"] is not None:
        metrics.gauge("mem.tracemalloc_peak_kb").set_max(
            report["tracemalloc_peak_kb"]
        )


class StageProfiler:
    """Accumulates one ``cProfile`` capture per named stage."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._stats: dict[str, pstats.Stats] = {}
        self._active = 0

    @contextmanager
    def record(self, name: str) -> Iterator[None]:
        """Profile a stage block (outermost occurrence only).

        Disabled profilers — and blocks nested inside an already
        profiled one, which ``cProfile`` cannot capture — yield
        immediately.
        """
        if not self.enabled or self._active:
            yield
            return
        profile = cProfile.Profile()
        self._active += 1
        try:
            profile.enable()
            try:
                yield
            finally:
                profile.disable()
        finally:
            # A stage that raises still keeps its partial capture —
            # the same contract as the tracer's partial timings.
            self._active -= 1
            existing = self._stats.get(name)
            if existing is None:
                self._stats[name] = pstats.Stats(profile)
            else:
                existing.add(profile)

    def reset(self) -> None:
        """Drop every captured profile (fresh run / test isolation)."""
        self._stats.clear()
        self._active = 0

    def stage_names(self) -> list[str]:
        """Stages captured so far, in first-capture order."""
        return list(self._stats)

    def collapsed_stacks(self, min_us: int = 1) -> list[str]:
        """Flamegraph-collapsed lines: ``stage;file:func sample_count``.

        One sample unit per microsecond of a function's *own* time
        (tottime), namespaced under its stage — a two-level flame:
        stages across the base, functions above them.  Lines are
        sorted for deterministic output; entries under *min_us* are
        dropped.
        """
        lines = []
        for stage, stats in self._stats.items():
            for (filename, lineno, func), row in stats.stats.items():  # type: ignore[attr-defined]
                tottime = row[2]
                us = int(round(tottime * 1e6))
                if us < min_us:
                    continue
                where = f"{Path(filename).name}:{lineno}({func})"
                lines.append(f"{stage};{where} {us}")
        return sorted(lines)

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        """Write the collapsed-stack text to *path*; returns the path."""
        out = Path(path)
        out.write_text("".join(line + "\n" for line in self.collapsed_stacks()))
        return out

    def top_functions(
        self, stage: str, limit: int = 10
    ) -> list[tuple[str, int, float, float]]:
        """``(function, calls, tottime, cumtime)`` rows for one stage,
        by descending tottime — the report's hot-function table."""
        stats = self._stats.get(stage)
        if stats is None:
            return []
        rows = []
        for (filename, lineno, func), row in stats.stats.items():  # type: ignore[attr-defined]
            ncalls, tottime, cumtime = row[1], row[2], row[3]
            where = f"{Path(filename).name}:{lineno}({func})"
            rows.append((where, int(ncalls), float(tottime), float(cumtime)))
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:limit]


#: The process-wide stage profiler; disabled by default, hooked by
#: :meth:`repro.obs.trace.Tracer.span`.
PROFILER = StageProfiler()
