"""Tests for stage profiling and the memory gauges."""

from __future__ import annotations

import re
import tracemalloc

from repro.obs.profile import (
    StageProfiler,
    max_rss_kb,
    memory_report,
    publish_memory_gauges,
    start_memory_tracking,
    stop_memory_tracking,
)
from repro.perf import PerfCounters


def _busy(n: int = 2000) -> int:
    return sum(i * i for i in range(n))


class TestMemoryReport:
    def test_always_on_keys(self):
        report = memory_report()
        assert set(report) == {
            "max_rss_kb", "tracemalloc_peak_kb", "tracemalloc_enabled"
        }
        assert report["max_rss_kb"] > 0

    def test_peak_none_when_tracking_off(self):
        stop_memory_tracking()
        report = memory_report()
        assert report["tracemalloc_peak_kb"] is None
        assert report["tracemalloc_enabled"] is False

    def test_peak_present_when_tracking(self):
        stop_memory_tracking()
        start_memory_tracking()
        try:
            blob = [list(range(1000)) for _ in range(100)]
            report = memory_report()
            assert report["tracemalloc_enabled"] is True
            assert report["tracemalloc_peak_kb"] > 0
            del blob
        finally:
            stop_memory_tracking()
        assert not tracemalloc.is_tracing()

    def test_start_stop_idempotent(self):
        stop_memory_tracking()
        start_memory_tracking()
        start_memory_tracking()
        stop_memory_tracking()
        stop_memory_tracking()
        assert not tracemalloc.is_tracing()

    def test_max_rss_kb_positive_and_monotone(self):
        a = max_rss_kb()
        assert a > 0
        assert max_rss_kb() >= a


class TestPublishGauges:
    def test_rss_gauge_always_tracemalloc_only_when_tracing(self):
        stop_memory_tracking()
        metrics = PerfCounters()
        publish_memory_gauges(metrics)
        gauges = metrics.metrics()["gauges"]
        assert gauges["mem.max_rss_kb"] > 0
        assert "mem.tracemalloc_peak_kb" not in gauges

    def test_tracemalloc_gauge_when_tracing(self):
        stop_memory_tracking()
        start_memory_tracking()
        try:
            metrics = PerfCounters()
            publish_memory_gauges(metrics)
            assert "mem.tracemalloc_peak_kb" in metrics.metrics()["gauges"]
        finally:
            stop_memory_tracking()


class TestStageProfiler:
    def test_disabled_records_nothing(self):
        profiler = StageProfiler(enabled=False)
        with profiler.record("stage"):
            _busy()
        assert profiler.stage_names() == []
        assert profiler.collapsed_stacks() == []

    def test_enabled_captures_stage(self):
        profiler = StageProfiler(enabled=True)
        with profiler.record("alpha"):
            _busy()
        assert profiler.stage_names() == ["alpha"]
        top = profiler.top_functions("alpha")
        assert top  # something was hot
        assert any("test_obs_profile" in where for where, *_ in top)

    def test_collapsed_stack_format(self):
        profiler = StageProfiler(enabled=True)
        with profiler.record("alpha"):
            _busy(50_000)
        lines = profiler.collapsed_stacks(min_us=0)
        assert lines == sorted(lines)  # deterministic ordering
        pattern = re.compile(r"^alpha;[^;]+:\d+\(.+\) \d+$")
        assert lines
        for line in lines:
            assert pattern.match(line), line

    def test_nested_stages_profile_outermost_only(self):
        profiler = StageProfiler(enabled=True)
        with profiler.record("outer"):
            with profiler.record("inner"):  # cProfile cannot nest
                _busy()
        assert profiler.stage_names() == ["outer"]

    def test_repeated_stage_accumulates(self):
        profiler = StageProfiler(enabled=True)
        for _ in range(2):
            with profiler.record("alpha"):
                _busy()
        assert profiler.stage_names() == ["alpha"]

    def test_write_collapsed(self, tmp_path):
        profiler = StageProfiler(enabled=True)
        with profiler.record("alpha"):
            _busy(50_000)
        out = profiler.write_collapsed(tmp_path / "prof.collapsed")
        text = out.read_text()
        assert text.splitlines() == profiler.collapsed_stacks()

    def test_reset(self):
        profiler = StageProfiler(enabled=True)
        with profiler.record("alpha"):
            _busy()
        profiler.reset()
        assert profiler.stage_names() == []

    def test_exception_still_captured(self):
        profiler = StageProfiler(enabled=True)
        try:
            with profiler.record("alpha"):
                _busy()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert profiler.stage_names() == ["alpha"]
        assert profiler._active == 0  # guard unwound


class TestStageTimerIntegration:
    def test_stage_timer_feeds_profiler(self):
        """Stage spans (below a root) run under the profiler; roots don't."""
        from repro.obs.profile import PROFILER
        from repro.obs.trace import Tracer

        PROFILER.reset()
        PROFILER.enabled = True
        try:
            tracer = Tracer()
            with tracer.span("t"):
                with tracer.span("t.work"):
                    _busy()
            assert PROFILER.stage_names() == ["t.work"]
        finally:
            PROFILER.enabled = False
            PROFILER.reset()
