"""Tests for the span tracer and the edge-case contract of its stage view."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import SPAN_SCHEMA, Tracer, read_jsonl


class FakeClock:
    """A controllable stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock(monkeypatch):
    c = FakeClock()
    monkeypatch.setattr("time.perf_counter", c)
    return c


class TestTracer:
    def test_enabled_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                with tracer.span("leaf"):
                    pass
        assert [r.name for r in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert [s.name for s in tracer.iter_spans()] == [
            "outer", "inner-1", "inner-2", "leaf",
        ]

    def test_span_records_meta(self):
        tracer = Tracer()
        with tracer.span("run", scale="tiny", seed=1) as span:
            pass
        assert span.meta == {"scale": "tiny", "seed": 1}

    def test_exception_still_closes_and_pops(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                with tracer.span("child"):
                    raise ValueError("x")
        assert all(s.end is not None for s in tracer.iter_spans())
        # A new span after the raise is a fresh root, not a child of "boom".
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["boom", "after"]

    def test_stage_totals_accumulate_and_ignore_reentrancy(self, clock):
        tracer = Tracer()
        with tracer.span("a"):
            clock.advance(1.0)
            with tracer.span("a"):  # re-entrant: must not double-count
                clock.advance(2.0)
            clock.advance(1.0)
        with tracer.span("a"):  # repeated: must accumulate
            clock.advance(0.5)
        with tracer.span("b"):
            clock.advance(0.25)
        totals = tracer.stage_totals()
        assert totals["a"] == pytest.approx(4.5)
        assert totals["b"] == pytest.approx(0.25)

    def test_reset_drops_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == [] and list(tracer.iter_spans()) == []

    def test_records_link_the_tree(self, clock):
        tracer = Tracer()
        with tracer.span("root", scale="tiny"):
            clock.advance(1.0)
            with tracer.span("child"):
                clock.advance(0.5)
        records = tracer.records()
        assert [r["name"] for r in records] == ["root", "child"]
        root, child = records
        assert root["schema"] == SPAN_SCHEMA == "repro.obs.span/1"
        assert root["parent"] is None and root["depth"] == 0
        assert child["parent"] == root["id"] and child["depth"] == 1
        assert child["t0"] >= root["t0"] and child["t1"] <= root["t1"]
        assert root["meta"] == {"scale": "tiny"}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", seed=7):
            with tracer.span("leaf"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        assert read_jsonl(path) == tracer.records()
        # Canonical serialization: writing what we read is byte-stable.
        rewritten = "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in read_jsonl(path)
        )
        assert rewritten == path.read_text()


class TestStageTimer:
    """The tracer as the stage timer: :meth:`Tracer.stages`."""

    def test_repeated_stages_accumulate(self, clock):
        tracer = Tracer()
        with tracer.span("t.s"):
            clock.advance(1.0)
        with tracer.span("t.s"):
            clock.advance(2.0)
        assert tracer.stages("t")["s"] == pytest.approx(3.0)

    def test_reentrant_stage_counts_outermost_only(self, clock):
        tracer = Tracer()
        with tracer.span("t.a"):
            clock.advance(1.0)
            with tracer.span("t.a"):
                clock.advance(2.0)
            clock.advance(1.0)
        assert tracer.stages("t")["a"] == pytest.approx(4.0)  # not 6.0

    def test_raising_stage_keeps_partial_timing(self, clock):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("t.x"):
                clock.advance(3.0)
                raise RuntimeError("boom")
        assert tracer.stages("t")["x"] == pytest.approx(3.0)
        # And the tracer still works afterwards.
        with tracer.span("t.x"):
            clock.advance(1.0)
        assert tracer.stages("t")["x"] == pytest.approx(4.0)

    def test_raising_reentrant_stage_accumulates_once(self, clock):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("t.a"):
                clock.advance(1.0)
                with tracer.span("t.a"):
                    clock.advance(2.0)
                    raise RuntimeError("boom")
        assert tracer.stages("t")["a"] == pytest.approx(3.0)

    def test_stages_feed_prefixed_spans(self):
        tracer = Tracer()
        with tracer.span("table2"):
            with tracer.span("table2.cases"):
                pass
            with tracer.span("runner.table2"):
                pass
        assert [s.name for s in tracer.iter_spans()] == [
            "table2", "table2.cases", "runner.table2",
        ]
        # Flat keys drop the prefix; the root and other prefixes stay out.
        assert list(tracer.stages("table2")) == ["cases"]
        assert list(tracer.stages("runner")) == ["table2"]

    def test_as_dict_rounds(self, clock):
        tracer = Tracer()
        with tracer.span("t.s"):
            clock.advance(1.23456789)
        assert tracer.stages("t") == {"s": 1.2346}
        assert tracer.stages("t", digits=2) == {"s": 1.23}
