"""Tests for the heartbeat channel — emit/read/merge, width invariance."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import chunk_bounds, run_chunked
from repro.obs import heartbeat


@pytest.fixture
def channel(tmp_path, monkeypatch):
    """A live heartbeat directory, torn back down automatically."""
    hb_dir = tmp_path / "hb"
    monkeypatch.setenv(heartbeat.ENV_DIR, str(hb_dir))
    hb_dir.mkdir()
    return hb_dir


class TestEmit:
    def test_disabled_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.delenv(heartbeat.ENV_DIR, raising=False)
        assert not heartbeat.enabled()
        assert heartbeat.emit("chunk-start", label="x") is None
        assert list(tmp_path.iterdir()) == []

    def test_emit_appends_schema_tagged_records(self, channel):
        heartbeat.emit("chunk-start", label="w#0", chunk=[0, 4])
        heartbeat.emit(
            "chunk-end", label="w#0", chunk=[0, 4], items=4, wall_s=0.1
        )
        files = list(channel.glob("hb-*.jsonl"))
        assert len(files) == 1
        records = [json.loads(line) for line in files[0].read_text().splitlines()]
        assert [r["kind"] for r in records] == ["chunk-start", "chunk-end"]
        for r in records:
            assert r["schema"] == heartbeat.HEARTBEAT_SCHEMA
            assert {"seq", "pid", "ts"} <= set(r)

    def test_set_heartbeat_dir_creates_and_clears(self, tmp_path, monkeypatch):
        target = tmp_path / "deep" / "hb"
        heartbeat.set_heartbeat_dir(target)
        assert target.is_dir()
        assert heartbeat.enabled()
        heartbeat.set_heartbeat_dir(None)
        assert not heartbeat.enabled()

    def test_emit_failure_swallowed(self, monkeypatch):
        # A bogus directory must never raise out of a worker.
        monkeypatch.setenv(heartbeat.ENV_DIR, "/nonexistent/nope/hb")
        assert heartbeat.emit("chunk-start", label="x") is None


class TestReadMerge:
    def test_read_rejects_foreign_schema(self, channel):
        (channel / "foreign.jsonl").write_text(
            json.dumps({"schema": "other/1"}) + "\n"
        )
        with pytest.raises(ValueError, match="unsupported heartbeat schema"):
            heartbeat.read_heartbeats(channel)

    def test_merge_orders_by_grid_not_arrival(self):
        records = [
            {"kind": "fanout-end", "label": "w#0", "wall_s": 1.0},
            {"kind": "chunk-end", "label": "w#0", "chunk": [4, 8], "items": 4},
            {"kind": "chunk-start", "label": "w#0", "chunk": [4, 8]},
            {"kind": "chunk-end", "label": "w#0", "chunk": [0, 4], "items": 4},
            {"kind": "fanout-start", "label": "w#0", "total": 8},
            {"kind": "chunk-start", "label": "w#0", "chunk": [0, 4]},
        ]
        merged = heartbeat.merge_heartbeats(records)
        assert [(r["kind"], tuple(r.get("chunk", ()))) for r in merged] == [
            ("fanout-start", ()),
            ("chunk-start", (0, 4)),
            ("chunk-end", (0, 4)),
            ("chunk-start", (4, 8)),
            ("chunk-end", (4, 8)),
            ("fanout-end", ()),
        ]

    def test_progress_ticks_order_by_done(self):
        records = [
            {"kind": "scenario-progress", "label": "w#0", "chunk": [0, 9],
             "done": 6, "total": 9},
            {"kind": "scenario-progress", "label": "w#0", "chunk": [0, 9],
             "done": 3, "total": 9},
        ]
        merged = heartbeat.merge_heartbeats(records)
        assert [r["done"] for r in merged] == [3, 6]

    def test_stable_projection_strips_timing(self):
        records = [{
            "schema": heartbeat.HEARTBEAT_SCHEMA, "seq": 3, "pid": 123,
            "ts": 1.5, "kind": "chunk-end", "label": "w#0",
            "chunk": [0, 4], "items": 4, "wall_s": 0.25,
        }]
        [projected] = heartbeat.stable_projection(records)
        assert projected == {
            "kind": "chunk-end", "label": "w#0", "chunk": [0, 4], "items": 4,
        }


def _square_chunk(base: int, start: int, end: int) -> list:
    """Toy picklable worker: squares plus *base* over ``[start, end)``."""
    return [base + i * i for i in range(start, end)]


class TestWidthInvariance:
    """The ISSUE's byte-stable contract: same work grid, any pool width.

    The chunk grid is ``chunk_bounds(n, jobs)`` — part of the stable
    contract — so both runs here use the *same* ``jobs`` grid value
    while the actual executor width varies 1 vs 4.
    """

    GRID_JOBS = 4
    N = 37

    def _run(self, channel, width: int) -> list[dict]:
        for old in channel.glob("*.jsonl"):
            old.unlink()
        parallel._fanout_seq = 0  # same deterministic labels per run
        with ProcessPoolExecutor(max_workers=width) as executor:
            result = run_chunked(
                executor, _square_chunk, (100,), self.N, self.GRID_JOBS
            )
        assert result == [100 + i * i for i in range(self.N)]
        return heartbeat.stable_projection(
            heartbeat.read_heartbeats(channel)
        )

    def test_projection_identical_width_1_vs_4(self, channel):
        one = self._run(channel, width=1)
        four = self._run(channel, width=4)
        assert one == four
        dumps = lambda recs: "\n".join(
            json.dumps(r, sort_keys=True) for r in recs
        )
        assert dumps(one) == dumps(four)  # byte-stable, not just equal
        kinds = [r["kind"] for r in one]
        n_chunks = len(list(chunk_bounds(self.N, self.GRID_JOBS)))
        assert kinds[0] == "fanout-start"
        assert kinds[-1] == "fanout-end"
        assert kinds.count("chunk-start") == n_chunks
        assert kinds.count("chunk-end") == n_chunks

    def test_fanout_labels_are_sequenced(self, channel):
        parallel._fanout_seq = 0
        with ProcessPoolExecutor(max_workers=2) as executor:
            run_chunked(executor, _square_chunk, (0,), 8, 2)
            run_chunked(executor, _square_chunk, (0,), 8, 2)
        labels = {
            r["label"] for r in heartbeat.read_heartbeats(channel)
        }
        assert labels == {"_square_chunk#0", "_square_chunk#1"}


class TestDisabledFanout:
    def test_no_files_without_channel(self, tmp_path, monkeypatch):
        monkeypatch.delenv(heartbeat.ENV_DIR, raising=False)
        with ProcessPoolExecutor(max_workers=2) as executor:
            result = run_chunked(executor, _square_chunk, (0,), 10, 2)
        assert result == [i * i for i in range(10)]
        assert list(tmp_path.iterdir()) == []
