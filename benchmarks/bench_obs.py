"""Overhead budget of the observability layer (``repro.obs``).

The contract (docs/observability.md): the named metrics cost one
attribute check per observation site when off (``COUNTERS.observing``)
and at most a few percent when on; the span tracer is always on and
records only stage-level spans.  These benchmarks time both paths on
the real Table 2 pipeline, time the span tracer directly, and bound the
second-generation instruments (worker heartbeats, memory gauges)
against the <2% budget.

``python benchmarks/bench_obs.py --smoke`` runs the budget assertions
standalone for CI (no pytest-benchmark needed).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments.table2 import run as run_table2
from repro.obs import heartbeat
from repro.obs.profile import memory_report, publish_memory_gauges
from repro.obs.trace import TRACER, Tracer
from repro.perf import COUNTERS, PerfCounters


def _run_table2_tiny():
    return run_table2(scale="tiny", seed=1, modes=("link",), jobs=1)


def _obs_on():
    TRACER.reset()
    COUNTERS.reset()
    COUNTERS.observing = True


def _obs_off():
    COUNTERS.observing = False
    COUNTERS.reset()
    TRACER.reset()


def _min_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_enabled_span_tree(benchmark):
    """Spans: build a 10k-node tree, then reset."""
    tracer = Tracer()

    def build():
        tracer.reset()
        with tracer.span("root"):
            for _ in range(10_000):
                with tracer.span("leaf"):
                    pass

    benchmark(build)
    assert len(list(tracer.iter_spans())) == 10_001


def bench_table2_tiny_obs_disabled(benchmark):
    _obs_off()
    rows = benchmark(_run_table2_tiny)
    assert rows["link"]


def bench_table2_tiny_obs_enabled(benchmark):
    _obs_on()
    try:
        rows = benchmark(_run_table2_tiny)
        assert rows["link"]
    finally:
        _obs_off()


def bench_obs_overhead_budget():
    """Recording the named metrics stays within the documented budget.

    Min-of-N wall clocks of the same tiny Table 2 run with the layer
    off and on; the budget is <= 5% — asserted with a small
    absolute epsilon so a sub-100ms baseline doesn't turn scheduler
    jitter into failures.
    """
    _obs_off()
    _run_table2_tiny()  # warm the shared topology/oracle caches
    disabled = _min_of(_run_table2_tiny, 5)
    _obs_on()
    try:
        enabled = _min_of(_run_table2_tiny, 5)
    finally:
        _obs_off()
    budget = disabled * 1.05 + 0.025
    assert enabled <= budget, (
        f"obs overhead too high: {disabled:.4f}s off vs {enabled:.4f}s on "
        f"(budget {budget:.4f}s)"
    )


def bench_disabled_heartbeat_is_free(benchmark):
    """Disabled ``emit()`` is one truthiness check — sub-microsecond."""
    heartbeat.set_heartbeat_dir(None)

    def hot_loop():
        emit = heartbeat.emit
        for _ in range(10_000):
            emit("chunk-start", label="hot")

    benchmark(hot_loop)
    per_call = _min_of(hot_loop, 3) / 10_000
    # One kwargs dict + one os.environ lookup — a couple microseconds,
    # paid per *chunk* (not per scenario probe), so invisible in runs.
    assert per_call < 2.5e-6, f"disabled emit costs {per_call * 1e9:.0f}ns"


def bench_memory_report_is_cheap(benchmark):
    """The always-on RSS gauge: one ``getrusage`` syscall per bench."""

    def loop():
        for _ in range(1_000):
            memory_report()

    benchmark(loop)
    per_call = _min_of(loop, 3) / 1_000
    # Stamped once per BENCH write; 50µs keeps it invisible even if a
    # caller polled it every chunk.
    assert per_call < 5e-5, f"memory_report costs {per_call * 1e6:.1f}µs"


def _run_table2_tiny_jobs2():
    return run_table2(scale="tiny", seed=1, modes=("link",), jobs=2)


def bench_heartbeat_memory_overhead_budget():
    """Heartbeats + memory gauges stay under the <2% budget.

    Same tiny Table 2 smoke at ``--jobs 2`` (the fan-out emits ~140
    heartbeat records per run through the real channel directory)
    with the channel off and on, plus the per-run memory stamp and
    gauge publish on the instrumented side.  Min-of-N both ways; the
    small absolute epsilon keeps scheduler jitter on a sub-200ms
    baseline from masquerading as overhead.
    """
    _obs_off()
    _run_table2_tiny_jobs2()  # warm caches and the fork machinery
    baseline = _min_of(_run_table2_tiny_jobs2, 5)

    with tempfile.TemporaryDirectory() as td:
        heartbeat.set_heartbeat_dir(Path(td) / "hb")
        try:
            def instrumented():
                _run_table2_tiny_jobs2()
                publish_memory_gauges(PerfCounters())
                memory_report()

            enabled = _min_of(instrumented, 5)
            emitted = sum(
                1
                for path in (Path(td) / "hb").glob("hb-*.jsonl")
                for _ in path.open()
            )
        finally:
            heartbeat.set_heartbeat_dir(None)

    assert emitted > 0, "instrumented runs emitted no heartbeats"
    budget = baseline * 1.02 + 0.025
    assert enabled <= budget, (
        f"heartbeat+memory overhead too high: {baseline:.4f}s off vs "
        f"{enabled:.4f}s on, {emitted} heartbeats (budget {budget:.4f}s)"
    )


def main(argv=None) -> None:
    """CI smoke entry: run the budget assertions without pytest."""
    import argparse

    from repro.experiments.bench import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode (currently identical to the default run)",
    )
    parser.add_argument(
        "--bench-json", type=str, default="-", metavar="PATH",
        help="write a BENCH payload to PATH ('-' skips the write)",
    )
    args = parser.parse_args(argv)

    wall_start = time.perf_counter()
    _obs_off()
    _run_table2_tiny()  # warm caches once for every budget below
    checks = [
        bench_obs_overhead_budget,
        bench_heartbeat_memory_overhead_budget,
    ]
    for check in checks:
        t0 = time.perf_counter()
        check()
        print(f"ok {check.__name__} ({time.perf_counter() - t0:.2f}s)")

    payload = {
        "name": "obs",
        "smoke": bool(args.smoke),
        "checks": [check.__name__ for check in checks],
        "wall_clock_s": round(time.perf_counter() - wall_start, 4),
    }
    if args.bench_json != "-":
        write_bench_json("obs", payload, path=args.bench_json)


if __name__ == "__main__":
    main()
