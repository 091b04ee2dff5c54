"""Per-layer metrics of the traced run, and what each one should move.

Names, units and the better direction of every per-layer metric live in
BENCHMARK.json.  :data:`LAYER_NOTES` holds, keyed by name, what the
JSON cannot: ``(moves, exact)``, where

* *moves* names the end-to-end metric and workload the layer metric
  should move (the mapping a perf claim has to follow);
* *exact* tells whether a count repeated exactly in two traced runs at
  the same seed on both workloads (``True``), only on ``"eval-small"``
  (the fan-out's workers warm different caches from run to run), or is a
  timing (``None``).  A count claim may rest only on a count that is
  exact on the workload it is made for.
"""

from __future__ import annotations

from collections import defaultdict

E2E_SETUP = "setup_s, both workloads"
E2E_CASE = "norm_op_mean_ms and norm_ops_per_s, eval-small"
E2E_CASE_TAIL = "norm_op_mean_ms (through the tail), eval-small"
E2E_WALL_EVAL = "norm_ops_per_s (wall time outside the cases), eval-small only"
E2E_OPS = "norm_op_mean_ms, eval-small and ilm-fanout"
E2E_SCEN = "norm_op_mean_ms and norm_ops_per_s, ilm-fanout"
E2E_FANOUT = "norm_ops_per_s (wall time outside the scenarios), ilm-fanout; none on eval-small"
E2E_WORK = "norm_ops_per_s of the workload that does the work"

KERNEL_ENTRIES = ("rows", "single_source", "targeted", "repair", "decompose_flat")

LAYER_NOTES: dict[str, tuple[str, "bool | str | None"]] = {
    "topology.suite_s": (E2E_SETUP, None),
    "core.cache.base_s": (E2E_SETUP, None),
    "kernels.load_s": (E2E_SETUP, None),
    "policies.evaluate_case.p50_ms": (E2E_CASE, None),
    "policies.evaluate_case.p999_ms": (E2E_CASE_TAIL, None),
    "policies.evaluate_case.self_s": (E2E_CASE, None),
    "policies.evaluate_case.calls": (E2E_CASE, True),
    "graph.incremental.backup_path.busy_s": (E2E_CASE, None),
    "graph.incremental.backup_path.calls": (E2E_CASE, True),
    "core.decomposition.min_pieces_decompose.busy_s": (E2E_CASE, None),
    "core.decomposition.min_pieces_decompose.calls": (E2E_CASE, True),
    "graph.incremental.fallback_ratio": (E2E_CASE_TAIL, True),
    "graph.all_pairs.promotion_ratio": (E2E_CASE_TAIL, True),
    "core.decomposition.o1_ratio": (E2E_CASE, True),
    "graph.spt.dag.busy_s": (E2E_WALL_EVAL, None),
    "experiments.table3.busy_s": (E2E_WALL_EVAL, None),
    "experiments.figure10.busy_s": (E2E_WALL_EVAL, None),
    **{
        name: note
        for entry in KERNEL_ENTRIES
        for name, note in (
            (f"kernels.{entry}.calls",
             (E2E_OPS, "eval-small" if entry in ("single_source", "decompose_flat") else True)),
            (f"kernels.{entry}.busy_s", (E2E_OPS, None)),
        )
    },
    "ilm_accounting.process_scenario.p50_ms": (E2E_SCEN, None),
    "ilm_accounting.process_scenario.p97_ms": (E2E_SCEN, None),
    "kernels.decompose_flat.calls_per_demand": (E2E_SCEN, "eval-small"),
    "ilm_accounting.process_scenario.self_s": (E2E_SCEN, None),
    "graph.incremental.repair_batch_idx.busy_s": (E2E_SCEN, None),
    "ilm_accounting.demands_restored": (E2E_SCEN, True),
    "parallel.publish_suite.busy_s": (E2E_FANOUT, None),
    "ilm_accounting.plan_scenarios.busy_s": (E2E_FANOUT, None),
    "ilm_accounting.publish_warm_rows.busy_s": (E2E_FANOUT, None),
    "parallel.run_weighted.wait_s": (E2E_FANOUT, None),
    "ilm_accounting.merge_state.busy_s": (E2E_FANOUT, None),
    "parallel.straggler_ratio": (E2E_FANOUT, None),
    "parallel.efficiency": (E2E_FANOUT, None),
    "parallel.worker_peak_rss_mb": ("peak_rss_mb, ilm-fanout", None),
    "perf.shm_segments": (E2E_FANOUT, True),
    "perf.shm_attach": (E2E_FANOUT, True),
    "perf.shm_fallbacks": (E2E_FANOUT, True),
    "perf.shm_row_segments": (E2E_FANOUT, True),
    "perf.shm_row_attach": (E2E_FANOUT, True),
    "perf.warm_rows_published": (E2E_FANOUT, True),
    "perf.warm_rows_adopted": (E2E_FANOUT, "eval-small"),
    "perf.worker_warm_row_builds": (E2E_FANOUT, True),
    "perf.csr_settled": (E2E_WORK, "eval-small"),
    "perf.csr_relaxations": (E2E_WORK, "eval-small"),
    "perf.spt_nodes_resettled": (E2E_WORK, True),
    "perf.probe_calls": (E2E_WORK, "eval-small"),
    "bench.trace_overhead_s": ("none: traced minus untraced norm_wall_s, same seed", None),
}

#: How :data:`LAYER_NOTES` marks are printed.
EXACT_MARKS = {
    True: "exact",
    "eval-small": "exact on eval-small, drifts on ilm-fanout",
    None: "timing",
}

#: Layer spans whose total duration is reported as ``<name>.busy_s``.
_BUSY = (
    "graph.incremental.backup_path",
    "core.decomposition.min_pieces_decompose",
    "graph.spt.dag",
    "experiments.table3",
    "experiments.figure10",
    "graph.incremental.repair_batch_idx",
    "parallel.publish_suite",
    "ilm_accounting.plan_scenarios",
    "ilm_accounting.publish_warm_rows",
    "ilm_accounting.merge_state",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_totals(spans) -> tuple[dict, dict, dict]:
    """``(busy, self, calls)`` per span name.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    child = [0.0] * len(spans)
    for _name, t0, t1, parent, _op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, t0, t1, _parent, _op) in enumerate(spans):
        busy[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        calls[name] += 1
    return busy, own, calls


def fanout_balance(chunks: list[dict], jobs: int, wait_s: float) -> tuple[float, float]:
    """``(straggler_ratio, efficiency)`` of the weighted ILM fan-outs.

    Per fan-out, each worker's busy time is the sum of its chunk
    durations; the straggler ratio is the summed per-fan-out maximum
    over the summed per-fan-out mean (``jobs`` workers each), and the
    efficiency is total chunk time over ``jobs`` times the parent's wait.
    """
    per_fanout: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for chunk in chunks:
        per_fanout[chunk["fanout"]][chunk["pid"]] += chunk["end"] - chunk["start"]
    worst = sum(max(w.values()) for w in per_fanout.values())
    mean = sum(sum(w.values()) / jobs for w in per_fanout.values())
    total = sum(sum(w.values()) for w in per_fanout.values())
    return _ratio(worst, mean), _ratio(total, jobs * wait_s)


#: Per-op latency percentiles, read from the untraced pass of a traced
#: run: ``name -> (op, percentile)``.
LATENCY_METRICS = {
    "policies.evaluate_case.p50_ms": ("case", 50.0),
    "policies.evaluate_case.p999_ms": ("case", 99.9),
    "ilm_accounting.process_scenario.p50_ms": ("scenario", 50.0),
    "ilm_accounting.process_scenario.p97_ms": ("scenario", 97.0),
}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def latency_metrics(op: str, latencies_s: list[float]) -> dict[str, float]:
    """:data:`LATENCY_METRICS` of a workload whose op is *op* (others 0)."""
    ordered = sorted(latencies_s)
    return {
        name: 1e3 * percentile(ordered, pct) if kind == op else 0.0
        for name, (kind, pct) in LATENCY_METRICS.items()
    }


def compute(
    spans, chunks, counters: dict, setup: dict, demands_restored: int,
    jobs: int, worker_rss_mb: float,
) -> dict[str, float]:
    """The span- and counter-based metrics of :data:`LAYER_NOTES`.

    The runner adds :data:`LATENCY_METRICS` and the trace overhead.
    """
    busy, own, calls = span_totals(spans)
    c = counters
    out = dict(setup)
    out["policies.evaluate_case.self_s"] = own["policies.evaluate_case"]
    out["policies.evaluate_case.calls"] = calls["policies.evaluate_case"]
    out["ilm_accounting.process_scenario.self_s"] = own["ilm_accounting.process_scenario"]
    for name in _BUSY:
        out[f"{name}.busy_s"] = busy[name]
    for name in ("graph.incremental.backup_path", "core.decomposition.min_pieces_decompose"):
        out[f"{name}.calls"] = calls[name]
    for entry in KERNEL_ENTRIES:
        out[f"kernels.{entry}.calls"] = calls[f"kernels.{entry}"]
        out[f"kernels.{entry}.busy_s"] = busy[f"kernels.{entry}"]
    out["graph.incremental.fallback_ratio"] = _ratio(c["spt_fallbacks"], c["spt_repairs"])
    out["graph.all_pairs.promotion_ratio"] = _ratio(
        c["oracle_promotions"], c["oracle_rows_truncated"]
    )
    out["core.decomposition.o1_ratio"] = _ratio(c["o1_probes"], c["probe_calls"])
    out["kernels.decompose_flat.calls_per_demand"] = _ratio(
        calls["kernels.decompose_flat"], demands_restored
    )
    out["ilm_accounting.demands_restored"] = demands_restored
    wait = busy["parallel.run_weighted"]
    out["parallel.run_weighted.wait_s"] = wait
    out["parallel.straggler_ratio"], out["parallel.efficiency"] = fanout_balance(
        chunks, jobs, wait
    )
    out["parallel.worker_peak_rss_mb"] = worker_rss_mb
    for key in (
        "shm_segments", "shm_attach", "shm_fallbacks", "shm_row_segments",
        "shm_row_attach", "warm_rows_published", "warm_rows_adopted",
        "worker_warm_row_builds", "csr_settled", "csr_relaxations",
        "spt_nodes_resettled", "probe_calls",
    ):
        out[f"perf.{key}"] = c[key]
    return out
