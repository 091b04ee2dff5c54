"""Kernel backend benchmarks: native vs. the reference loops.

Times the dispatch points of :mod:`repro.kernels` head to head on the
experiment suite's own topology generators, asserting bit-identical
outputs while it measures:

* **batched row building** — ``rows_many`` over a block of sources vs.
  the per-source reference kernels (heap Dijkstra on weighted graphs,
  frontier BFS on unit graphs), on the ISP, Internet, and AS families;
* **single-source full rows** — one exhaustive ``dijkstra_canonical``
  call at a time, the shape ``SptCache`` misses and oracle promotions
  pay for;
* **targeted early-exit searches** — ``dijkstra_canonical`` with a
  small target set, the ``fast_shortest_path`` probe shape;
* **tree preorder** — the ``(order, pos, size)`` layout ``SptCache``
  builds once per cached row;
* **SPT re-settle** — Ramalingam–Reps repair vs. the boundary-offer
  loop, on hub failures with large affected subtrees, fed the typed
  pre-failure row and the affected preorder slice exactly as
  ``SptCache`` feeds it;
* **flat ILM decomposition** — one batched ``decompose_flat`` call
  over a real two-link scenario's decomposition-memo misses on the
  weighted ISP (the call per-link ILM accounting makes once per
  scenario) vs. the reference loop.

Emits ``results/BENCH_kernels.json`` in the established BENCH schema
(per-section timings, per-backend speedup ratios, the work-counter
delta).  ``--smoke`` shrinks sizes and repeats to a CI-friendly run
that still asserts every equivalence.  When the native backend cannot
load it is skipped with a note in the payload (``backends_skipped``) —
a fresh clone without a C toolchain must pass every CLI.
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from array import array

from repro.graph.csr import as_view, shared_csr
from repro.graph.incremental import subtree_spans
from repro.kernels import available_backends
from repro.kernels import python_backend as pyk
from repro.perf import COUNTERS
from repro.topology import (
    generate_as_graph,
    generate_internet_graph,
    generate_isp_topology,
)

#: Accelerated backends measured this run, and why any were skipped.
BACKENDS: dict = {}
SKIPPED: dict[str, str] = {}

try:
    from repro.kernels import native_backend as natk

    BACKENDS["native"] = natk
except ImportError as exc:  # pragma: no cover - exercised without a toolchain
    natk = None
    SKIPPED["native"] = str(exc).splitlines()[0][:200]


def _timed(fn, repeat: int):
    """Median wall seconds over *repeat* calls (first call warms caches)."""
    fn()
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _reference_rows(view, sources, unit):
    rows = {}
    for s in sources:
        if unit:
            rows[s] = pyk.bfs(view, s)
        else:
            dist, pred, _ = pyk.dijkstra_canonical(view, s)
            rows[s] = (dist, pred)
    return rows


def _row_section(results, label, graph, unit, n_sources, repeat):
    view = as_view(shared_csr(graph))
    sources = list(range(min(n_sources, view.csr.n)))
    expected = _reference_rows(view, sources, unit)
    results[f"{label}_python_s"] = _timed(
        lambda: _reference_rows(view, sources, unit), repeat
    )
    for name, mod in BACKENDS.items():
        got = mod.rows_many(view, sources, unit)
        assert got == expected, f"{label}: {name} disagrees"
        results[f"{label}_{name}_s"] = _timed(
            lambda mod=mod: mod.rows_many(view, sources, unit), repeat
        )


def _single_source_section(results, label, graph, n_sources, repeat):
    """One exhaustive canonical Dijkstra per call — no batching to hide in."""
    view = as_view(shared_csr(graph))
    sources = list(range(min(n_sources, view.csr.n)))
    expected = [pyk.dijkstra_canonical(view, s) for s in sources]

    def run(mod):
        return [mod.dijkstra_canonical(view, s) for s in sources]

    results[f"{label}_python_s"] = _timed(lambda: run(pyk), repeat)
    for name, mod in BACKENDS.items():
        assert run(mod) == expected, f"{label}: {name} disagrees"
        results[f"{label}_{name}_s"] = _timed(
            lambda mod=mod: run(mod), repeat
        )


def _targeted_section(results, label, graph, n_queries, repeat):
    """Early-exit probes with a single target — the oracle's query shape."""
    view = as_view(shared_csr(graph))
    n = view.csr.n
    rng = random.Random(3)
    queries = [
        (rng.randrange(n), [rng.randrange(n)]) for _ in range(n_queries)
    ]
    expected = [
        pyk.dijkstra_canonical(view, s, targets) for s, targets in queries
    ]

    def run(mod):
        return [
            mod.dijkstra_canonical(view, s, targets) for s, targets in queries
        ]

    results[f"{label}_python_s"] = _timed(lambda: run(pyk), repeat)
    for name, mod in BACKENDS.items():
        assert run(mod) == expected, f"{label}: {name} disagrees"
        results[f"{label}_{name}_s"] = _timed(
            lambda mod=mod: run(mod), repeat
        )


def _blank_row(n):
    """An ``array('d')``/``array('q')`` pair for a kernel to write a row into."""
    return array("d", bytes(8 * n)), array("q", bytes(8 * n))


def _repair_section(results, graph, repeat):
    """Hub failure: kill the tree edge above the largest subtree.

    The inputs are the ones ``SptCache`` hands the kernel: the typed
    pre-failure row, its preorder, and the affected preorder slice.
    The preorder build itself is timed as its own section.
    """
    csr = shared_csr(graph)
    base = as_view(csr)
    nodes = csr.nodes
    dist, pred, _ = pyk.dijkstra_canonical(base, 0, None, _blank_row(csr.n))
    ref_tree = pyk.preorder(pred, 0)
    results["preorder_python_s"] = _timed(lambda: pyk.preorder(pred, 0), repeat)
    for name, mod in BACKENDS.items():
        assert mod.preorder(pred, 0) == ref_tree, f"preorder: {name} disagrees"
        results[f"preorder_{name}_s"] = _timed(
            lambda mod=mod: mod.preorder(pred, 0), repeat
        )
    order, pos, size = ref_tree
    victim = max(order[1:], key=size.__getitem__)
    spans, count = subtree_spans(pos, size, [victim])
    view = base.without(edges=[(nodes[pred[victim]], nodes[victim])])
    results["repair_affected_nodes"] = count

    def run(entry):
        return entry(view, 0, dist, pred, order, spans, False, out)

    out = _blank_row(csr.n)
    ref = tuple(a[:] for a in run(pyk.repair_resettle))
    results["repair_python_s"] = _timed(lambda: run(pyk.repair_resettle), repeat)
    for name, mod in BACKENDS.items():
        entry = mod.repair_resettle
        assert run(entry) == ref, f"repair: {name} disagrees"
        results[f"repair_{name}_s"] = _timed(
            lambda entry=entry: run(entry), repeat
        )


def _scenario_miss_set(graph, seed):
    """``(q, d, offsets, rows)`` exactly as per-link ILM accounting hands
    them to ``decompose_flat`` for one two-link failure scenario.

    Scenarios come from Table 2's own construction (sampled pairs, their
    two-link failure cases).  The first one that disturbs a demand meets
    an empty decomposition memo, so its whole backup set is the miss
    batch.  The batch is recorded off the reference backend while the
    accountant runs, then replayed against the other backends.
    """
    from repro.core.cache import shared_unique_base
    from repro.experiments.ilm_accounting import IlmAccountant
    from repro.experiments.table2 import ilm_scenarios
    from repro.failures.sampler import sample_pairs
    from repro.kernels import set_backend

    reference = pyk.decompose_flat
    captured = []

    def record(q, d, offsets, rows):
        captured.append((q, d, offsets, rows))
        return reference(q, d, offsets, rows)

    base = shared_unique_base(graph)
    pairs = sample_pairs(graph, 40, seed=seed)
    scenarios = ilm_scenarios(base, pairs, "two-links", 40)
    accountant = IlmAccountant(graph, base)
    previous = set_backend("python")
    pyk.decompose_flat = record
    try:
        for scenario in scenarios:
            accountant.process_scenario(scenario)
            if captured:
                return captured[0]
    finally:
        pyk.decompose_flat = reference
        set_backend(previous)
    raise RuntimeError("no two-link scenario disturbed a demand")


def _decompose_section(results, graph, seed, repeat):
    """One real scenario's decomposition-memo misses in one call — the
    shape production makes."""
    q, d, offsets, rows = _scenario_miss_set(graph, seed)
    chains = len(offsets) - 1
    results["decompose_chains"] = chains
    results["decompose_mean_chain_len"] = round(len(q) / max(chains, 1), 2)
    ref = pyk.decompose_flat(q, d, offsets, rows)
    results["decompose_python_s"] = _timed(
        lambda: pyk.decompose_flat(q, d, offsets, rows), repeat
    )
    for name, mod in BACKENDS.items():
        entry = mod.decompose_flat
        best, choice, probes = entry(q, d, offsets, rows)
        assert (list(best), list(choice), probes) == (
            list(ref[0]), list(ref[1]), ref[2]
        ), f"decompose: {name} disagrees"
        results[f"decompose_{name}_s"] = _timed(
            lambda entry=entry: entry(q, d, offsets, rows), repeat
        )


def main(argv=None) -> None:
    from repro.experiments.bench import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--sources", type=int, default=200,
                        help="row-building batch size per network")
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: tiny graphs, fewer repeats; every "
             "backend-vs-python equivalence assertion still runs",
    )
    parser.add_argument(
        "--bench-json", type=str, default=None,
        help="path for the BENCH JSON (default results/BENCH_kernels.json; "
             "'-' disables)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = {"isp": 120, "internet": 300, "as": 300,
                 "repair_isp": 400,
                 "single_sources": 8, "targeted_queries": 20}
        args.repeat = min(args.repeat, 2)
        args.sources = min(args.sources, 60)
    else:
        sizes = {"isp": 200, "internet": 4000, "as": 2000,
                 "repair_isp": 2000,
                 "single_sources": 24, "targeted_queries": 120}

    before = COUNTERS.snapshot()
    wall_start = time.perf_counter()
    results: dict[str, float] = {}

    isp_w = generate_isp_topology(n=sizes["isp"], seed=args.seed)
    isp_u = generate_isp_topology(n=sizes["isp"], seed=args.seed, weighted=False)
    _row_section(results, "rows_isp_weighted", isp_w, False,
                 args.sources, args.repeat)
    _row_section(results, "rows_isp_unit", isp_u, True,
                 args.sources, args.repeat)
    _row_section(results, "rows_internet", generate_internet_graph(
        n=sizes["internet"], seed=args.seed), True, args.sources, args.repeat)
    _row_section(results, "rows_as_graph", generate_as_graph(
        n=sizes["as"], seed=args.seed), True, args.sources, args.repeat)
    repair_graph = generate_isp_topology(n=sizes["repair_isp"], seed=args.seed)
    _single_source_section(results, "single_source", repair_graph,
                           sizes["single_sources"], args.repeat)
    _targeted_section(results, "targeted", repair_graph,
                      sizes["targeted_queries"], args.repeat)
    _repair_section(results, repair_graph, args.repeat)
    _decompose_section(results, isp_w, args.seed, args.repeat)

    speedups: dict[str, dict[str, float]] = {name: {} for name in BACKENDS}
    for key in sorted(results):
        for name in BACKENDS:
            suffix = f"_{name}_s"
            if key.endswith(suffix):
                stem = key[: -len(suffix)]
                speedups[name][stem] = round(
                    results[f"{stem}_python_s"] / max(results[key], 1e-12), 2
                )

    payload = {
        "name": "kernels",
        "seed": args.seed,
        "repeat": args.repeat,
        "sources": args.sources,
        "sizes": sizes,
        "smoke": bool(args.smoke),
        "backends_measured": available_backends(),
        "backends_skipped": SKIPPED,
        "wall_clock_s": round(time.perf_counter() - wall_start, 4),
        "results": {
            k: (round(v, 6) if isinstance(v, float) else v)
            for k, v in results.items()
        },
        "speedups": speedups,
        "counters": COUNTERS.delta(before).as_dict(),
    }
    if args.bench_json != "-":
        out = write_bench_json("kernels", payload, path=args.bench_json)
        print(f"wrote {out}")
    for name, ratios in speedups.items():
        for stem, ratio in ratios.items():
            print(f"{stem} [{name}]: {ratio}x")


if __name__ == "__main__":
    main()
