"""One benchmark pass in a fresh interpreter: set up, run one workload, check it.

    python3 perfbench/workpass.py --workload ilm-fanout --seed 1 --trace 0 \\
        --cache-dir .bench_build/perfbench --out pass.json --check-cases

Started by ``perfbench/run.py``, once per pass, so every pass sees the
cold process-wide caches a user run sees (``cached_suite``,
``shared_unique_base``/``shared_spt_cache``, the oracle rows).  Writes
one JSON result to ``--out``; the exit code is 0 even when a check
failed (the failures are in the result), and non-zero only when the
pass itself could not run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from layers import compute as compute_layers  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN_TABLE2 = ROOT / "tests" / "data" / "golden_table2_small_seed1.txt"
ILM_BASELINE = ROOT / "benchmarks" / "baselines" / "table2-tiny-link-ilm-jobs2.json"

#: Cases re-checked against the reference per pass.
SAMPLED_CASES = 40
#: Speed samples taken right after set-up, which ``setup_s`` is scaled by
#: (set-up lasts well under a second, too short for the runner's samples).
SETUP_SPEED_SAMPLES = 8


def _mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def set_up(workload, seed: int) -> tuple[list, dict]:
    """Imports, kernel library load, topology suite and base sets."""
    from repro.core.cache import shared_unique_base
    from repro.experiments import runner, table2  # noqa: F401
    from repro.experiments.networks import cached_suite
    from repro.kernels import kernel_backend

    t0 = time.perf_counter()
    kernel_backend()
    t1 = time.perf_counter()
    networks = cached_suite(scale=workload.scale, seed=seed)
    t2 = time.perf_counter()
    for network in networks:
        shared_unique_base(network.graph)
    t3 = time.perf_counter()
    return networks, {
        "kernels.load_s": t1 - t0,
        "topology.suite_s": t2 - t1,
        "core.cache.base_s": t3 - t2,
    }


def run_workload(workload, seed: int, reduced: bool):
    """The timed region: inputs ready to outputs rendered.

    Returns ``(rendered text, Table 2 rows or None)``.
    """
    from repro.experiments import runner, table2

    if workload.op == "case":
        scale = "tiny" if reduced else workload.scale
        return runner.run_all(scale=scale, seed=seed, ilm=workload.ilm, jobs=workload.jobs), None
    modes = ("link",) if reduced else workload.modes
    rows = table2.run(
        scale=workload.scale, seed=seed, modes=modes,
        ilm_accounting=workload.ilm, jobs=workload.jobs,
    )
    return table2.render(rows), rows


def table2_section(report: str) -> str:
    """The Table 2 body of a runner report."""
    for section in report.split("\n\n==== "):
        head, _, body = section.partition("\n")
        if head.lstrip("= ").startswith("Table 2 ("):
            return body.strip()
    raise ValueError("runner report has no Table 2 section")


def check_outputs(workload, seed, reduced, text, rows) -> list[str]:
    """Row-level gates; returns one message per mismatch.

    eval-small at seed 1: Table 2 equals the committed golden rows.
    ilm-fanout: at seed 1 the link-mode ILM columns equal the committed
    jobs-2 baseline; at every seed one seeded (ISP network, mode) row is
    recomputed at jobs 1 and must be byte-identical to the fan-out's.
    """
    problems: list[str] = []
    if workload.op == "case":
        if seed == 1 and not reduced:
            golden = GOLDEN_TABLE2.read_text().strip()
            if table2_section(text) != golden:
                problems.append(f"Table 2 rows differ from {GOLDEN_TABLE2.name}")
        return problems
    from repro.experiments import table2
    from repro.experiments.networks import cached_suite

    if seed == 1:
        baseline = json.loads(ILM_BASELINE.read_text())["rows"]["link"]
        got = [(r.network, r.min_ilm_stretch, r.avg_ilm_stretch) for r in rows["link"]]
        want = [(r["network"], r["min_ilm_stretch"], r["avg_ilm_stretch"]) for r in baseline]
        if got != want:
            problems.append(f"link-mode ILM columns differ from {ILM_BASELINE.name}")
    rng = random.Random(seed)
    mode = rng.choice(sorted(rows))
    index = rng.choice((0, 1))  # the ISP networks: a jobs-1 row costs under a second
    network = cached_suite(scale=workload.scale, seed=seed)[index]
    sequential = table2.evaluate_network(
        network, modes=(mode,), seed=seed, ilm_accounting=workload.ilm, jobs=1,
    )[mode]
    if asdict(sequential) != asdict(rows[mode][index]):
        problems.append(f"{network.name} {mode} row differs from its jobs-1 row at seed {seed}")
    return problems


def check_cases(networks, seed: int, modes, count: int, corrupt: bool = False) -> tuple[int, list[str]]:
    """Re-check a seeded sample of cases against reference computations.

    For each case: the backup cost equals a fresh dict-based search on
    the failed view (or both find no path), the backup avoids the
    failure, the pieces concatenate to the backup, base-flagged pieces
    are base paths and the others single edges, and the piece count
    equals ``min_pieces_decompose_reference``.  *corrupt* alters the
    first sampled result's backup cost (smoke test).
    """
    from repro.core.cache import shared_unique_base
    from repro.core.decomposition import min_pieces_decompose_reference
    from repro.exceptions import NoPath
    from repro.failures.sampler import sample_pairs
    from repro.graph.paths import is_concatenation_of
    from repro.graph.shortest_paths import costs_equal, shortest_path
    from repro.policies import active_failure_model_name, make_failure_model
    from repro.policies.schemes import ConcatenationPolicy

    universe = []
    for network in networks:
        graph = network.graph
        base = shared_unique_base(graph)
        model = make_failure_model(active_failure_model_name(), graph, seed=seed)
        policy = ConcatenationPolicy(graph, base, network.weighted)
        for mode in modes:
            for pair in sample_pairs(graph, network.sample_pairs, seed=seed):
                for case in model.cases_for_pair(pair, base.path_for(*pair), mode):
                    universe.append((network, base, policy, case))
    rng = random.Random(seed)
    sample = [universe[i] for i in sorted(rng.sample(range(len(universe)), min(count, len(universe))))]
    problems = []
    for network, base, policy, case in sample:
        graph = network.graph
        result = policy.evaluate_case(case)
        if corrupt and result.backup is not None:
            result = replace(result, backup_cost=result.backup_cost + 1.0)
            corrupt = False
        try:
            reference = shortest_path(
                case.scenario.apply(graph), case.source, case.destination,
                weighted=network.weighted,
            )
        except NoPath:
            reference = None
        label = f"{network.name} {case.source!r}->{case.destination!r} {case.scenario!r}"
        if reference is None or result.backup is None:
            if (reference is None) != (result.backup is None):
                problems.append(f"{label}: restorability differs from a fresh search")
            continue
        if not costs_equal(result.backup_cost, reference.cost(graph)):
            problems.append(f"{label}: backup cost {result.backup_cost} != fresh {reference.cost(graph)}")
        if case.scenario.disturbs(result.backup):
            problems.append(f"{label}: backup crosses the failure")
        pieces = result.decomposition.pieces
        if not is_concatenation_of(result.backup, pieces):
            problems.append(f"{label}: pieces do not concatenate to the backup")
        for piece, is_base in zip(pieces, result.decomposition.base_flags):
            if not (base.is_base_path(piece) if is_base else len(piece.nodes) == 2):
                problems.append(f"{label}: piece {piece!r} is not a base path or edge")
        expected = min_pieces_decompose_reference(result.backup, base, allow_edges=True)
        if expected.num_pieces != len(pieces):
            problems.append(f"{label}: {len(pieces)} pieces, reference {expected.num_pieces}")
    return len(sample), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    parser.add_argument("--check-cases", action="store_true",
                        help="re-check a seeded sample of cases against the reference")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="JSONL file for the recorded spans (traced passes)")
    parser.add_argument("--reduced", action="store_true",
                        help="smaller inputs, for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one Table 2 row (ilm-fanout) or one re-checked "
                             "case (eval-small) before the gate (smoke test)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    networks, setup_layers = set_up(workload, args.seed)
    from repro.graph import shm
    from repro.kernels import backend_name
    from repro.perf import COUNTERS

    setup_s = time.perf_counter() - T_START
    setup_speed = [speed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    if args.setup_only:
        args.out.write_text(json.dumps({
            "setup_s": setup_s, "setup_speed_s": setup_speed, "kernel_backend": backend_name(),
        }))
        return 0

    sink = args.cache_dir / "sink"
    sink.mkdir(parents=True, exist_ok=True)
    for stale in sink.glob("chunk-*.json"):
        stale.unlink()
    recorder = Recorder(traced=bool(args.trace), sink_dir=sink)
    recorder.install(workload.op)
    before = COUNTERS.snapshot()
    window = [time.monotonic()]  # system-wide clock: the runner's samples are matched to it
    t0 = time.perf_counter()
    try:
        text, rows = run_workload(workload, args.seed, args.reduced)
    finally:
        wall_s = time.perf_counter() - t0
        window.append(time.monotonic())
        recorder.uninstall()
    counters = COUNTERS.delta(before).as_dict()
    parent_rss = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    worker_rss = _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) if workload.jobs > 1 else 0.0
    recorder.collect_worker_files()

    if args.corrupt and rows is not None:
        first = rows["link"][0]
        rows["link"][0] = type(first)(**{**asdict(first), "avg_ilm_stretch": first.avg_ilm_stretch + 1.0})
    problems = check_outputs(workload, args.seed, args.reduced, text, rows)
    sampled = 0
    if args.check_cases:
        modes = ("link",) if args.reduced and rows is not None else workload.modes
        sampled, case_problems = check_cases(
            networks, args.seed, modes, SAMPLED_CASES, corrupt=args.corrupt and rows is None,
        )
        problems += case_problems
    if workload.jobs > 1:
        leaked = shm.residual_segments()
        if leaked:
            problems.append(f"shared-memory segments left behind: {leaked}")

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "kernel_backend": backend_name(),
        "setup_s": setup_s,
        "setup_speed_s": setup_speed,
        "wall_s": wall_s,
        "timed_window": window,
        "peak_rss_mb": max(parent_rss, worker_rss),
        "ops": len(recorder.latencies),
        "latencies_s": recorder.latencies,
        "sampled_cases": sampled,
        "problems": problems,
    }
    if args.trace:
        result["layers"] = compute_layers(
            recorder.spans, recorder.worker_chunks, counters, setup_layers,
            recorder.demands_restored, workload.jobs, worker_rss,
        )
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            with args.trace_out.open("w") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(span) + "\n")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
