"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 40 --trace 0

From the root of a checkout.  The runner builds the native kernel
library once per checkout (users pay that compile once per machine),
then runs fresh-interpreter passes of ``perfbench/workpass.py`` one
after another: untraced, as many as fit in ``--seconds``, on program
seeds derived from ``--seed``; traced, one untraced and one traced pass
on ``--seed`` itself.  Each pass sets up, runs the workload timed, and
checks its outputs outside the timed region.  Metrics are medians over
the passes or pooled over them; the bounded time metrics are scaled by
the machine speed sampled while they were measured (see README.md).
Names, units and directions of the metrics, and each workload's reason,
are read from BENCHMARK.json.

Every metric goes to standard output by name with its unit and sample
count; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the
per-layer metrics traced).  The exit code is non-zero when a check
failed, a pass crashed, or the checkout is not one the benchmark can
run in.

Everything the runner writes stays under ``.bench_build/perfbench``:
the native library, temporary files, the span traces and the per-pass
results.  The program's own instruments (``--obs``, ``--trace-jsonl``,
``--profile-out``, heartbeats) and its run ledger stay off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from layers import EXACT_MARKS, LAYER_NOTES, latency_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, pass_count, pass_seeds  # noqa: E402

SPEC_PATH = HERE.parent / "BENCHMARK.json"

#: What each end-to-end metric of BENCHMARK.json measures.  "op" is the
#: workload's unit of work (``Workload.op``).
E2E_NOTES = {
    "setup_s": "imports, kernel library load, topology suite, base sets; at the reference machine speed",
    "peak_rss_mb": "peak RSS of the pass process, or of its largest worker",
    "norm_ops_per_s": "ops_per_s at the reference machine speed",
    "norm_op_mean_ms": "op_mean_ms at the reference machine speed",
}

#: Printed for reference only, ``(name, unit, description)``: raw times,
#: and the wall time, whose spread across seeds follows the input size
#: (see README.md).
INFO_METRICS = (
    ("raw_setup_s", "s", "setup_s as measured"),
    ("wall_s", "s", "inputs ready to outputs rendered; median over the passes"),
    ("ops_per_s", "1/s", "ops completed per second of wall time, all passes pooled"),
    ("op_mean_ms", "ms", "mean latency of one op, all passes pooled"),
    ("norm_wall_s", "s", "wall_s at the reference machine speed"),
)

#: ``PYTHONHASHSEED`` of every pass (see :func:`pass_env`).
HASH_SEED = "0"

#: Seconds between the speed samples the runner takes while a pass runs.
#: Only samples inside the pass's timed region scale its times, unless
#: fewer than ``MIN_WINDOW_SAMPLES`` fall there (reduced runs).
SAMPLE_INTERVAL_S = 0.5
MIN_WINDOW_SAMPLES = 3

#: Same-seed spread of ``norm_wall_s`` between two passes, as a share of
#: it, measured on the box the benchmark was written on (README.md); the
#: noise floor of ``bench.trace_overhead_s``.
NORM_WALL_NOISE = 0.05

#: Set-up samples per run (the passes' own plus set-up-only probes).
SETUP_SAMPLES = 5

#: A run never outlives this, so it ends within three minutes.
RUN_LIMIT_S = 170.0
#: The first run in a checkout also compiles the kernel library.
BUILD_LIMIT_S = 600.0


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def spec_problem(spec: dict) -> str | None:
    """Why the code does not describe the metrics of *spec*, or ``None``."""
    for what, listed, known in (
        ("workloads", spec["workloads"], WORKLOADS),
        ("end_to_end metrics", spec["end_to_end"], E2E_NOTES),
        ("per_layer metrics", spec["per_layer"], LAYER_NOTES),
    ):
        names = {entry["name"] for entry in listed}
        if names != set(known):
            return f"BENCHMARK.json {what} differ from the code's: {sorted(names ^ set(known))}"
    return None


def checkout_problem(root: Path) -> str | None:
    """Why *root* cannot be benchmarked, or ``None``."""
    for rel in (
        "src/repro/__init__.py",
        "src/repro/kernels/_native.c",
        "tests/data/golden_table2_small_seed1.txt",
        "benchmarks/baselines/table2-tiny-link-ilm-jobs2.json",
    ):
        if not (root / rel).is_file():
            return f"{rel} is missing; run from the root of a full checkout"
    return None


def source_digest(root: Path) -> str:
    """SHA-256 prefix of the program's sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".c")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "none"


def pass_env(cache: Path, backend: str | None) -> dict[str, str]:
    """The program's environment: no inherited ``REPRO_*`` knobs, ledger off.

    The string hash seed is pinned too, so that a seed repeats every
    input of the process, set and dict iteration order included.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["REPRO_LEDGER"] = "0"
    env["TMPDIR"] = str(cache / "tmp")  # the compiler's and tempfile's scratch
    env["REPRO_NATIVE_CACHE"] = str(cache / "native")
    if backend is not None:
        env["REPRO_KERNEL"] = backend
    return env


def build(root: Path, cache: Path) -> str:
    """Compile (or reuse) the kernel library; returns the resolved backend.

    Refuses a checkout whose earlier runs resolved another backend, so
    results of different backends never sit side by side.
    """
    probe = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.kernels import backend_name; print(backend_name())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env=pass_env(cache, None),
        capture_output=True, text=True, timeout=BUILD_LIMIT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"kernel backend did not load:\n{proc.stderr}")
    backend = proc.stdout.strip().splitlines()[-1]
    stamp = cache / "kernel_backend"
    if stamp.exists() and stamp.read_text().strip() != backend:
        raise RuntimeError(
            f"this checkout was benchmarked with the {stamp.read_text().strip()!r} "
            f"backend and now resolves {backend!r}; results are not comparable "
            f"(remove {stamp} to start over)"
        )
    stamp.write_text(backend + "\n")
    return backend


def pass_cpus(jobs: int) -> list[int]:
    """The CPUs a pass runs on: the last *jobs* of those the runner may use.

    The vCPUs of a shared box slow down independently of each other, so
    the passes are kept on known CPUs and the speed samples are taken on
    the same ones.
    """
    return sorted(os.sched_getaffinity(0))[-jobs:]


def sample_on(cpu: int) -> tuple[float, float]:
    """A :func:`speed.sample` taken on *cpu*, as ``(monotonic start, CPU seconds)``."""
    os.sched_setaffinity(0, {cpu})
    return time.monotonic(), speed.sample()


def run_pass(args, root: Path, cache: Path, env: dict, cpus: list[int], seed: int,
             index: int, extra: list[str], deadline: float, traced: bool = False) -> dict:
    """One fresh-interpreter pass of ``workpass.py`` on *cpus*; ``{"crashed": True}`` on failure.

    While the pass runs, the runner (idle otherwise) takes a speed sample
    every :data:`SAMPLE_INTERVAL_S`, on each of *cpus* in turn, and
    stores the samples in the result and in the pass's file.
    """
    tag = f"{args.workload}-seed{args.seed}-{index}"
    out = cache / "passes" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workpass.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--cache-dir", str(cache), "--out", str(out), *extra,
    ]
    if traced:
        cmd += ["--trace", "1", "--trace-out", str(cache / "traces" / f"{tag}.jsonl")]
    if args.reduced:
        cmd.append("--reduced")
    if args.corrupt:
        cmd.append("--corrupt")
    samples: list[tuple[float, float]] = []
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        os.sched_setaffinity(proc.pid, cpus)
    except ProcessLookupError:
        pass  # already exited; the checks below report it
    while True:
        try:
            proc.wait(timeout=SAMPLE_INTERVAL_S)
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() > deadline:
                proc.kill()
                proc.wait()
                return {"crashed": True}
            samples.append(sample_on(cpus[len(samples) % len(cpus)]))
    samples.append(sample_on(cpus[len(samples) % len(cpus)]))
    if proc.returncode != 0 or not out.exists():
        return {"crashed": True}
    result = json.loads(out.read_text())
    result["speed_samples_s"] = samples
    out.write_text(json.dumps(result))
    return result


def pass_scale(result: dict) -> float:
    """Speed scale of a pass's timed region, from the samples taken inside it."""
    start, end = result["timed_window"]
    inside = [x for t, x in result["speed_samples_s"] if start <= t <= end]
    if len(inside) < MIN_WINDOW_SAMPLES:
        inside = [x for _t, x in result["speed_samples_s"]]
    return speed.scale(inside)


def setup_sample(result: dict) -> tuple[float, float]:
    """``(setup_s, scale)`` of a pass, scaled by the samples taken right after set-up."""
    return result["setup_s"], speed.scale(result["setup_speed_s"])


def run_passes(args, root: Path, cache: Path, backend: str) -> tuple[list[dict], list[tuple]]:
    """The run's measured passes and its set-up samples ``(setup_s, scale)``.

    Untraced: ``pass_count`` passes, one per program seed of
    ``pass_seeds``; the first also re-checks sampled cases.  Traced: an
    untraced and a traced pass on the benchmark seed itself, so their
    wall times differ only by the tracing.  Set-up alone is repeated in
    extra fresh interpreters until there are :data:`SETUP_SAMPLES`
    samples, each scaled by the speed samples its pass took right after
    set-up.
    """
    workload = WORKLOADS[args.workload]
    env = pass_env(cache, backend)
    cpus = pass_cpus(workload.jobs)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.trace:
        plan = [(args.seed, False), (args.seed, True)]
    else:
        plan = [(seed, False) for seed in pass_seeds(args.seed, pass_count(workload, args.seconds))]
    results: list[dict] = []
    for index, (seed, traced) in enumerate(plan):
        extra = ["--check-cases"] if index == 0 else []
        result = run_pass(args, root, cache, env, cpus, seed, index, extra, deadline, traced)
        result["traced"] = traced
        results.append(result)
        if result.get("crashed"):
            return results, [setup_sample(r) for r in results[:-1]]
    setups = results[:]
    while len(setups) < SETUP_SAMPLES:
        seed = plan[len(setups) % len(plan)][0]
        probe = run_pass(args, root, cache, env, cpus, seed, len(setups), ["--setup-only"], deadline)
        if probe.get("crashed"):
            break
        setups.append(probe)
    return results, [setup_sample(r) for r in setups]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="smaller inputs, for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one Table 2 row (ilm-fanout) or one re-checked "
                             "case (eval-small) before the gate (smoke test)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = checkout_problem(root)
    if problem:
        return fail(problem)
    spec = json.loads(SPEC_PATH.read_text())
    problem = spec_problem(spec)
    if problem:
        return fail(problem)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    cache = root / ".bench_build" / "perfbench"
    (cache / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        backend = build(root, cache)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    workload = WORKLOADS[args.workload]
    passes, setups = run_passes(args, root, cache, backend)
    good = [p for p in passes if not p.get("crashed")]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]

    ops = sum(p["ops"] for p in good)
    checks = sum(p["sampled_cases"] for p in good)
    problems = [msg for p in good for msg in p["problems"]]
    crashed = len(passes) - len(good)
    attempted = max(1, ops + checks + crashed)
    failed = len(problems) + crashed
    if any(p["kernel_backend"] != backend for p in good):
        problems.append("a pass ran on another kernel backend")
        failed += 1
    if not untraced or (args.trace and not traced):
        failed = max(failed, 1)

    print(
        f"# perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
        f"kernel_backend={backend} git_sha={git_sha(root)} "
        f"src_digest={source_digest(root)} passes={len(untraced)}+{len(traced)} traced"
    )
    print(f"# why: {why[workload.name]}")
    for msg in problems:
        print(f"# FAILED: {msg}")
    if crashed:
        print(f"# FAILED: {crashed} pass(es) crashed or timed out")
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted} ops and sampled re-checks)")

    metrics: dict[str, dict] = {}
    values: dict[str, float] = {}
    if untraced:
        n = len(untraced)
        done = sum(p["ops"] for p in untraced)
        busy = [sum(p["latencies_s"]) for p in untraced]
        scale = [pass_scale(p) for p in untraced]
        norm_walls = [p["wall_s"] * k for p, k in zip(untraced, scale)]
        values = {
            "raw_setup_s": statistics.median(s for s, _k in setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "ops_per_s": done / sum(p["wall_s"] for p in untraced),
            "op_mean_ms": 1e3 * sum(busy) / max(1, done),
            "norm_wall_s": statistics.median(norm_walls),
            "setup_s": statistics.median(s * k for s, k in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "norm_ops_per_s": done / sum(norm_walls),
            "norm_op_mean_ms": 1e3 * sum(b * k for b, k in zip(busy, scale)) / max(1, done),
        }
        seeds = ",".join(str(p["seed"]) for p in untraced)
        pooled = f"over {done} {workload.op}s of {n} pass(es)"
        notes = {
            "raw_setup_s": f"median of {len(setups)} fresh interpreters",
            "setup_s": f"median of {len(setups)} fresh interpreters, each scaled",
            "peak_rss_mb": f"median of {n} pass(es)",
            "wall_s": f"median of {n} pass(es)",
            "ops_per_s": pooled, "op_mean_ms": pooled,
        }
        print(f"# seeds {seeds}; speed scale per timed region "
              + " ".join(f"{k:.3f}" for k in scale)
              + "; per set-up " + " ".join(f"{k:.3f}" for _s, k in setups))
        rows = [(name, unit, desc) for name, unit, desc in INFO_METRICS]
        rows += [(m["name"], m["unit"], E2E_NOTES[m["name"]]) for m in spec["end_to_end"]]
        for name, unit, desc in rows:
            note = notes.get(name, f"scaled per pass, then as {name[5:]}")
            print(f"{name} {values[name]:.6g} {unit}  [{note}; {desc}]")
            if not args.trace and name in E2E_NOTES:
                metrics[name] = {"value": values[name], "unit": unit}
        lat = sorted(x for p in untraced for x in p["latencies_s"])
        tail = workload.tail_pct
        beyond = len(lat) - int(-(-len(lat) * tail // 100))
        print(f"# {workload.op} latency: p50 {1e3 * percentile(lat, 50):.4g} ms, "
              f"p{tail:g} {1e3 * percentile(lat, tail):.4g} ms "
              f"(n={len(lat)} {workload.op}s, {beyond} beyond p{tail:g}; unbounded, "
              f"reported per layer by the traced run)")
    if traced:
        layer_values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in LAYER_NOTES if name in traced[0]["layers"]
        }
        layer_values.update(latency_metrics(
            workload.op, [x for p in untraced for x in p["latencies_s"]]
        ))
        traced_wall = statistics.median(p["wall_s"] * pass_scale(p) for p in traced)
        untraced_wall = values.get("norm_wall_s", 0.0)
        layer_values["bench.trace_overhead_s"] = traced_wall - untraced_wall
        print(f"# bench.trace_overhead_s noise floor about {NORM_WALL_NOISE * untraced_wall:.2g} s "
              f"({NORM_WALL_NOISE:g} of norm_wall_s {untraced_wall:.4g} s)")
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            moves, exact = LAYER_NOTES[name]
            print(f"{name} {layer_values[name]:.6g} {unit}  "
                  f"[{EXACT_MARKS[exact]}; {m['better']} is better; moves {moves}]")
            metrics[name] = {"value": layer_values[name], "unit": unit}

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
