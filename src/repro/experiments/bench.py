"""Machine-readable perf output — ``BENCH_<name>.json`` emission.

Every experiment CLI and benchmark writes one JSON document per run so
the performance trajectory of the pipeline is tracked from PR to PR:
wall-clock, per-stage timings, case counts, and the global work
counters (:mod:`repro.perf`).  The experiment CLIs share one epilogue,
:func:`bench_run`.  By convention the file is named
``BENCH_<name>.json`` under ``results/`` in the current working
directory (created on demand; the repo root in CI), overridable per
CLI via ``--bench-json``.  Historic runs wrote to the working
directory itself; that layout's deprecation window is over — readers
(``python -m repro.obs diff``, the CI obs-gate) now reject root-level
paths with a pointer to ``results/``.

Every payload carries header fields recording the policy the run
measured under: ``tie_order`` (``"canonical"`` — the library-wide path
contract), ``repair_fallback`` (the active
:func:`~repro.graph.incremental.repair_fallback_fraction`),
``shm_enabled`` (whether the shared-memory CSR substrate of
:mod:`repro.graph.shm` was available and not disabled via
``REPRO_SHM=0``), and ``jobs`` (worker fan-out width; ``1`` unless the
emitting CLI recorded its own).  Runs under different policies do
different work, so ``python -m repro.obs diff`` — the threshold/exit-
code comparator — refuses to diff across them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

from ..obs.ledger import git_sha, record_run
from ..obs.profile import PROFILER, memory_report, publish_memory_gauges
from ..obs.trace import TRACER
from ..perf import COUNTERS, rates_from_counters


def add_repair_fallback_argument(parser: Any) -> None:
    """Attach the documented ``--repair-fallback`` knob to a CLI parser."""
    parser.add_argument(
        "--repair-fallback", type=float, default=None, metavar="FRACTION",
        help="override the repair fallback threshold (fraction of reachable "
             "nodes an affected subtree may cover before SPT repair degrades "
             "to a targeted search; default: env REPRO_REPAIR_FALLBACK or "
             "0.5; > 1 disables the fallback)",
    )


def apply_repair_fallback(args: Any) -> None:
    """Install ``--repair-fallback`` process-wide (call before forking)."""
    value = getattr(args, "repair_fallback", None)
    if value is not None:
        from ..graph.incremental import set_repair_fallback_fraction

        set_repair_fallback_fraction(value)


#: Tie-order mode every production kernel runs under (see the path
#: contract in DESIGN.md); recorded in each BENCH header so the
#: obs-gate never diffs rows produced under different tie rules.
TIE_ORDER = "canonical"


def bench_header() -> dict[str, Any]:
    """Policy + provenance fields stamped into every ``BENCH_*.json``.

    ``jobs`` here is the sequential default — CLIs with a ``--jobs``
    knob set their own value in the payload and win (``setdefault``
    merge in :func:`write_bench_json`).  ``git_sha`` and
    ``repro_version`` are provenance, not policy: ``repro.obs diff``
    warns on a sha mismatch but never refuses to compare on it (that
    is what the diff is *for* — comparing commits).
    """
    from .. import __version__
    from ..graph.incremental import repair_fallback_fraction
    from ..graph.shm import shm_enabled
    from ..kernels import backend_name
    from ..policies import active_failure_model_name, active_policy_name

    return {
        "tie_order": TIE_ORDER,
        "repair_fallback": repair_fallback_fraction(),
        "shm_enabled": shm_enabled(),
        "kernel_backend": backend_name(),
        "policy": active_policy_name(),
        "failure_model": active_failure_model_name(),
        "jobs": 1,
        "git_sha": git_sha(),
        "repro_version": __version__,
    }


def write_bench_json(
    name: str, payload: dict[str, Any], path: Optional[str] = None
) -> Path:
    """Write ``results/BENCH_<name>.json`` (or *path*); returns the path.

    The policy/provenance header (:func:`bench_header`) and the memory
    gauges (:func:`~repro.obs.profile.memory_report`, one syscall) are
    merged into *payload* unless the caller already set those keys,
    and a run manifest is appended to the ledger
    (:func:`~repro.obs.ledger.record_run`; best-effort, disabled by
    ``REPRO_LEDGER=0``) so the run joins the cross-run history that
    ``python -m repro.obs trend`` gates on.
    """
    if path:
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
    else:
        results = Path.cwd() / "results"
        results.mkdir(exist_ok=True)
        out = results / f"BENCH_{name}.json"
    for key, value in bench_header().items():
        payload.setdefault(key, value)
    payload.setdefault("memory", memory_report())
    out.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    record_run(name, payload, out)
    return out


@contextmanager
def bench_run(name: str, args: Any, **header: Any) -> Iterator[dict[str, Any]]:
    """One experiment CLI run: its root span and its BENCH epilogue.

    *args* are the CLI's parsed flags (``--bench-json`` and the
    :func:`~repro.obs.add_obs_arguments` set).  Opens the root span
    *name* (meta *header*) and yields the payload, seeded with
    ``name`` and *header*, for the CLI to fill.  When the block exits
    cleanly the payload gains ``wall_clock_s`` (the root span),
    ``stages`` (the ``<name>.*`` spans, see
    :meth:`~repro.obs.trace.Tracer.stages`), the run's work
    ``counters`` and derived ``rates`` and, under ``--obs``, its named
    ``metrics``; the ``--trace-jsonl``/``--profile-out`` files are
    written; and ``BENCH_<name>.json`` is written to ``--bench-json``
    (default ``results/``) unless that is ``-``.
    """
    payload: dict[str, Any] = {"name": name, **header}
    before = COUNTERS.snapshot()
    with TRACER.span(name, **header) as root:
        yield payload
    delta = COUNTERS.delta(before)
    counters = delta.as_dict()
    payload.update(
        wall_clock_s=round(root.duration, 4),
        stages=TRACER.stages(name),
        counters=counters,
    )
    if COUNTERS.observing:
        publish_memory_gauges(delta)
        payload["metrics"] = delta.metrics()
    payload["rates"] = rates_from_counters(counters)
    if args.trace_jsonl:
        print(f"[obs] wrote trace {TRACER.write_jsonl(args.trace_jsonl)}")
    if args.profile_out:
        out = PROFILER.write_collapsed(args.profile_out)
        print(f"[obs] wrote collapsed-stack profile {out}")
    if args.bench_json != "-":
        out = write_bench_json(name, payload, path=args.bench_json)
        print(f"[bench] wrote {out}")
