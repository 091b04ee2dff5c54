"""Observability for the restoration pipeline: traces, events, metrics.

The instruments, and where they report:

* :mod:`repro.obs.trace` — hierarchical span tracer (:data:`TRACER`),
  the one stage recorder: always on, one span per experiment stage;
  a BENCH payload's ``stages`` are a view over it, and
  ``--trace-jsonl`` dumps the tree for ``python -m repro.obs tree``.
* :mod:`repro.obs.events` — versioned structured event log
  (:class:`EventLog`); the simulation's single timeline source of
  truth, rendered by ``python -m repro.obs timeline``.
* Named counters/gauges/histograms live in the one counter registry,
  :data:`repro.perf.COUNTERS`, next to the work counters; ``--obs``
  turns their recording on and publishes them in ``BENCH_*.json``
  under ``"metrics"``.
* :mod:`repro.obs.ledger` — append-only run manifests
  (``results/history/ledger.jsonl``); the cross-run history behind
  ``python -m repro.obs trend`` and ``report``.
* :mod:`repro.obs.profile` — opt-in per-stage ``cProfile`` capture
  (``--profile-out``) plus tracemalloc/RSS memory gauges (``--mem``;
  RSS is stamped on every bench regardless).
* :mod:`repro.obs.heartbeat` — live worker telemetry side channel
  (``--heartbeat-dir``), rendered by ``python -m repro.obs watch``.

Apart from the tracer and the RSS stamp, everything is off by default
and costs one attribute check when off; experiment CLIs expose the
knobs via :func:`add_obs_arguments` / :func:`activate_from_args`.

See ``docs/observability.md`` for the span API, the event schema and
its versioning policy, the metrics glossary, the ledger/telemetry
formats, and CLI examples.
"""

from __future__ import annotations

import argparse

from ..perf import COUNTERS
from . import heartbeat
from .events import SCHEMA, SCHEMA_VERSION, Event, EventLog
from .ledger import LEDGER_SCHEMA, git_sha, record_run
from .profile import (
    PROFILER,
    StageProfiler,
    memory_report,
    publish_memory_gauges,
    start_memory_tracking,
    stop_memory_tracking,
)
from .trace import Span, TRACER, Tracer

__all__ = [
    "Event",
    "EventLog",
    "LEDGER_SCHEMA",
    "PROFILER",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Span",
    "StageProfiler",
    "TRACER",
    "Tracer",
    "activate_from_args",
    "add_obs_arguments",
    "git_sha",
    "heartbeat",
    "memory_report",
    "publish_memory_gauges",
    "record_run",
    "start_memory_tracking",
    "stop_memory_tracking",
]


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability CLI flags."""
    parser.add_argument(
        "--obs", action="store_true",
        help="record the named metrics (counters, gauges, histograms) "
             "and publish them in the bench JSON",
    )
    parser.add_argument(
        "--trace-jsonl", type=str, default=None, metavar="PATH",
        help="write the span trace as JSONL to PATH (implies --obs; "
             "render with `python -m repro.obs tree PATH`)",
    )
    parser.add_argument(
        "--profile-out", type=str, default=None, metavar="PATH",
        help="profile each stage with cProfile and write collapsed-stack "
             "flamegraph text to PATH (implies --obs)",
    )
    parser.add_argument(
        "--mem", action="store_true",
        help="track Python-heap peak memory with tracemalloc (implies "
             "--obs; peak RSS is recorded on every run regardless)",
    )
    parser.add_argument(
        "--heartbeat-dir", type=str, default=None, metavar="DIR",
        help="stream live worker telemetry (chunk lifecycle + progress "
             "JSONL) into DIR; follow with `python -m repro.obs watch DIR`",
    )


def activate_from_args(args: argparse.Namespace) -> bool:
    """Enable the obs instruments per the parsed flags.

    Returns True when observability is on for this run.  The switch is
    authoritative either way — an uninstrumented run stops recording
    named metrics — and the tracer (plus, when on, the named metrics)
    is reset so one process can host several runs.  Must run before
    any worker pool is created: the heartbeat directory travels to
    workers via the environment.
    """
    profile_out = getattr(args, "profile_out", None)
    mem = bool(getattr(args, "mem", False))
    enabled = bool(
        getattr(args, "obs", False)
        or getattr(args, "trace_jsonl", None)
        or profile_out
        or mem
    )
    TRACER.reset()
    if enabled:
        COUNTERS.reset()
    COUNTERS.observing = enabled
    PROFILER.reset()
    PROFILER.enabled = bool(profile_out)
    if mem:
        start_memory_tracking()
    hb_dir = getattr(args, "heartbeat_dir", None)
    if hb_dir:
        # Flag wins, but a pre-set REPRO_HEARTBEAT_DIR (e.g. exported
        # by a wrapper script) is left alone when the flag is absent.
        heartbeat.set_heartbeat_dir(hb_dir)
    return enabled
