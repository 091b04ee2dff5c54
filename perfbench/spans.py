"""In-memory spans and latency samples, recorded from outside the program.

The benchmark never turns on the program's own instruments.  Instead it
replaces public functions and methods of the ``repro`` layers with thin
wrappers (:meth:`Recorder.install`) and restores the originals
afterwards (:meth:`Recorder.uninstall`).

* Untraced mode wraps only the workload's unit of work
  (``ConcatenationPolicy.evaluate_case`` or
  ``IlmAccountant.process_scenario``) with two clock reads, which is all
  the latency metrics need.
* Traced mode additionally records a span per layer call:
  ``(name, start, end, parent, op)`` where *parent* indexes the
  enclosing span (``-1`` at top level) and *op* is the index of the case
  or scenario being served (``-1`` outside one).

Fan-out workers are forked from the recording process, so they inherit
the wrappers.  Each worker chunk is itself wrapped; at chunk end the
worker writes its samples and spans to one JSON file in
``Recorder.sink_dir``, which the parent reads back with
:meth:`Recorder.collect_worker_files` after the pool has shut down.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter

#: The recorder that forked workers write through, and the chunk runner
#: it wraps; both set by :meth:`Recorder.install`.
_ACTIVE: "Recorder | None" = None
_CHUNK_RUNNER = None


def _dijkstra_name(args, kwargs) -> str:
    targets = kwargs.get("targets", args[2] if len(args) > 2 else None)
    return "kernels.targeted" if targets else "kernels.single_source"


def _bfs_name(args, kwargs) -> str:
    target = kwargs.get("target", args[2] if len(args) > 2 else -1)
    return "kernels.targeted" if target is not None and target >= 0 else "kernels.single_source"


def worker_chunk(label, *rest):
    """Worker-side chunk wrapper: ships the chunk's samples and spans to a file.

    Module level so the pool can pickle it by reference; forked workers
    find their copy of the parent's recorder in :data:`_ACTIVE`.
    """
    rec = _ACTIVE
    rec.latencies.clear()
    rec.spans.clear()
    rec._stack.clear()
    rec._active.clear()
    t0 = perf_counter()
    try:
        return _CHUNK_RUNNER(label, *rest)
    finally:
        t1 = perf_counter()
        rec._chunk_seq += 1
        payload = {
            "pid": os.getpid(), "fanout": label, "start": t0, "end": t1,
            "latencies": rec.latencies, "spans": rec.spans,
        }
        out = rec.sink_dir / f"chunk-{os.getpid()}-{rec._chunk_seq}.json"
        out.write_text(json.dumps(payload))


class Recorder:
    """Latency samples and spans of one benchmark pass."""

    def __init__(self, traced: bool, sink_dir: Path) -> None:
        self.traced = traced
        self.sink_dir = sink_dir
        self.latencies: list[float] = []
        self.spans: list = []  # (name, start, end, parent, op) tuples
        self.worker_chunks: list[dict] = []
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._op_index = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._chunk_seq = 0
        self.demands_restored = 0

    # -- wrappers -------------------------------------------------------------

    def _op(self, name: str, fn):
        latencies = self.latencies
        clock = perf_counter
        if not self.traced:
            def timed(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                latencies.append(clock() - t0)
                return result
            return timed

        spans, stack, current = self.spans, self._stack, self._op_index

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = current[0] = len(latencies)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                current[0] = -1
                latencies.append(t1 - t0)
                spans[idx] = (name, t0, t1, parent, op)
        return traced

    def _span(self, name, fn):
        """Span wrapper; *name* is a string or ``f(args, kwargs) -> str``.

        Only the outermost call of a name is recorded, so busy times
        never count a recursive call twice.
        """
        spans, stack, active, current = self.spans, self._stack, self._active, self._op_index
        clock = perf_counter
        namer = name if callable(name) else None

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            if label in active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = current[0]
            stack.append(idx)
            active.add(label)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active.discard(label)
                spans[idx] = (label, t0, t1, parent, op)
        return wrapper

    def _tally_demands(self, fn):
        """Sum ``demands_restored`` of every accountant whose columns are read."""
        def stretch_factors(accountant, *args, **kwargs):
            self.demands_restored += accountant.demands_restored
            return fn(accountant, *args, **kwargs)
        return stretch_factors

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (and every ``repro`` alias of it)."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                mod for name, mod in list(sys.modules.items())
                if name.startswith("repro.") and mod is not owner
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def install(self, op: str) -> None:
        """Wrap the workload's op (``"case"`` or ``"scenario"``) and, traced, every layer."""
        global _ACTIVE, _CHUNK_RUNNER
        from repro.experiments import figure10, ilm_accounting, parallel, table3
        from repro.core import decomposition
        from repro.graph import incremental, spt
        from repro.kernels import kernel_backend
        from repro.policies import schemes

        _ACTIVE = self
        _CHUNK_RUNNER = parallel._weighted_chunk_with_heartbeat
        if op == "case":
            self._patch(schemes.ConcatenationPolicy, "evaluate_case",
                        lambda fn: self._op("policies.evaluate_case", fn))
        else:
            self._patch(ilm_accounting.IlmAccountant, "process_scenario",
                        lambda fn: self._op("ilm_accounting.process_scenario", fn))
        self._patch(parallel, "_weighted_chunk_with_heartbeat", lambda fn: worker_chunk)
        if not self.traced:
            return
        span = lambda name: (lambda fn: self._span(name, fn))  # noqa: E731
        if op != "case":
            self._patch(schemes.ConcatenationPolicy, "evaluate_case",
                        span("policies.evaluate_case"))
        else:
            self._patch(ilm_accounting.IlmAccountant, "process_scenario",
                        span("ilm_accounting.process_scenario"))
        acct = ilm_accounting.IlmAccountant
        for owner, attr, name in (
            (incremental.SptCache, "backup_path", "graph.incremental.backup_path"),
            (incremental.SptCache, "repair_batch_idx", "graph.incremental.repair_batch_idx"),
            (decomposition, "min_pieces_decompose", "core.decomposition.min_pieces_decompose"),
            (spt.ShortestPathDag, "compute", "graph.spt.dag"),
            (table3, "run", "experiments.table3"),
            (figure10, "run", "experiments.figure10"),
            (parallel, "publish_suite", "parallel.publish_suite"),
            (parallel, "run_weighted", "parallel.run_weighted"),
            (acct, "plan_scenarios", "ilm_accounting.plan_scenarios"),
            (acct, "publish_warm_rows", "ilm_accounting.publish_warm_rows"),
            (acct, "merge_state", "ilm_accounting.merge_state"),
        ):
            self._patch(owner, attr, span(name))
        self._patch(acct, "stretch_factors", self._tally_demands)
        backend = kernel_backend()
        for attr, name in (
            ("rows_many", "kernels.rows"),
            ("dijkstra_canonical", _dijkstra_name),
            ("bfs", _bfs_name),
            ("repair_resettle", "kernels.repair"),
            ("decompose_flat", "kernels.decompose_flat"),
        ):
            self._patch(backend, attr, span(name))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        global _ACTIVE, _CHUNK_RUNNER
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        _ACTIVE = _CHUNK_RUNNER = None

    def collect_worker_files(self) -> None:
        """Fold the worker chunk files into this recorder (parent side)."""
        for path in sorted(self.sink_dir.glob("chunk-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            self.latencies.extend(payload["latencies"])
            base = len(self.spans)
            for name, t0, t1, parent, op in payload["spans"]:
                self.spans.append((name, t0, t1, parent + base if parent >= 0 else -1, op))
            self.worker_chunks.append(
                {"pid": payload["pid"], "fanout": payload["fanout"],
                 "start": payload["start"], "end": payload["end"]}
            )
