"""Where the backup-path time of one product run goes: glue vs. C.

Wraps the layers of ``SptCache.backup_path`` with ``perf_counter``
accumulators and runs the product run once
(``runner.run_all(scale="small", ilm="per-pair", jobs=1)``, the
``eval-small`` workload of ``perfbench``).  Each line prints the
inclusive seconds and calls of one wrapped function:

* ``backup_path`` — the whole query;
* the kernel backend's ``repair_resettle``, ``dijkstra_canonical`` and
  ``bfs`` — the Python wrapper plus the C call;
* the C entry points themselves (``repro_repair``, ``repro_dijkstra``,
  ``repro_bfs``) on the native backend;
* the affected-set helpers (``incremental.preorder``, ``_cut_spans``).

The wrapper time minus the C time is the Python glue around a kernel.
The wrappers add about a microsecond per call, so totals sit slightly
above an unwrapped run.  Usage, from the repository root::

    PYTHONPATH=src REPRO_KERNEL=native python benchmarks/backup_glue.py
"""

from __future__ import annotations

import collections
import time

from repro.experiments import runner
from repro.graph import incremental
from repro.kernels import backend_name, kernel_backend


def _wrap(owner, name: str, label: str, seconds, calls) -> None:
    fn = getattr(owner, name)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[label] += clock() - t0
            calls[label] += 1

    setattr(owner, name, timed)


def main() -> None:
    seconds: dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    backend = kernel_backend()
    _wrap(incremental.SptCache, "backup_path", "backup_path", seconds, calls)
    for name in ("repair_resettle", "dijkstra_canonical", "bfs"):
        _wrap(backend, name, f"{backend_name()}.{name}", seconds, calls)
    if backend_name() == "native":
        for name in ("repro_repair", "repro_dijkstra", "repro_bfs"):
            _wrap(backend._LIB, name, f"C {name}", seconds, calls)
    for name in ("preorder", "_cut_spans"):
        _wrap(incremental, name, f"incremental.{name}", seconds, calls)
    t0 = time.perf_counter()
    runner.run_all(scale="small", seed=1, ilm="per-pair", jobs=1)
    print(f"wall {time.perf_counter() - t0:.2f} s ({backend_name()} backend)")
    for label in sorted(seconds):
        print(f"{label:36s} {seconds[label]:8.3f} s {calls[label]:9d} calls")


if __name__ == "__main__":
    main()
