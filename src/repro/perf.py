"""The process-wide counter registry of the restoration pipeline.

The north star is "as fast as the hardware allows", which is impossible
to steer without numbers: this module is the single place every hot
path reports to.  :data:`COUNTERS` holds two kinds of instrument:

* **Work counters** — a fixed, hand-picked set of plain integer
  attributes, so incrementing one costs one attribute add — cheap
  enough to leave on permanently, including inside Dijkstra's
  relaxation loop (which accumulates into a local first and flushes
  once per run).  They are always recorded.
* **Named instruments** — counters, gauges and histograms created by
  name on first use (:meth:`PerfCounters.counter`, ``.gauge``,
  ``.histogram``): restoration latency breakdowns, path stretch,
  label-stack depth, flood convergence.  They are recorded only while
  :attr:`PerfCounters.observing` is set (``--obs``); hot paths guard
  their observations with that one attribute check.

Both kinds share one :meth:`~PerfCounters.snapshot` /
:meth:`~PerfCounters.delta` / :meth:`~PerfCounters.merge`
(:meth:`~PerfCounters.reset` drops the named instruments), and feed
three consumers:

* the ``BENCH_<name>.json`` files emitted by the experiment CLIs and
  the benchmark harness (the perf trajectory across commits): the work
  counters under ``"counters"``, the named instruments under
  ``"metrics"``;
* the parallel experiment runner, whose chunk wrappers ship one delta
  per chunk that the parent merges, so fan-out does not hide work and
  histograms are jobs-invariant;
* tests asserting optimization claims (e.g. "the decomposition kernel
  answers probes without running new Dijkstras once rows are warm").

Merge semantics of the named instruments: counters and histogram
bucket counts/sums **add**; gauges fold by **max** (they record
high-water marks — e.g. flood convergence time — the only
cross-process fold that is order-independent); histogram ``min``/
``max`` fold by min/max.

Work counter meanings:

``dijkstra_runs`` / ``dijkstra_settled`` / ``dijkstra_relaxations``
    Weighted searches: invocations, nodes settled, edges scanned.
``bfs_runs`` / ``bfs_settled``
    Unweighted searches: invocations and nodes labelled.
``oracle_rows_full`` / ``oracle_rows_truncated`` / ``oracle_promotions``
    Distance-oracle rows computed eagerly to completion, rows computed
    with target-set truncation, and truncated rows later recomputed in
    full because a query outran their settled frontier.
``probe_calls`` / ``o1_probes`` / ``path_probes``
    Decomposition membership probes: total, answered by O(1)
    prefix-sum arithmetic, answered by the Path-allocating fallback.
``csr_builds`` / ``csr_relaxations`` / ``csr_settled``
    Flat-array (CSR) kernel work (:mod:`repro.graph.csr`): snapshots
    interned, edges scanned, nodes settled.  Kept separate from the
    ``dijkstra_*`` / ``bfs_*`` families on purpose: the dict-based
    counters keep measuring exactly the dict-based algorithms, so a
    ``repro.obs diff`` shows *where* the work went, not just that it
    moved.
``spt_repairs`` / ``spt_nodes_resettled`` / ``spt_fallbacks``
    Decremental shortest-path-tree repair
    (:mod:`repro.graph.incremental`): repairs performed, vertices
    re-settled across them (the affected subtrees — the honest
    per-failure work), and repairs abandoned for a full recompute
    because the affected region exceeded the threshold.
``shm_segments`` / ``shm_attach`` / ``shm_fallbacks``
    Shared-memory CSR substrate (:mod:`repro.graph.shm`): segments
    published by a creator process, read-only attaches performed by
    workers, and publish/attach attempts that fell back to a
    per-process CSR rebuild (shared memory unavailable, disabled via
    ``REPRO_SHM=0``, over the size knob, or a header mismatch).  The
    obs-gate asserts the attach path stays hot: a fan-out that
    silently rebuilds per worker shows up as ``shm_fallbacks`` growth.
``ilm_scenario_chunks``
    Per-link ILM accounting fan-out: deterministic scenario chunks
    dispatched to ``--jobs`` workers (0 in a sequential run).
``shm_row_segments`` / ``shm_row_attach``
    Warm-row shared-memory substrate (:mod:`repro.graph.shm` ``RROW``
    segments): row tables published by a creator process and read-only
    attaches performed by workers.  Failures fall back to per-process
    warm-up and count under ``shm_fallbacks`` like the CSR segments.
``warm_rows_published`` / ``warm_rows_adopted``
    Individual pre-failure ``dist``/``pred`` rows shipped through a row
    segment and rows installed into a worker-side
    ``SptCache``/``LazyDistanceOracle`` from an attached segment.
    Adoption is bookkeeping, never search work: it must not move
    ``csr_settled``/``csr_relaxations``.
``warm_row_builds`` / ``worker_warm_row_builds``
    Full pre-failure row constructions during *warm-up* (the batch
    universe/planning Dijkstra/BFS runs that warm-row publication
    exists to eliminate), and the subset of those performed inside
    ``--jobs`` workers.  ``SptCache`` canonical rows always count;
    oracle rows count only inside a :func:`warm_up_phase` block (the
    demand-universe and planning warms) — demand-driven oracle work
    (truncated-row promotions, targeted probes, decomposition row
    fetches) is query cost, not duplicated warm-up, and is tracked by
    the search counters instead.  With publication on,
    ``worker_warm_row_builds`` dropping to zero is the proof that
    workers attach instead of re-settling sources.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Any, Optional, Sequence


class Counter:
    """A monotonically increasing named integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time float; cross-process merge keeps the max."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the high-water mark."""
        if self.value is None or value > self.value:
            self.value = value


#: Bucket upper edges for latency-shaped histograms (seconds).
LATENCY_EDGES = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0)

#: Bucket upper edges for stretch-factor histograms.
STRETCH_EDGES = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0)

#: Bucket upper edges for small-integer histograms (PC length, stack depth).
DEPTH_EDGES = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``edges`` are inclusive upper bounds; values above the last edge
    land in the implicit overflow bucket, so ``counts`` has
    ``len(edges) + 1`` slots.
    """

    __slots__ = ("edges", "counts", "count", "sum", "min", "max")

    def __init__(self, edges: Sequence[float] = LATENCY_EDGES) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram edges must be strictly increasing: {edges}")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def fold(self, other: "Histogram") -> None:
        """Add *other*'s samples (worker fan-in); edges must match."""
        if self.edges != other.edges:
            raise ValueError(
                f"histogram edge mismatch: {list(self.edges)} vs {list(other.edges)}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def mean(self) -> Optional[float]:
        """Arithmetic mean of all samples, or None when empty."""
        return self.sum / self.count if self.count else None

    def as_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class PerfCounters:
    """Work counters (the fields) plus the named instruments."""

    dijkstra_runs: int = 0
    dijkstra_settled: int = 0
    dijkstra_relaxations: int = 0
    bfs_runs: int = 0
    bfs_settled: int = 0
    oracle_rows_full: int = 0
    oracle_rows_truncated: int = 0
    oracle_promotions: int = 0
    probe_calls: int = 0
    o1_probes: int = 0
    path_probes: int = 0
    csr_builds: int = 0
    csr_relaxations: int = 0
    csr_settled: int = 0
    spt_repairs: int = 0
    spt_nodes_resettled: int = 0
    spt_fallbacks: int = 0
    shm_segments: int = 0
    shm_attach: int = 0
    shm_fallbacks: int = 0
    ilm_scenario_chunks: int = 0
    shm_row_segments: int = 0
    shm_row_attach: int = 0
    warm_rows_published: int = 0
    warm_rows_adopted: int = 0
    warm_row_builds: int = 0
    worker_warm_row_builds: int = 0

    def __post_init__(self) -> None:
        #: Record the named instruments (``--obs``)?  Work counters
        #: count regardless.
        self.observing = False
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- named instruments (get-or-create) ------------------------------------

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(
        self, name: str, edges: Sequence[float] = LATENCY_EDGES
    ) -> Histogram:
        """Get-or-create; *edges* only apply on first creation."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(edges)
        return h

    # -- snapshot / delta / merge / reset -------------------------------------

    def snapshot(self) -> "PerfCounters":
        """A detached copy of every counter and named instrument."""
        copy = PerfCounters()
        copy.merge(self)
        return copy

    def delta(self, since: "PerfCounters") -> "PerfCounters":
        """Increments accumulated after *since* was snapshotted.

        Work counters, named counters and histogram counts/sums
        subtract; gauges and histogram min/max carry the current value
        (extremes are not additive — they remain per-process
        observations).
        """
        out = PerfCounters(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )
        for name, c in self._counters.items():
            old = since._counters.get(name)
            out.counter(name).value = c.value - (old.value if old else 0)
        for name, g in self._gauges.items():
            out.gauge(name).value = g.value
        for name, h in self._histograms.items():
            old = since._histograms.get(name) or Histogram(h.edges)
            d = out.histogram(name, h.edges)
            d.counts = [a - b for a, b in zip(h.counts, old.counts)]
            d.count = h.count - old.count
            d.sum = h.sum - old.sum
            d.min, d.max = h.min, h.max
        return out

    def merge(self, other: "PerfCounters") -> None:
        """Add *other*'s counts into this instance (worker fan-in)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, g in other._gauges.items():
            if g.value is not None:
                self.gauge(name).set_max(g.value)
        for name, h in other._histograms.items():
            self.histogram(name, h.edges).fold(h)

    def reset(self) -> None:
        """Drop the named instruments (a fresh ``--obs`` run).

        The work counters stay: they only grow, and readers take deltas.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- serialization --------------------------------------------------------

    def as_dict(self) -> dict[str, int]:
        """The work counters as a plain dict (BENCH ``"counters"``)."""
        return asdict(self)

    def metrics(self) -> dict[str, Any]:
        """The named instruments, sorted by name (BENCH ``"metrics"``)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }


def rates_from_counters(counters: dict[str, int]) -> dict[str, Optional[float]]:
    """Derived hit/efficiency rates from a work-counter dict.

    These are the steering numbers the perf docs quote: how often the
    O(1) probe answered without a Path allocation, how much of the
    oracle stayed truncated, how hard each Dijkstra worked.
    """

    def ratio(num: float, den: float) -> Optional[float]:
        return num / den if den else None

    probes = counters.get("probe_calls", 0)
    rows = counters.get("oracle_rows_full", 0) + counters.get(
        "oracle_rows_truncated", 0
    )
    return {
        "o1_probe_rate": ratio(counters.get("o1_probes", 0), probes),
        "path_probe_rate": ratio(counters.get("path_probes", 0), probes),
        "oracle_truncated_share": ratio(
            counters.get("oracle_rows_truncated", 0), rows
        ),
        "oracle_promotion_rate": ratio(
            counters.get("oracle_promotions", 0),
            counters.get("oracle_rows_truncated", 0),
        ),
        "relaxations_per_dijkstra": ratio(
            counters.get("dijkstra_relaxations", 0),
            counters.get("dijkstra_runs", 0),
        ),
        "settled_per_dijkstra": ratio(
            counters.get("dijkstra_settled", 0),
            counters.get("dijkstra_runs", 0),
        ),
        "resettled_per_repair": ratio(
            counters.get("spt_nodes_resettled", 0),
            counters.get("spt_repairs", 0),
        ),
        "repair_fallback_rate": ratio(
            counters.get("spt_fallbacks", 0),
            counters.get("spt_repairs", 0) + counters.get("spt_fallbacks", 0),
        ),
        "relaxations_per_csr_settled": ratio(
            counters.get("csr_relaxations", 0),
            counters.get("csr_settled", 0),
        ),
    }


#: The process-wide counter singleton every hot path reports to.
COUNTERS = PerfCounters()

_warm_up_depth = 0


@contextmanager
def warm_up_phase():
    """Mark the dynamic extent of a batch warm-up.

    Oracle full-row builds bump ``warm_row_builds`` only inside this
    context (universe warming, publication planning): those are the
    rows a parent can ship through an ``RROW`` segment, so a worker
    rebuilding one is duplicated warm-up.  Demand-driven oracle builds
    outside the context are query work and stay out of the counter.
    Re-entrant; cheap enough for per-fan-out use, not per-row.
    """
    global _warm_up_depth
    _warm_up_depth += 1
    try:
        yield
    finally:
        _warm_up_depth -= 1


def in_warm_up() -> bool:
    """Is a :func:`warm_up_phase` block active on this thread?"""
    return _warm_up_depth > 0
