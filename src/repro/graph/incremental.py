"""Decremental shortest-path-tree repair (Ramalingam–Reps style).

The experiments delete 1–2 edges (or 1–2 routers) from a big graph and
ask for post-failure shortest paths.  Recomputing from scratch settles
every node; but deleting k edges only invalidates the *subtree hanging
below them* in the pre-failure SPT — usually a few dozen nodes.  This
module repairs cached pre-failure distance/predecessor arrays instead:

1. **Affected set** — the descendants of every deleted tree edge /
   failed node in the pre-failure predecessor tree.  Each source's
   tree is laid out once in preorder (:func:`preorder`), so the
   subtree below a node is one contiguous slice of that order and the
   affected set is a union of a few slices (:func:`subtree_spans`),
   found in O(k) for k failures.  Nodes outside this set keep their
   exact distance *and* canonical predecessor: their old shortest path
   is untouched, and no distance anywhere ever decreases under
   deletion, so no new parent can beat the old one.
2. **Boundary offers** — every surviving edge from an unaffected node
   into the affected set is a candidate re-attachment; seed a bounded
   heap with those offers.
3. **Re-settle** — run Dijkstra restricted to the affected set, keyed
   ``(dist, node index)`` like
   :func:`~repro.graph.csr.dijkstra_csr_canonical`, so the repaired
   arrays are **bitwise identical** to a from-scratch canonical run
   (distances are sums of the same floats in a different order — but
   each label is a single ``parent + weight`` addition of already-final
   values, so no reassociation occurs).
4. **Fallback** — if the affected set exceeds
   :data:`REPAIR_FALLBACK_FRACTION` of the reachable nodes, repair
   would approach full-recompute cost while paying extra bookkeeping;
   abandon it and recompute (counted in ``COUNTERS.spt_fallbacks``).

:class:`SptCache` wraps the bookkeeping per graph: it owns the CSR
snapshot, memoizes pre-failure rows per source as the typed buffers
the kernels write (``array('d')``/``array('q')``, or read-only views of
rows adopted from shared memory), memoizes each row's preorder, and
exposes
:meth:`SptCache.backup_path` — the restoration-path query the
experiment hot loops use.  Under the canonical ``(dist, index)`` tie
contract (:mod:`repro.graph.csr`), repaired rows are exact for
**weighted and unweighted** graphs alike — the canonical predecessor
is a local property of the final labels, so repair needs no heap
history to replay (the restorable-tiebreaking insight of Bodwin–Parter,
arXiv:2102.10174).  A backup path is therefore just the predecessor
chain of one repaired source row; when the fallback threshold trips,
one targeted early-exit canonical search yields the identical chain
(tight parents settle before their children, so the settled prefix is
final).  Both write into scratch rows the cache owns, and the query
walks the target's chain out of them: no n-length row is copied or
converted per query.  :meth:`SptCache.repair_batch` amortizes one failure scenario
across every source it touches: the dead-edge slots are decoded once
and every affected source is re-settled in the same pass — the
multi-source consumer is the per-scenario ILM accounting.
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, Optional

from ..exceptions import NoPath
from ..kernels import kernel_backend
from ..perf import COUNTERS
from .csr import (
    INF,
    CsrGraph,
    CsrView,
    bfs_csr,
    dijkstra_csr_canonical,
    shared_csr,
)
from .graph import Node
from .paths import Path
from .shortest_paths import shortest_path

#: Repair aborts in favour of a full recompute once the affected set
#: exceeds this fraction of the source's reachable nodes.  Repair does
#: strictly more per-node work than a fresh run (offer scans, region
#: membership tests), and the targeted alternative may exit early, so
#: past ~half the graph the fresh run wins; typical failure cases are far below
#: this, making the fallback a safety valve for pathological cuts
#: (e.g. failing a hub router).  The default was re-tuned from 0.25
#: when weighted repair became legal under the canonical tie contract
#: (sweep in docs/performance.md).
#:
#: This is a documented knob: set the ``REPRO_REPAIR_FALLBACK``
#: environment variable (a float in (0, 1], or > 1 to disable the
#: fallback entirely) or pass ``--repair-fallback`` to the experiment
#: CLIs (which calls :func:`set_repair_fallback_fraction`).  The active
#: value is recorded in every ``BENCH_*.json`` header.
REPAIR_FALLBACK_FRACTION = float(os.environ.get("REPRO_REPAIR_FALLBACK", 0.5))


def repair_fallback_fraction() -> float:
    """The active fallback threshold (env default, CLI-overridable)."""
    return REPAIR_FALLBACK_FRACTION


def set_repair_fallback_fraction(value: float) -> float:
    """Override the fallback threshold process-wide; returns the old value.

    Called by the ``--repair-fallback`` CLI flag before any worker
    processes fork, so the whole fan-out shares one policy.
    """
    global REPAIR_FALLBACK_FRACTION
    if value <= 0:
        raise ValueError(f"repair fallback fraction must be > 0, got {value}")
    old = REPAIR_FALLBACK_FRACTION
    REPAIR_FALLBACK_FRACTION = value
    return old


def preorder(pred, root: int) -> tuple[array, array, array]:
    """``(order, pos, size)``: the preorder of the tree *pred* hangs below *root*.

    Three ``array('q')``: ``order`` lists the nodes the tree reaches,
    ``pos[x]`` is ``x``'s place in it and ``size[x]`` its subtree size
    (-1 and 0 for unreached nodes), so the subtree below a reached
    ``x`` — every node whose tree path runs through ``x``, ``x``
    included — is ``order[pos[x] : pos[x] + size[x]]``, and
    ``size[root]`` counts the reachable nodes.  Built by the kernel
    backend (one O(n) pass; native on the native backend).
    """
    return kernel_backend().preorder(pred, root)


_NO_SPANS = array("q")


def subtree_spans(pos, size, roots: Iterable[int]) -> tuple[array, int]:
    """The union of the subtrees below *roots* as preorder slices.

    Returns ``(spans, count)``: ``spans`` is a flat ``array('q')``
    ``[lo0, hi0, lo1, hi1, ...]`` of disjoint, ascending slices of the
    preorder (a root inside another root's subtree folds into it, so
    no node repeats) and ``count`` the number of nodes they cover.
    Every root must be reached (``pos[root] >= 0``).
    """
    spans = array("q")
    count = 0
    end = 0
    for lo, root in sorted((pos[r], r) for r in roots):
        if lo >= end:
            end = lo + size[root]
            spans.append(lo)
            spans.append(end)
            count += end - lo
    return spans, count


def _cut_spans(
    pred, pos, size, pairs: Iterable[tuple[int, int]], dead_nodes
) -> tuple[array, int]:
    """Affected preorder slices of one tree under a failure mask.

    A dead pair ``(u, v)`` (either orientation) cuts the tree below
    ``v`` when ``pred[v] == u`` and below ``u`` when ``pred[u] == v``;
    every reached dead node roots its own subtree (dead nodes stay in
    the set so callers can blank their labels).
    """
    roots = [x for x in dead_nodes if pos[x] >= 0]
    for u, v in pairs:
        if pred[v] == u:
            roots.append(v)
        if pred[u] == v:
            roots.append(u)
    if not roots:
        return _NO_SPANS, 0
    return subtree_spans(pos, size, roots)


def _blank_row(n: int) -> tuple[array, array]:
    """A fresh ``(array('d'), array('q'))`` pair of length *n* for a kernel to fill."""
    return array("d", bytes(8 * n)), array("q", bytes(8 * n))


def _copy_row(dist, pred) -> tuple[array, array]:
    """Fresh typed copies of a cached (possibly read-only) row."""
    new_dist, new_pred = array("d"), array("q")
    new_dist.frombytes(memoryview(dist).cast("B"))
    new_pred.frombytes(memoryview(pred).cast("B"))
    return new_dist, new_pred


def dead_edge_pairs(view: CsrView) -> list[tuple[int, int]]:
    """Recover (tail, head) index pairs for a view's dead edge slots.

    Tails are delimited by ``indptr``; slots are few (k failures), so a
    binary search per slot is fine.
    """
    csr = view.csr
    indptr, indices, n = csr.indptr, csr.indices, csr.n
    pairs = []
    for slot in view.dead_edges:
        head = indices[slot]
        lo, hi = 0, n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if indptr[mid] <= slot:
                lo = mid
            else:
                hi = mid
        pairs.append((lo, head))
    return pairs


def _full_row(
    view: CsrView, source: int, unit: bool
) -> tuple[list[float], list[int]]:
    """From-scratch post-failure row: canonical Dijkstra or BFS (*unit*)."""
    if unit:
        return bfs_csr(view, source)
    full_dist, full_pred, _ = dijkstra_csr_canonical(view, source)
    return full_dist, full_pred


def repair_spt(
    view: CsrView,
    source: int,
    dist,
    pred,
    fallback_fraction: Optional[float] = None,
    unit: bool = False,
) -> tuple[list[float], list[int]]:
    """Repair a canonical pre-failure SPT after the deletions in *view*.

    *dist* / *pred* must be the **pre-failure** arrays produced by
    :func:`~repro.graph.csr.dijkstra_csr_canonical` (exhausted run) on
    *view*'s underlying snapshot with no mask — or by
    :func:`~repro.graph.csr.bfs_csr` with ``unit=True``, which makes the
    repair relax hop counts instead of stored edge weights.  Returns
    fresh ``(dist, pred)`` lists for the masked graph — distances
    bitwise identical to re-running from scratch on *view*.  The inputs
    are never mutated.

    The one-shot form of :class:`SptCache`'s repair: it lays out
    *pred*'s preorder, takes the affected slices, applies the fallback
    policy and re-settles.  *fallback_fraction* defaults to the
    process-wide :data:`REPAIR_FALLBACK_FRACTION` knob, read at call
    time.

    Each repair bumps ``COUNTERS.spt_repairs``; the number of re-settled
    vertices (the honest per-failure work) accumulates into
    ``COUNTERS.spt_nodes_resettled``; threshold aborts into
    ``COUNTERS.spt_fallbacks`` before delegating to the full kernel.
    """
    if source in view.dead_nodes:
        # The source itself failed; nothing to repair from.
        return _full_row(view, source, unit)
    if fallback_fraction is None:
        fallback_fraction = REPAIR_FALLBACK_FRACTION
    order, pos, size = preorder(pred, source)
    spans, count = _cut_spans(
        pred, pos, size, dead_edge_pairs(view), view.dead_nodes
    )
    if count > fallback_fraction * max(1, size[source]):
        COUNTERS.spt_fallbacks += 1
        return _full_row(view, source, unit)
    COUNTERS.spt_repairs += 1
    if not count:
        # No deleted edge was a tree edge: the SPT survives as-is.
        return list(dist), list(pred)
    new_dist, new_pred = kernel_backend().repair_resettle(
        view, source, dist, pred, order, spans, unit,
        _blank_row(view.csr.n),
    )
    return new_dist.tolist(), new_pred.tolist()


class SptCache:
    """Per-graph cache of pre-failure SPT rows with repair-based queries.

    Owns the CSR snapshot of an (undirected) graph and memoizes one
    canonical pre-failure ``(dist, pred)`` row per requested source,
    plus that row's tree preorder.  Failure-case queries then cost one
    re-settle of the affected preorder slices per cached endpoint
    instead of a full search.  The cache holds rows for the *unmasked*
    graph only — masks arrive per query.
    """

    __slots__ = ("csr", "weighted", "_rows", "_trees", "_spent", "_scratch")

    def __init__(self, graph, weighted: bool = True) -> None:
        self.csr = shared_csr(graph)
        self.weighted = weighted
        # Rows are typed buffers: kernel-written arrays, or read-only
        # views of rows adopted from shared memory.
        self._rows: dict[int, tuple] = {}
        # Per-source preorder of the pre-failure tree (see preorder()):
        # it depends only on the cached row, so it amortizes across
        # every failure case touching that source.
        self._trees: dict[int, tuple[array, array, array]] = {}
        # Rent-to-buy ledger for backup_path: settle work spent on
        # targeted searches per source *before* its row exists.
        self._spent: dict[int, int] = {}
        # The row backup_path's searches and repairs write into; a
        # query only reads one chain out of it, so it is never handed
        # out (repaired_row and repair_batch_idx return fresh rows).
        self._scratch: Optional[tuple[array, array]] = None

    def row(self, source: Node) -> tuple:
        """The pre-failure canonical ``(dist, pred)`` arrays for *source*."""
        return self._row(self.csr.index[source])

    def _row(self, i: int) -> tuple:
        row = self._rows.get(i)
        if row is None:
            backend = kernel_backend()
            base = CsrView(self.csr)
            out = _blank_row(self.csr.n)
            if self.weighted:
                row = backend.dijkstra_canonical(base, i, None, out)[:2]
            else:
                row = backend.bfs(base, i, -1, out)
            self._rows[i] = row
            COUNTERS.warm_row_builds += 1
        return row

    def _tree(self, i: int) -> tuple[array, array, array]:
        """``(order, pos, size)`` of *i*'s pre-failure tree, memoized."""
        tree = self._trees.get(i)
        if tree is None:
            tree = self._trees[i] = preorder(self._row(i)[1], i)
        return tree

    def warm_rows(self, source_idxs: Iterable[int]) -> None:
        """Batch-build missing pre-failure rows where the backend can.

        The native backend settles the batch in one C call per chunk
        (:func:`repro.kernels.kernel_backend`'s ``rows_many``); the
        reference backend declines and the rows stay lazily built by
        :meth:`_row`.  Either way the cached rows — and the counter
        increments — are bit-identical.
        """
        missing = [
            i for i in dict.fromkeys(source_idxs) if i not in self._rows
        ]
        if len(missing) > 1:
            built = kernel_backend().rows_many(
                CsrView(self.csr), missing, not self.weighted
            )
            if built:
                for i, (dist, pred) in built.items():
                    self._rows[i] = (array("d", dist), array("q", pred))
                COUNTERS.warm_row_builds += len(built)

    def ensure_rows(self, source_idxs: Iterable[int]) -> None:
        """Guarantee every listed source has a cached pre-failure row.

        :meth:`warm_rows` plus a lazy-build sweep for whatever the
        backend declined to batch (the reference backend batches
        nothing) — the publisher-side primitive: a parent warms the
        exact row set here, then ships it via
        :func:`repro.graph.shm.publish_rows`.
        """
        idxs = list(dict.fromkeys(source_idxs))
        self.warm_rows(idxs)
        for i in idxs:
            self._row(i)

    def export_rows(self) -> dict[int, tuple]:
        """Every cached pre-failure row, keyed by CSR source index.

        The publication payload for :func:`repro.graph.shm.publish_rows`
        — all cached rows are full canonical rows of the unmasked
        graph, so they are safe to ship as-is.
        """
        return dict(self._rows)

    def adopt_rows(self, table) -> int:
        """Install warm rows from an attached shm ``RowTable``.

        Fills **only missing** sources with the table's zero-copy
        read-only ``(dist, pred)`` views — locally built or repaired
        rows are never overwritten.  Adoption is bookkeeping, not
        search work: it bumps ``COUNTERS.warm_rows_adopted`` and leaves
        ``csr_settled``/``csr_relaxations`` untouched, so worker-side
        counter deltas keep measuring real work.  A table published for
        a different graph shape, query semantics, or consumer kind is
        refused outright (``ValueError``) — adopting wrong rows would
        silently corrupt every downstream repair.  Returns the number
        of rows installed.
        """
        if table.kind != "spt":
            raise ValueError(
                f"cannot adopt {table.kind!r} rows into an SptCache"
            )
        if table.n != self.csr.n:
            raise ValueError(
                f"row table has n={table.n}, cache has n={self.csr.n}"
            )
        if table.weighted != self.weighted:
            raise ValueError(
                f"row table weighted={table.weighted}, "
                f"cache weighted={self.weighted}"
            )
        if (
            table.source_version is not None
            and self.csr.source_version is not None
            and table.source_version != self.csr.source_version
        ):
            raise ValueError(
                f"row table published for graph version "
                f"{table.source_version}, cache snapshot is version "
                f"{self.csr.source_version}"
            )
        adopted = 0
        for i in table.sources:
            if i not in self._rows:
                self._rows[i] = table.row(i)
                adopted += 1
        COUNTERS.warm_rows_adopted += adopted
        return adopted

    def _affected(
        self,
        i: int,
        view: CsrView,
        pairs: Optional[list[tuple[int, int]]] = None,
    ) -> tuple[array, int]:
        """Affected ``(spans, count)`` of *i*'s cached tree under *view*'s mask.

        The preorder slices :func:`subtree_spans` returns.  *pairs*
        lets batched callers reuse one ``dead_edge_pairs`` decode of the
        scenario across every source it touches.
        """
        pred = self._row(i)[1]
        _, pos, size = self._tree(i)
        if pairs is None:
            pairs = dead_edge_pairs(view)
        return _cut_spans(pred, pos, size, pairs, view.dead_nodes)

    def subtree_sizes(self, i: int) -> array:
        """Subtree size of every node in *i*'s pre-failure SPT.

        ``sizes[v]`` counts the nodes whose shortest path from the
        source routes through *v* (including *v* itself); unreachable
        nodes get 0.  The ``size`` array of the memoized preorder, so
        exact under zero-weight edges too.
        """
        return self._tree(i)[2]

    def repair_cost_estimate(
        self,
        i: int,
        dead_pairs: Iterable[tuple[int, int]],
        dead_nodes: Iterable[int],
    ) -> int:
        """Estimated :func:`repair_spt` work for source *i* (cost model).

        Sums the pre-failure subtree sizes hanging below each dead tree
        edge and each dead reachable node — an upper-ish bound on the
        affected region the repair will re-settle.  Overlapping dead
        subtrees double-count, so the total is capped at the source's
        reachable-node count (which is also the fallback recompute
        cost).  Pure arithmetic over cached rows: no search work.
        """
        pred = self._row(i)[1]
        size = self.subtree_sizes(i)
        cost = 0
        for u, v in dead_pairs:
            if pred[v] == u:
                cost += size[v]
            elif pred[u] == v:
                cost += size[u]
        for x in dead_nodes:
            cost += size[x]  # 0 when unreached
        return min(cost, size[i])

    def _repair_viable(self, i: int, count: int, view: CsrView) -> bool:
        """Apply the fallback policy: small-enough affected set, live source."""
        if i in view.dead_nodes:
            return False
        reachable = self.subtree_sizes(i)[i]
        if count > REPAIR_FALLBACK_FRACTION * max(1, reachable):
            COUNTERS.spt_fallbacks += 1
            return False
        return True

    def _resettle(self, i: int, view: CsrView, spans: array, out) -> tuple:
        """One counted repair of *i*'s row over *spans*, written into *out*."""
        COUNTERS.spt_repairs += 1
        dist, pred = self._row(i)
        return kernel_backend().repair_resettle(
            view, i, dist, pred, self._tree(i)[0], spans,
            not self.weighted, out,
        )

    def _repaired(self, i: int, view: CsrView, spans: array, count: int):
        """Fresh post-failure row of *i* from a viable repair."""
        if not count:
            # Tree untouched by the mask: a copy of the cached row.
            COUNTERS.spt_repairs += 1
            return _copy_row(*self._row(i))
        return self._resettle(i, view, spans, _blank_row(self.csr.n))

    def repaired_row(self, source: Node, view: CsrView) -> tuple:
        """Post-failure ``(dist, pred)`` for *source* under *view*'s mask.

        Repairs the cached pre-failure row when the affected subtree is
        small; recomputes from scratch when the source died or the
        fallback threshold trips.  Either way the arrays are bitwise
        identical to a from-scratch canonical run on *view*, and a
        repaired row is the caller's own (fresh arrays).
        """
        return self._repaired_row_idx(self.csr.index[source], view)

    def _repaired_row_idx(
        self,
        i: int,
        view: CsrView,
        pairs: Optional[list[tuple[int, int]]] = None,
    ) -> tuple:
        if not view.dead_edges and not view.dead_nodes:
            return self._row(i)
        spans, count = self._affected(i, view, pairs=pairs)
        if not self._repair_viable(i, count, view):
            return _full_row(view, i, not self.weighted)
        return self._repaired(i, view, spans, count)

    def repair_batch(
        self, sources: Iterable[Node], scenario_or_view
    ) -> dict[Node, tuple[list[float], list[int]]]:
        """Post-failure rows for every source touched by one scenario.

        The multi-source batched entry point: the scenario's dead edge
        slots are decoded **once** and shared across every source's
        affected-subtree computation, then all touched sources are
        re-settled in the same pass.  Each returned row is bitwise
        identical to :meth:`repaired_row` for that source (the repairs
        are independent — they only share the scenario decode and the
        per-source children/reachable caches).  Dead sources are
        omitted from the result.
        """
        view = self.view_for(scenario_or_view)
        index, nodes = self.csr.index, self.csr.nodes
        rows_idx = self.repair_batch_idx(
            (index[source] for source in sources), view
        )
        return {nodes[i]: row for i, row in rows_idx.items()}

    def repair_batch_idx(
        self, source_idxs: Iterable[int], scenario_or_view
    ) -> dict[int, tuple[list[float], list[int]]]:
        """Index-space :meth:`repair_batch`: ``{source idx: (dist, pred)}``.

        The all-array variant flat-row consumers (the ILM accountant)
        call directly — no Node round-trips.  Dead sources are omitted.

        Besides the shared scenario decode, the batch stages its work
        for the batched backend entries: missing pre-failure rows are built
        in one :meth:`warm_rows` call, and the sources whose repair
        trips the fallback policy are recomputed together through
        ``rows_many`` on the masked view.  Rows and counters are
        bit-identical to calling :meth:`repaired_row` per source.
        """
        view = self.view_for(scenario_or_view)
        idxs = [
            i for i in dict.fromkeys(source_idxs)
            if i not in view.dead_nodes
        ]
        self.warm_rows(idxs)
        if not view.dead_edges and not view.dead_nodes:
            return {i: self._row(i) for i in idxs}
        pairs = dead_edge_pairs(view)
        cuts: dict[int, tuple[array, int]] = {}
        fallbacks: list[int] = []
        for i in idxs:
            spans, count = self._affected(i, view, pairs=pairs)
            if self._repair_viable(i, count, view):
                cuts[i] = (spans, count)
            else:
                fallbacks.append(i)
        full = (
            kernel_backend().rows_many(view, fallbacks, not self.weighted)
            if len(fallbacks) > 1
            else None
        )
        rows: dict[int, tuple] = {}
        for i in idxs:
            cut = cuts.get(i)
            if cut is None:
                rows[i] = (
                    full[i]
                    if full is not None
                    else _full_row(view, i, not self.weighted)
                )
            else:
                rows[i] = self._repaired(i, view, *cut)
        return rows

    def view_for(self, scenario_or_view) -> CsrView:
        """Masked view for a FailureScenario / FilteredView / (edges, nodes)."""
        if isinstance(scenario_or_view, CsrView):
            return scenario_or_view
        links = getattr(scenario_or_view, "links", None)
        if links is not None:  # FailureScenario
            return self.csr.with_edges_removed(links, scenario_or_view.routers)
        return self.csr.with_edges_removed(
            scenario_or_view.failed_edges, scenario_or_view.failed_nodes
        )

    def backup_path(self, source: Node, target: Node, scenario_or_view) -> Path:
        """Post-failure shortest path under the canonical tie contract.

        The predecessor chain of the repaired source row — **one**
        subtree repair per failure case, weighted or not, instead of a
        full search.  When repair is not viable (dead source, or the
        affected subtree trips the fallback threshold) the query
        degrades to a single targeted early-exit canonical search,
        which produces the identical chain: tight parents settle before
        their children in ``(dist, index)`` order, so the settled
        prefix of a pruned run is final.  Equals the path of a
        from-scratch canonical kernel run node-for-node (and
        ``shortest_path`` on the filtered view cost-for-cost).  Raises
        :class:`~repro.exceptions.NoPath` when the failure disconnects
        the pair.
        """
        view = self.view_for(scenario_or_view)
        s, t = self.csr.index[source], self.csr.index[target]
        if s in view.dead_nodes or t in view.dead_nodes:
            raise NoPath(f"no path from {source!r} to {target!r}")
        if s == t:
            return Path([source])
        dist, pred = self._backup_row(s, t, view)
        if dist[t] == INF:
            raise NoPath(f"no path from {source!r} to {target!r}")
        return Path(_chain(self.csr, pred, s, t))

    def _backup_row(self, s: int, t: int, view: CsrView) -> tuple:
        """Repaired source row, or one targeted search when not viable.

        Rent-to-buy: while *s* has no cached row, targeted early-exit
        searches answer (renting); their settle work accrues in
        ``_spent``, and only once a source has paid about two full
        rows' worth (``2 * n`` settles) does the cache build the row and
        switch to repair (buying).  One-shot sources — table3 bypasses
        each edge of the graph once, every source ~degree times — never
        pay for a full row, while table2's sources (hundreds of failure
        cases each) cross the threshold almost immediately.  Total work
        stays within a small constant factor of the better strategy
        either way, without knowing the query distribution in advance.

        Searches and repairs write into the cache's scratch row, which
        the caller reads before the next query overwrites it.
        """
        if not view.dead_edges and not view.dead_nodes:
            return self._row(s)
        if s not in self._rows and self._spent.get(s, 0) < 2 * self.csr.n:
            before = COUNTERS.csr_settled
            row = self._targeted_row(s, t, view)
            self._spent[s] = self._spent.get(s, 0) + (
                COUNTERS.csr_settled - before
            )
            return row
        spans, count = self._affected(s, view)
        if self._repair_viable(s, count, view):
            if not count:
                # Tree untouched by the mask: the cached row answers.
                COUNTERS.spt_repairs += 1
                return self._row(s)
            return self._resettle(s, view, spans, self._scratch_row())
        return self._targeted_row(s, t, view)

    def _scratch_row(self) -> tuple[array, array]:
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = _blank_row(self.csr.n)
        return scratch

    def _targeted_row(self, s: int, t: int, view: CsrView) -> tuple:
        """One early-exit canonical search toward *t*, into the scratch row."""
        backend = kernel_backend()
        if self.weighted:
            return backend.dijkstra_canonical(
                view, s, (t,), self._scratch_row()
            )[:2]
        return backend.bfs(view, s, t, self._scratch_row())

    def distances(
        self, source: Node, scenario_or_view=None
    ) -> dict[Node, float]:
        """Dict of post-failure distances from *source* (repair-based)."""
        view = (
            CsrView(self.csr)
            if scenario_or_view is None
            else self.view_for(scenario_or_view)
        )
        dist, _ = self.repaired_row(source, view)
        nodes = self.csr.nodes
        return {nodes[i]: d for i, d in enumerate(dist) if d != INF}


def _chain(csr: CsrGraph, pred: list[int], s: int, t: int) -> list[Node]:
    chain = [t]
    x = t
    while x != s:
        x = pred[x]
        chain.append(x)
    chain.reverse()
    return [csr.nodes[i] for i in chain]


def csr_shortest_path(
    graph, source: Node, target: Node, weighted: bool = True
) -> Optional[Path]:
    """CSR-backed drop-in for :func:`repro.graph.shortest_paths.shortest_path`.

    Dispatches on the argument: a :class:`FilteredView` over an
    undirected base becomes a mask on the base's **shared
    per-process** :class:`SptCache` (so one-shot callers like figure10,
    table3 bypasses and the restoration planners amortize pre-failure
    rows across the many failure cases of the same pair, exactly like
    table2); a bare undirected :class:`Graph` queries the same cache
    with an empty mask.  Returns ``None`` when the argument is outside
    the fast path (directed graphs, non-weakref-able objects, nodes
    added after the snapshot) so the caller can fall back to the dict
    implementation.  Raises :class:`~repro.exceptions.NoPath` exactly
    like the original.
    """
    base = getattr(graph, "base", None)
    filtered = base is not None
    if not filtered:
        base = graph
    if getattr(base, "directed", False):
        return None
    # Lazy import: repro.core.cache imports SptCache from this module.
    from ..core.cache import shared_spt_cache

    try:
        cache = shared_spt_cache(base, weighted=weighted)
    except TypeError:  # pragma: no cover - Graph is weakref-able
        return None
    csr = cache.csr
    if source not in csr.index or target not in csr.index:
        return None  # node added after the snapshot; stay on dict path
    view = cache.view_for(graph) if filtered else CsrView(csr)
    return cache.backup_path(source, target, view)


def fast_shortest_path(
    graph, source: Node, target: Node, weighted: bool = True
) -> Path:
    """:func:`~repro.graph.shortest_paths.shortest_path` on flat arrays.

    Same results, same exceptions; falls back to the dict implementation
    transparently whenever the argument is outside the CSR fast path.
    """
    path = csr_shortest_path(graph, source, target, weighted=weighted)
    if path is None:
        return shortest_path(graph, source, target, weighted=weighted)
    return path
