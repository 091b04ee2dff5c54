"""Pure-Python reference kernels — the semantics every backend must match.

These are the original hot loops of :mod:`repro.graph.csr`,
:mod:`repro.graph.incremental`, and
:mod:`repro.experiments.ilm_accounting`, moved behind the backend
interface unchanged.  Dead-edge/dead-node probes use the flat bytearray
masks of :meth:`~repro.graph.csr.CsrView.masks` instead of per-slot set
membership — an index costs what an empty-frozenset probe used to, and
beats hashing whenever a mask is non-empty — with counter accounting
identical to the historical set-based loops.

Backend interface (duck-typed module):

``NAME``
    Backend identifier stamped into BENCH headers.
``dijkstra_canonical(view, source, targets) -> (dist, pred, exhausted)``
    Canonical-tie-order Dijkstra; the caller has already verified the
    source is alive.
``bfs(view, source, target) -> (dist, pred)``
    Canonical index-ordered BFS with optional early target exit.
``rows_many(view, sources, unit) -> dict | None``
    Batched full rows; ``None`` means "no batched path — caller loops".
``repair_resettle(view, source, dist, pred, affected, unit)``
    Ramalingam–Reps re-settle of a non-empty affected subtree; returns
    fresh ``(new_dist, new_pred)`` and accounts
    ``spt_nodes_resettled`` / ``csr_relaxations``.
``decompose_flat(q, d, offsets, rows) -> (best, choice, probes)``
    The min-pieces decomposition DP over a batch of chains: flat chain
    nodes *q* and prefix sums *d* cut by *offsets*, oracle dist rows
    keyed by node in *rows*.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

from ..perf import COUNTERS

NAME = "python"
INF = float("inf")


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None
) -> tuple[list[float], list[int], bool]:
    """Lazy-heap canonical Dijkstra (see ``dijkstra_csr_canonical``)."""
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    best = [INF] * csr.n
    best[source] = 0.0
    remaining: Optional[set[int]] = None
    if targets is not None:
        remaining = {t for t in targets if t != source and not node_dead[t]}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = 0
    relaxations = 0
    exhausted = True
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d_u, u = pop(heap)
        if dist[u] != INF:
            continue
        dist[u] = d_u
        settled += 1
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                exhausted = not heap
                break
        for slot in range(indptr[u], indptr[u + 1]):
            v = indices[slot]
            if node_dead[v] or edge_dead[slot]:
                continue
            relaxations += 1
            if dist[v] != INF:
                continue
            candidate = d_u + weights[slot]
            if candidate < best[v]:
                best[v] = candidate
                pred[v] = u
                push(heap, (candidate, v))
            # candidate == best[v] cannot name a better (dist, index)
            # parent here: parents relax in settle order, which IS the
            # (dist, index) order, so the first tight parent already won.
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return dist, pred, exhausted


def bfs(view, source: int, target: int = -1) -> tuple[list[float], list[int]]:
    """Canonical index-ordered BFS (see ``bfs_csr``)."""
    csr = view.csr
    indptr, indices = csr.indptr, csr.indices
    edge_dead, node_dead = view.masks()
    dist = [INF] * csr.n
    pred = [-1] * csr.n
    dist[source] = 0.0
    settled = 1
    relaxations = 0
    if source == target:
        COUNTERS.csr_settled += settled
        return dist, pred
    frontier = [source]
    while frontier:
        frontier.sort()
        next_frontier = []
        for u in frontier:
            d_next = dist[u] + 1.0
            for slot in range(indptr[u], indptr[u + 1]):
                v = indices[slot]
                if node_dead[v] or edge_dead[slot]:
                    continue
                relaxations += 1
                if dist[v] == INF:
                    dist[v] = d_next
                    pred[v] = u
                    settled += 1
                    if v == target:
                        COUNTERS.csr_relaxations += relaxations
                        COUNTERS.csr_settled += settled
                        return dist, pred
                    next_frontier.append(v)
        frontier = next_frontier
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    return dist, pred


def rows_many(view, sources: list[int], unit: bool):
    """No batched path in the reference backend — callers loop."""
    return None


def repair_resettle(
    view,
    source: int,
    dist: list[float],
    pred: list[int],
    affected: set[int],
    unit: bool,
) -> tuple[list[float], list[int]]:
    """Boundary offers + bounded heap re-settle of the affected subtree.

    The body of the historical ``repair_spt`` hot path: blank the
    affected labels, seed a heap with every surviving edge from an
    intact node into the region (equal offers resolved by the canonical
    ``(dist[parent], parent index)`` rule), then re-settle restricted to
    the region.  The caller owns the policy (affected computation,
    fallback threshold, ``spt_repairs``); *affected* is non-empty and
    does not contain *source*.
    """
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()

    new_dist = list(dist)
    new_pred = list(pred)
    for x in affected:
        new_dist[x] = INF
        new_pred[x] = -1

    # Boundary offers: surviving edges from intact nodes into the
    # affected region.  Scanning each affected node's adjacency finds
    # them because the graphs are undirected (every in-edge is visible
    # as an out-edge).  The equal-offer tie rule — parent minimizing
    # ``(dist[parent], parent index)`` — reproduces the canonical
    # kernel's "first tight parent in settle order" choice, so repaired
    # predecessors match a from-scratch run exactly.
    best: dict[int, tuple[float, int]] = {}
    heap: list[tuple[float, int]] = []
    relaxations = 0
    for x in affected:
        if node_dead[x]:
            continue
        for slot in range(indptr[x], indptr[x + 1]):
            u = indices[slot]
            if u in affected or node_dead[u] or edge_dead[slot]:
                continue
            relaxations += 1
            candidate = new_dist[u] + (1.0 if unit else weights[slot])
            old = best.get(x)
            if (
                old is None
                or candidate < old[0]
                or (
                    candidate == old[0]
                    and (new_dist[u], u) < (new_dist[old[1]], old[1])
                )
            ):
                best[x] = (candidate, u)
    for x, (candidate, _) in best.items():
        heapq.heappush(heap, (candidate, x))

    settled = 0
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d_x, x = pop(heap)
        if new_dist[x] != INF:
            continue
        if d_x != best[x][0]:
            continue  # stale entry superseded by a better offer
        new_dist[x] = d_x
        new_pred[x] = best[x][1]
        settled += 1
        for slot in range(indptr[x], indptr[x + 1]):
            v = indices[slot]
            if v not in affected or node_dead[v] or edge_dead[slot]:
                continue
            relaxations += 1
            if new_dist[v] != INF:
                continue
            candidate = d_x + (1.0 if unit else weights[slot])
            old = best.get(v)
            if (
                old is None
                or candidate < old[0]
                or (
                    candidate == old[0]
                    and (d_x, x) < (new_dist[old[1]], old[1])
                )
            ):
                best[v] = (candidate, x)
                push(heap, (candidate, v))
    COUNTERS.spt_nodes_resettled += settled
    COUNTERS.csr_relaxations += relaxations
    return new_dist, new_pred


def decompose_flat(q, d, offsets, rows) -> tuple[list[int], list[int], int]:
    """Min-pieces DP over a batch of chains — forward pass, first-minimal-j
    ties.

    Chain *k* is ``q[offsets[k]:offsets[k + 1]]`` (node indices) with
    the prefix sums of its probe-graph weights at the same positions
    of *d*; ``rows[v]`` is the oracle dist row of node *v*, needed for
    every ``chain[j]`` with ``j <= len(chain) - 3`` (a missing one
    raises ``KeyError``).  Returns flat ``(best, choice, probes)``
    aligned with *q*: ``best[lo + i] == len(chain) + 1`` means unset,
    and ``probes`` totals the cell probes of every chain.  The caller
    extracts pieces and accounts the probes.
    """
    from ..graph.shortest_paths import costs_equal

    best: list[int] = []
    choice: list[int] = []
    probes = 0
    for k in range(len(offsets) - 1):
        lo, hi = offsets[k], offsets[k + 1]
        chain = q[lo:hi]
        cum = d[lo:hi]
        n = hi - lo
        unset = n + 1
        b = [unset] * n
        ch = [0] * n
        if n:
            b[0] = 0
        for i in range(1, n):
            ci = chain[i]
            cum_i = cum[i]
            bi = unset
            cj = 0
            for j in range(i):
                bj = b[j]
                if bj == unset:
                    continue
                probes += 1
                if i - j > 1:
                    dj = rows[chain[j]][ci]
                    if dj == INF or not costs_equal(cum_i - cum[j], dj):
                        continue
                candidate = bj + 1
                if candidate < bi:
                    bi = candidate
                    cj = j
            b[i] = bi
            ch[i] = cj
        best += b
        choice += ch
    return best, choice, probes
