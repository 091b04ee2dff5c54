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
``dijkstra_canonical(view, source, targets, out=None) -> (dist, pred, exhausted)``
    Canonical-tie-order Dijkstra; the caller has already verified the
    source is alive.  Rows come back as lists, or — given *out*, an
    ``array('d')``/``array('q')`` pair of length n — are written into
    *out*, which is returned.
``bfs(view, source, target, out=None) -> (dist, pred)``
    Canonical index-ordered BFS with optional early target exit; *out*
    as above.
``rows_many(view, sources, unit) -> dict | None``
    Batched full rows; ``None`` means "no batched path — caller loops".
``preorder(pred, root) -> (order, pos, size)``
    Preorder of the tree a predecessor row hangs below *root*, as three
    ``array('q')``: the subtree below a reached node ``x`` is
    ``order[pos[x]:pos[x] + size[x]]``; unreached nodes have ``pos``
    -1 and ``size`` 0.
``repair_resettle(view, source, dist, pred, order, spans, unit, out=None)``
    Ramalingam–Reps re-settle of a non-empty affected region, given as
    preorder slices ``order[spans[2k]:spans[2k + 1]]`` of the source's
    pre-failure tree; writes the repaired row into *out* (fresh arrays
    when ``None``), returns it, and accounts ``spt_nodes_resettled`` /
    ``csr_relaxations``.  The pre-failure row is only read.
``decompose_flat(q, d, offsets, rows) -> (best, choice, probes)``
    The min-pieces decomposition DP over a batch of chains: flat chain
    nodes *q* and prefix sums *d* cut by *offsets*, oracle dist rows
    keyed by node in *rows*.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Optional

from ..perf import COUNTERS

NAME = "python"
INF = float("inf")


def fill_row(out, dist, pred):
    """Write a ``(dist, pred)`` row into the *out* arrays; returns *out*.

    ``None`` *out* stands for fresh ``array('d')``/``array('q')``.
    """
    if out is None:
        return array("d", dist), array("q", pred)
    out_dist, out_pred = out
    if len(out_dist) != len(dist) or len(out_pred) != len(pred):
        raise ValueError("out arrays must have one entry per node")
    out_dist[:] = array(out_dist.typecode, dist)
    out_pred[:] = array(out_pred.typecode, pred)
    return out_dist, out_pred


def dijkstra_canonical(
    view, source: int, targets: Optional[Iterable[int]] = None, out=None
):
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
    if out is not None:
        return (*fill_row(out, dist, pred), exhausted)
    return dist, pred, exhausted


def bfs(view, source: int, target: int = -1, out=None):
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
        return (dist, pred) if out is None else fill_row(out, dist, pred)
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
                        if out is not None:
                            return fill_row(out, dist, pred)
                        return dist, pred
                    next_frontier.append(v)
        frontier = next_frontier
    COUNTERS.csr_relaxations += relaxations
    COUNTERS.csr_settled += settled
    if out is not None:
        return fill_row(out, dist, pred)
    return dist, pred


def rows_many(view, sources: list[int], unit: bool):
    """No batched path in the reference backend — callers loop."""
    return None


def preorder(pred, root: int) -> tuple[array, array, array]:
    """``(order, pos, size)`` of the tree *pred* hangs below *root*.

    Children lists in increasing index order, then a stack walk that
    pops the last child pushed; ``size`` accumulates in reverse
    preorder, so every subtree total is exact whatever the edge weights
    (zero-weight tree edges included).
    """
    n = len(pred)
    children: list[list[int]] = [[] for _ in range(n)]
    for x, parent in enumerate(pred):
        if parent >= 0:
            children[parent].append(x)
    order: list[int] = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        if len(order) > n:
            raise ValueError("pred is not a tree: a cycle runs through the root")
        stack.extend(children[x])
    pos = [-1] * n
    size = [0] * n
    for k, x in enumerate(order):
        pos[x] = k
        size[x] = 1
    for x in reversed(order[1:]):
        size[pred[x]] += size[x]
    return array("q", order), array("q", pos), array("q", size)


def repair_resettle(
    view, source: int, dist, pred, order, spans, unit: bool, out=None
):
    """Boundary offers + bounded heap re-settle of the affected region.

    The body of the historical ``repair_spt`` hot path: blank the
    affected labels, seed a heap with every surviving edge from an
    intact node into the region (equal offers resolved by the canonical
    ``(dist[parent], parent index)`` rule), then re-settle restricted to
    the region.  The region is the preorder slices
    ``order[spans[2k]:spans[2k + 1]]``; it is non-empty and does not
    hold *source*.  The caller owns the policy (affected region,
    fallback threshold, ``spt_repairs``).
    """
    csr = view.csr
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    edge_dead, node_dead = view.masks()

    new_dist = list(dist)
    new_pred = list(pred)
    affected: list[int] = []
    for k in range(0, len(spans), 2):
        affected += order[spans[k]:spans[k + 1]]
    in_region = bytearray(csr.n)
    for x in affected:
        in_region[x] = 1
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
            if in_region[u] or node_dead[u] or edge_dead[slot]:
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
            if not in_region[v] or node_dead[v] or edge_dead[slot]:
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
    return fill_row(out, new_dist, new_pred)


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
