"""Faithful ILM stretch accounting — Table 2's first two columns.

The naive alternative the paper measures against is Section 4's
per-failure pre-provisioning: *"for each link pre-compute all the
paths that would be affected by its failure, and for each affected
path establish a backup LSP"*.  The comparison is therefore scoped per
*failure scenario* over a whole *demand universe*, not per sampled
demand:

* **denominator** (naive): for every scenario, every affected demand
  of the universe gets its own dedicated backup LSP — an ILM entry at
  each router of its backup path, never shared (each backup is bound
  to its trigger), plus the primary LSPs themselves;
* **numerator** (RBPC): the union of base LSPs (decomposition pieces
  plus primaries) that restoration *uses*, deduplicated globally —
  sharing across demands and scenarios is the whole point.

The stretch factor at a router is numerator/denominator; Table 2
reports the minimum and mean over routers the naive scheme touches.

:class:`IlmAccountant` batches the computation per scenario: all
touched sources go through one
:meth:`~repro.graph.incremental.SptCache.repair_batch_idx` call — the
scenario's dead edges are decoded once, each source's cached
pre-failure row is repaired (not recomputed), and every affected
demand of that source reads its backup off the repaired predecessor
array.  That is what makes all-pairs demand universes tractable on the
ISP and sampled-source universes tractable on the large graphs.

**Preorder-slice demand universe.**  All per-scenario state lives in
CSR index space (``shared_csr(graph).nodes`` positions).  The base
oracle is tie-free, so one source's primaries are its predecessor
tree: the demands a dead link or router disturbs are the subtree
below it, one contiguous slice of the tree's preorder, and a
multi-failure scenario disturbs a union of such slices.  Per-source
``pred`` rows are warmed once and the ``(order, pos, size)`` preorder
arrays are built lazily, so no reverse index over the universe
exists.  Touched primaries are a ``bytearray`` bitmap over
``(source position, target)``, per-router naive counts accumulate
into one ``array('l')``, and repeated backup chains skip the
decomposition DP through a chain-keyed memo.  A scenario's memo
misses are decomposed together in one kernel call
(:meth:`IlmAccountant._decompose_misses`) that reads the oracle's dist
rows in place.

**Parallel fan-out.**  The accumulated state is a pure function of the
*set* of processed scenarios — counts are additive, the primaries
bitmap ORs, pieces dedup by set union, and the derived counters
(:meth:`stretch_factors`, :meth:`table_sizes`, :meth:`base_lsp_count`)
are finalized from that state in node-index order.  Workers
therefore process disjoint scenario chunks and ship
:meth:`export_state`; the parent :meth:`merge_state`-s them and gets
results byte-identical to the sequential run, independent of chunking
or merge order.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from typing import Iterable, Optional

from ..core.base_paths import BaseSet
from ..core.cache import shared_spt_cache
from ..core.decomposition import min_pieces_decompose
from ..exceptions import DecompositionError
from ..failures.models import FailureScenario
from ..graph.csr import INF, shared_csr
from ..graph.graph import Graph, Node
from ..graph.incremental import preorder, subtree_spans
from ..graph.paths import Path
from ..kernels import kernel_backend
from ..obs import heartbeat
from ..perf import COUNTERS, warm_up_phase

#: A path in CSR index space: the node-index sequence, source first.
Chain = tuple[int, ...]


class IlmAccountant:
    """Per-scenario, demand-universe-wide ILM stretch computation."""

    def __init__(
        self,
        graph: Graph,
        base: BaseSet,
        demand_sources: Optional[list[Node]] = None,
        weighted: bool = True,
    ) -> None:
        self.graph = graph
        self.base = base
        self.weighted = weighted
        self.csr = shared_csr(graph)
        oracle = self._aligned_oracle()
        if oracle is None:
            raise ValueError(
                "IlmAccountant needs a base set whose distance oracle "
                "shares the graph's CSR index space (e.g. "
                f"UniqueShortestPathsBase); got {type(base).__name__}"
            )
        self._oracle = oracle
        if demand_sources is None:
            demand_sources = sorted(graph.nodes, key=repr)
        self.demand_sources = list(demand_sources)
        index = self.csr.index
        self._source_idx = list(
            dict.fromkeys(index[source] for source in self.demand_sources)
        )
        self._source_pos = {si: p for p, si in enumerate(self._source_idx)}
        # The demand universe: each source's primaries are its oracle
        # predecessor tree.  ``pred`` rows are collected by the
        # warm-up (or on demand by _finalize); the preorder arrays are
        # built per source the first time a scenario cuts its tree.
        self._preds: dict[int, object] = {}
        self._universe_ready = False
        self._trees: dict[int, tuple[array, array, array]] = {}
        # Mergeable accounting state (see the module docstring).
        self._probe_weights: Optional[dict[tuple[int, int], float]] = None
        self._backup_naive = array("l", bytes(array("l").itemsize * self.csr.n))
        self._primaries = bytearray(len(self._source_idx) * self.csr.n)
        self._pieces: set[Chain] = set()
        self._decomp_memo: dict[Chain, Optional[tuple[Chain, ...]]] = {}
        self._final: Optional[tuple[list[int], list[int], int]] = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    def reset_accounting(self) -> None:
        """Zero the mergeable accounting state, keep the caches.

        A worker process reuses one accountant per network/mode across
        every chunk it pulls from the shared work queue: the demand
        universe (each source's predecessor row and preorder tree
        arrays), the probe weights and the decomposition memo are pure
        functions of the network and stay warm, while the per-chunk
        tallies exported by :meth:`export_state` start from zero so the
        parent's merge sees each chunk exactly once.
        """
        self._backup_naive = array(
            "l", bytes(array("l").itemsize * self.csr.n)
        )
        self._primaries = bytearray(len(self._primaries))
        self._pieces = set()
        self._final = None
        self.scenarios_processed = 0
        self.demands_restored = 0
        self.demands_unrestorable = 0

    # -- demand universe ------------------------------------------------------

    def _aligned_oracle(self):
        """The base set's oracle, iff its flat rows share our index space."""
        oracle = getattr(self.base, "oracle", None)
        if oracle is None or getattr(oracle, "break_ties_by_hops", False):
            return None
        try:
            aligned = oracle.csr().nodes == self.csr.nodes
        except Exception:
            return None
        return oracle if aligned else None

    def _pred_row(self, si: int):
        """Source *si*'s oracle predecessor row: its primaries' tree."""
        pred = self._preds.get(si)
        if pred is None:
            pred = self._preds[si] = self._oracle.row_arrays(
                self.csr.nodes[si]
            )[1]
        return pred

    def _ensure_universe(self) -> None:
        """Warm every demand source's oracle row and keep its ``pred``.

        Exactly the row set a parent publishes, so builds inside this
        phase count as ``warm_row_builds`` — under the reference
        backend ``warm_many`` is a no-op and ``row_arrays`` builds each
        row, which is why the ``pred`` fetch stays inside the phase.
        """
        if self._universe_ready:
            return
        nodes = self.csr.nodes
        with warm_up_phase():
            self._oracle.warm_many(nodes[si] for si in self._source_idx)
            for si in self._source_idx:
                self._pred_row(si)
        self._universe_ready = True

    def _tree(self, si: int) -> tuple[array, array, array]:
        """``(order, pos, size)``: the preorder of *si*'s primary tree.

        The subtree below a reached node ``x`` — every target whose
        primary passes through ``x``, ``x`` included — is
        ``order[pos[x] : pos[x] + size[x]]``
        (:func:`~repro.graph.incremental.preorder`).
        """
        tree = self._trees.get(si)
        if tree is None:
            tree = self._trees[si] = preorder(self._preds[si], si)
        return tree

    # -- accounting -----------------------------------------------------------

    def _affected_by(self, scenario: FailureScenario) -> dict[int, list[int]]:
        """``source idx -> [target idxs]`` of disturbed demands.

        A dead link cuts a live source's tree below whichever endpoint
        the other one parents, and a dead router roots its own subtree
        (the router stays in it as an unreachable target); a dead
        source has no flow to restore.  Each root's subtree is one
        preorder slice; several roots are merged as disjoint intervals
        (nested subtrees fold into their ancestor's), so no target
        repeats.
        """
        self._ensure_universe()
        index = self.csr.index
        dead_links: list[tuple[int, int]] = []
        for u, v in scenario.links:
            iu, iv = index.get(u), index.get(v)
            if iu is not None and iv is not None:
                dead_links.append((iu, iv))
        dead_routers = {index[r] for r in scenario.routers if r in index}
        preds = self._preds
        grouped: dict[int, list[int]] = {}
        for si in self._source_idx:
            if si in dead_routers:
                continue
            pred = preds[si]
            roots = [r for r in dead_routers if pred[r] >= 0]
            for a, b in dead_links:
                if pred[b] == a:
                    roots.append(b)
                elif pred[a] == b:
                    roots.append(a)
            if not roots:
                continue
            order, pos, size = self._tree(si)
            spans, _ = subtree_spans(pos, size, roots)
            targets: list[int] = []
            for k in range(0, len(spans), 2):
                targets += order[spans[k] : spans[k + 1]]
            grouped[si] = targets
        return grouped

    def plan_scenarios(
        self, scenarios: list[FailureScenario]
    ) -> tuple[list[int], list[int]]:
        """Cost-model pass over *scenarios* (the fan-out scheduler input).

        Returns ``(costs, touched)``: a per-scenario work estimate and
        the sorted CSR indices of every source any scenario repairs.
        The estimate is the summed
        :meth:`~repro.graph.incremental.SptCache.repair_cost_estimate`
        over the scenario's touched sources — pre-failure subtree sizes
        below the dead links/routers, the dominant ``repair_spt`` term
        — plus the affected-demand count (backup walks and
        decomposition probes scale with it).  As a side effect this
        warms the exact SPT row set a parallel run wants to publish,
        which is the same row set a sequential run builds one scenario
        at a time.  Deterministic: pure arithmetic over cached rows.
        """
        index = self.csr.index
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        grouped_list = [self._affected_by(s) for s in scenarios]
        touched = sorted({si for g in grouped_list for si in g})
        cache.ensure_rows(touched)
        costs: list[int] = []
        for scenario, grouped in zip(scenarios, grouped_list):
            dead_pairs: list[tuple[int, int]] = []
            for u, v in scenario.links:
                iu, iv = index.get(u), index.get(v)
                if iu is not None and iv is not None:
                    dead_pairs.append((iu, iv))
            dead_nodes = [
                index[r] for r in scenario.routers if r in index
            ]
            cost = 0
            for si, targets in grouped.items():
                cost += cache.repair_cost_estimate(
                    si, dead_pairs, dead_nodes
                ) + len(targets)
            costs.append(cost)
        return costs, touched

    def publish_warm_rows(self):
        """Publish this accountant's warm rows for a scenario fan-out.

        Ships every cached SPT row of the shared cache and every
        complete oracle row (the sets :meth:`plan_scenarios` just
        warmed, plus whatever earlier stages left behind) as two
        ``RROW`` segments.  Returns ``(row_ref, segments)`` where
        *row_ref* is the ``(spt name, oracle name)`` pair for
        :func:`~repro.experiments.parallel.ilm_scenario_chunk` — or
        ``None`` when nothing published — and *segments* are the
        creator handles the caller must unlink after the fan-out.
        """
        from ..graph import shm

        if not shm.shm_enabled():
            return None, []
        segments: list = []
        spt_name = oracle_name = None
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        seg = shm.publish_rows(
            "spt", self.csr.n, self.weighted, self.csr.source_version,
            cache.export_rows(),
        )
        if seg is not None:
            segments.append(seg)
            spt_name = seg.name
        ocsr = self._oracle.csr()
        seg = shm.publish_rows(
            "oracle", ocsr.n, True, ocsr.source_version,
            self._oracle.export_rows(),
        )
        if seg is not None:
            segments.append(seg)
            oracle_name = seg.name
        if spt_name is None and oracle_name is None:
            return None, segments
        return (spt_name, oracle_name), segments

    def _probe_weight_map(self) -> dict[tuple[int, int], float]:
        """Directed ``(u idx, v idx) -> weight`` over the probe graph.

        The probe graph is whatever the base oracle's snapshot covers —
        the padded graph for the unique base set, the original for the
        all-shortest-paths one — so prefix sums land in the same cost
        space as the oracle's distances.
        """
        weights = self._probe_weights
        if weights is None:
            pcsr = self._oracle.csr()
            indptr, indices, warr = pcsr.indptr, pcsr.indices, pcsr.weights
            weights = {}
            for u in range(pcsr.n):
                for k in range(indptr[u], indptr[u + 1]):
                    weights[(u, indices[k])] = warr[k]
            self._probe_weights = weights
        return weights

    def _decompose_misses(self, misses: list[Chain]) -> None:
        """Memoize the min-pieces decomposition of every chain in *misses*.

        For implicit base sets with every edge admitted the whole
        batch goes through **one** kernel ``decompose_flat``
        call — an all-array :func:`min_pieces_decompose` that mirrors
        the DP cell-for-cell (same lexicographic objective, same
        first-minimal-``j`` tie-break, same probe arithmetic as
        :class:`~repro.core.decomp_kernel.PrefixSumProbe`), so the
        pieces are identical to the Path-based kernel's.  Every 1-hop
        piece is a base path there (``include_all_edges``), so a
        decomposition always exists and ``extra_edges`` stays 0.

        The DP reads the oracle row of ``chain[j]`` for every
        ``j <= len(chain) - 3`` (one-hop pieces always extend the DP,
        so every prefix is reachable): exactly the union of
        ``chain[:-2]`` rows is warmed and handed over as float64
        buffers, so the oracle counters do not depend on the backend
        or on how chains are batched.  Without ``include_all_edges`` a
        chain may have no decomposition at all; those base sets
        decompose one chain at a time through the Path-based kernel.
        """
        memo = self._decomp_memo
        if not getattr(self.base, "include_all_edges", False):
            for chain in misses:
                memo[chain] = self._decompose_path(chain)
            return
        hop_weight = self._probe_weight_map().__getitem__
        q = array("q")
        d = array("d")
        offsets = array("q", [0])
        needed: dict[int, None] = {}
        for chain in misses:
            # Left-to-right running sums from 0.0: the same float adds
            # as PrefixSumProbe.
            d.extend(
                accumulate(map(hop_weight, zip(chain, chain[1:])), initial=0.0)
            )
            q.extend(chain)
            offsets.append(len(q))
            needed.update(dict.fromkeys(chain[:-2]))
        nodes = self.csr.nodes
        oracle = self._oracle
        oracle.warm_many(nodes[c] for c in needed)
        rows = {c: oracle.dist_buffer(nodes[c]) for c in needed}
        _best, choice, probes = kernel_backend().decompose_flat(
            q, d, offsets, rows
        )
        COUNTERS.probe_calls += probes
        COUNTERS.o1_probes += probes
        for k, chain in enumerate(misses):
            lo = offsets[k]
            pieces: list[Chain] = []
            i = len(chain) - 1
            while i > 0:
                j = choice[lo + i]
                pieces.append(chain[j : i + 1])
                i = j
            pieces.reverse()
            memo[chain] = tuple(pieces)

    def _decompose_path(self, chain: Chain) -> Optional[tuple[Chain, ...]]:
        """Path-based decomposition (base sets without every edge)."""
        nodes, index = self.csr.nodes, self.csr.index
        backup = Path(nodes[i] for i in chain)
        try:
            decomposition = min_pieces_decompose(
                backup, self.base, allow_edges=True
            )
        except DecompositionError:
            return None
        return tuple(
            tuple(index[node] for node in piece.nodes)
            for piece in decomposition.pieces
        )

    def process_scenario(self, scenario: FailureScenario) -> int:
        """Account one failure scenario; returns affected-demand count.

        Three steps: walk every affected demand's backup off the
        repaired rows, decompose all of the scenario's memo misses in
        one batch (deduplicated in first-seen order, so each distinct
        chain runs the DP once, as a per-chain memo would), then tally
        the pieces.
        """
        grouped = self._affected_by(scenario)
        cache = shared_spt_cache(self.graph, weighted=self.weighted)
        # Multi-source batched repair: one scenario decode, every
        # touched source re-settled via its cached pre-failure row.
        rows = cache.repair_batch_idx(grouped, scenario)
        backup_naive = self._backup_naive
        primaries = self._primaries
        n = self.csr.n
        source_pos = self._source_pos
        memo = self._decomp_memo
        backups: list[Chain] = []
        misses: dict[Chain, None] = {}
        affected_total = 0
        for si, targets in grouped.items():
            row = rows.get(si)
            dist, pred = row if row is not None else (None, None)
            affected_total += len(targets)
            offset = source_pos[si] * n
            for ti in targets:
                primaries[offset + ti] = 1
                if dist is None or dist[ti] == INF:
                    self.demands_unrestorable += 1
                    continue
                chain = [ti]
                x = ti
                while x != si:
                    x = pred[x]
                    chain.append(x)
                chain.reverse()
                backup = tuple(chain)
                for x in backup:
                    backup_naive[x] += 1
                if backup not in memo:
                    misses[backup] = None
                backups.append(backup)
        if misses:
            self._decompose_misses(list(misses))
        pieces_used = self._pieces
        for backup in backups:
            pieces = memo[backup]
            if pieces is None:
                self.demands_unrestorable += 1
                continue
            self.demands_restored += 1
            pieces_used.update(pieces)
        self.scenarios_processed += 1
        self._final = None
        return affected_total

    def process_scenarios(
        self,
        scenarios: Iterable[FailureScenario],
        progress_chunk: Optional[tuple[int, int]] = None,
    ) -> None:
        """Account every scenario in the iterable.

        With a heartbeat channel configured (see
        :mod:`repro.obs.heartbeat`), emits ``scenario-progress`` ticks
        — roughly eight per chunk — so ``python -m repro.obs watch``
        can show intra-chunk progress on the long per-link fan-outs;
        *progress_chunk* labels the ticks with the caller's
        ``[start, end)`` scenario bounds.  Without a channel the loop
        is untouched (one boolean check up front).
        """
        if not heartbeat.enabled():
            for scenario in scenarios:
                self.process_scenario(scenario)
            return
        scenarios = list(scenarios)
        total = len(scenarios)
        chunk = (
            list(progress_chunk) if progress_chunk is not None
            else [0, total]
        )
        tick = max(1, total // 8)
        # Inside a fan-out chunk the ticks adopt its label so watch
        # attributes them to the right group; "ilm" covers sequential
        # callers.
        label = heartbeat.current_label() or "ilm"
        for done, scenario in enumerate(scenarios, start=1):
            self.process_scenario(scenario)
            if done % tick == 0 or done == total:
                heartbeat.emit(
                    "scenario-progress", label=label, chunk=chunk,
                    done=done, total=total,
                )

    # -- parallel fan-out -----------------------------------------------------

    def export_state(self) -> dict:
        """Mergeable accounting state (picklable; see :meth:`merge_state`).

        Pieces are exported sorted and touched primaries as the
        ``(source position, target idx)`` bitmap, so the payload bytes
        are deterministic for a given scenario chunk regardless of
        processing order.
        """
        return {
            "policy": "concatenation",
            "backup_naive": self._backup_naive.tobytes(),
            "primaries": bytes(self._primaries),
            "pieces": sorted(self._pieces),
            "scenarios": self.scenarios_processed,
            "restored": self.demands_restored,
            "unrestorable": self.demands_unrestorable,
        }

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`export_state` into this accountant.

        Counts add, primaries/pieces union; since the derived results
        are a pure function of that state, merging per-chunk exports in
        any order reproduces the sequential run byte-for-byte.
        """
        policy = state.get("policy", "concatenation")
        if policy != "concatenation":
            # The piece-sharing model below is the concatenation
            # scheme's; silently folding another policy's tallies would
            # corrupt the ILM columns.
            raise ValueError(
                f"cannot merge ILM state computed under policy {policy!r}"
            )
        incoming = array("l")
        incoming.frombytes(state["backup_naive"])
        backup_naive = self._backup_naive
        if len(incoming) != len(backup_naive):
            raise ValueError(
                f"cannot merge ILM state: backup_naive has {len(incoming)} "
                f"routers, this accountant's network has {len(backup_naive)}"
            )
        primaries = state["primaries"]
        if len(primaries) != len(self._primaries):
            raise ValueError(
                f"cannot merge ILM state: primaries bitmap has "
                f"{len(primaries)} entries, this accountant's demand "
                f"universe has {len(self._primaries)}"
            )
        for i, count in enumerate(incoming):
            if count:
                backup_naive[i] += count
        self._primaries = bytearray(
            (
                int.from_bytes(self._primaries, "little")
                | int.from_bytes(primaries, "little")
            ).to_bytes(len(primaries), "little")
        )
        self._pieces.update(tuple(chain) for chain in state["pieces"])
        self.scenarios_processed += state["scenarios"]
        self.demands_restored += state["restored"]
        self.demands_unrestorable += state["unrestorable"]
        self._final = None

    # -- results --------------------------------------------------------------

    def _finalize(self) -> tuple[list[int], list[int], int]:
        """``(base counts, naive counts, base LSP count)`` per node index.

        Primaries enter both sides here rather than in the scenario
        loop: each touched primary is counted once globally (never per
        scenario), which is also what makes worker exports mergeable.
        """
        final = self._final
        if final is not None:
            return final
        naive = list(self._backup_naive)
        base_paths: set[Chain] = set(self._pieces)
        n = self.csr.n
        primaries = self._primaries
        targets = range(n)
        for p, si in enumerate(self._source_idx):
            touched = primaries[p * n : (p + 1) * n]
            if 1 not in touched:
                continue
            pred = self._pred_row(si)
            # Each chain extends its predecessor's: one pred walk per
            # node, however many touched targets lie below it.
            built: dict[int, Chain] = {si: (si,)}
            for ti in compress(targets, touched):
                stack = []
                x = ti
                while x not in built:
                    if x < 0:
                        raise ValueError(
                            f"touched primary {si}->{ti} is not in the "
                            "demand universe"
                        )
                    stack.append(x)
                    x = pred[x]
                prefix = built[x]
                for x in reversed(stack):
                    prefix = built[x] = prefix + (x,)
                for x in prefix:
                    naive[x] += 1
                base_paths.add(prefix)
        base_counter = [0] * self.csr.n
        for chain in base_paths:
            for x in chain:
                base_counter[x] += 1
        self._final = (base_counter, naive, len(base_paths))
        return self._final

    def stretch_factors(self) -> tuple[float, float]:
        """``(min %, avg %)`` over routers the naive scheme touches."""
        base_counter, naive, _ = self._finalize()
        ratios = [
            100.0 * base_counter[i] / count
            for i, count in enumerate(naive)
            if count > 0
        ]
        if not ratios:
            return float("nan"), float("nan")
        return min(ratios), sum(ratios) / len(ratios)

    def table_sizes(self) -> tuple[int, int]:
        """Total ILM entries: ``(RBPC base set, naive pre-provisioning)``."""
        base_counter, naive, _ = self._finalize()
        return sum(base_counter), sum(naive)

    def base_lsp_count(self) -> int:
        """Distinct base LSPs the restorations used."""
        return self._finalize()[2]


def scenarios_from_cases(cases) -> list[FailureScenario]:
    """Deduplicated scenarios from a stream of sampler FailureCases."""
    seen: set[FailureScenario] = set()
    ordered: list[FailureScenario] = []
    for case in cases:
        if case.scenario not in seen:
            seen.add(case.scenario)
            ordered.append(case.scenario)
    return ordered
