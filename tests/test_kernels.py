"""Kernel backend equivalence: the native backend vs. the reference.

The backend contract (:mod:`repro.kernels`) is that every backend is a
drop-in for the pure-Python reference — same rows, same repaired SPTs,
same decomposition columns, same perf counters, bit for bit.  This
suite pins that contract over a representative of every topology
family the repo generates (the same 13-family sweep as
``tests/test_shm.py``), for clean views and for views with dead edges
and dead nodes, for the ``native`` backend (the compiled C kernels).
It has no size gates, so its public entry points are exercised at
every input size.  The batched decomposition DP is differentially
tested against the reference on hand-built batches as well (short
chains, ``INF`` rows, the ``EPSILON`` boundary, duplicates, and every
row container).

Tie-heavy graphs matter most here: on unit-weight topologies (grid,
cycle, comb) nearly every node has several tight parents, so any
deviation from the canonical ``(dist[parent], parent index)`` rule
shows up immediately.  Native cases are skipped when no C toolchain
is available; the selection tests below run regardless.
"""

from __future__ import annotations

import math
import random
from array import array

import pytest

from repro.graph.csr import as_view, shared_csr
from repro.graph.incremental import subtree_spans
from repro.kernels import (
    KERNEL_CHOICES,
    available_backends,
    backend_name,
    set_backend,
)
from repro.kernels import python_backend as pyk
from repro.perf import COUNTERS
from repro.topology import (
    complete_graph,
    cycle_graph,
    four_cycle,
    generate_as_graph,
    generate_internet_graph,
    generate_isp_topology,
    grid_graph,
    path_graph,
)
from repro.topology.classic import (
    comb_graph,
    two_level_star,
    weighted_comb_graph,
)
from repro.topology.powerlaw import preferential_attachment

try:  # importing builds the cached .so; no toolchain must skip
    from repro.kernels import native_backend as natk

    native_missing = False
except ImportError:
    natk = None
    native_missing = True

requires_native = pytest.mark.skipif(
    native_missing, reason="no C toolchain for the native backend"
)

#: The accelerated backends every bit-identity case runs against.
ACCEL_PARAMS = pytest.mark.parametrize("accel", ["native"])


def _accel_module(accel):
    """The backend module for *accel*, skipping when unavailable."""
    if native_missing:
        pytest.skip("no C toolchain for the native backend")
    return natk

#: Same representatives as the shared-memory sweep in tests/test_shm.py.
TOPOLOGY_FAMILIES = [
    ("path", lambda: path_graph(7)),
    ("cycle", lambda: cycle_graph(6)),
    ("four-cycle", lambda: four_cycle()),
    ("complete", lambda: complete_graph(5)),
    ("grid", lambda: grid_graph(3, 4)),
    ("comb", lambda: comb_graph(4)[0]),
    ("weighted-comb", lambda: weighted_comb_graph(4)[0]),
    ("two-level-star", lambda: two_level_star(7)[0]),
    ("isp-weighted", lambda: generate_isp_topology(n=40, seed=3)),
    ("isp-unweighted", lambda: generate_isp_topology(n=40, seed=3, weighted=False)),
    ("powerlaw", lambda: preferential_attachment(50, 2.0, seed=5)),
    ("as-graph", lambda: generate_as_graph(n=60, seed=2)),
    ("internet", lambda: generate_internet_graph(n=60, seed=2)),
]

FAMILY_PARAMS = pytest.mark.parametrize(
    "family", [f for _, f in TOPOLOGY_FAMILIES],
    ids=[name for name, _ in TOPOLOGY_FAMILIES],
)


def _view_variants(graph):
    """Clean view plus dead-edge and dead-node views of *graph*."""
    csr = shared_csr(graph)
    base = as_view(csr)
    yield "clean", base
    edges = sorted(graph.edges(), key=repr)  # labels mix str and int
    if edges:
        yield "dead-edges", base.without(edges=edges[: 1 + len(edges) // 6])
    if csr.n > 2:
        victims = csr.nodes[csr.n // 2 : csr.n // 2 + 1 + csr.n // 8]
        yield "dead-nodes", base.without(nodes=victims)


def _alive_sources(view):
    node_dead = view.masks()[1]
    return [i for i in range(view.csr.n) if not node_dead[i]]


def _reference_rows(view, sources, unit):
    """Per-source rows from the reference backend, with a counter delta."""
    before = COUNTERS.snapshot()
    rows = {}
    for s in sources:
        if unit:
            rows[s] = pyk.bfs(view, s)
        else:
            dist, pred, _ = pyk.dijkstra_canonical(view, s)
            rows[s] = (dist, pred)
    return rows, COUNTERS.delta(before)


class TestRowsBitIdentity:
    """Batched accelerated rows == per-source reference rows, exactly."""

    def _assert_family(self, family, mod):
        graph = family()
        for label, view in _view_variants(graph):
            sources = _alive_sources(view)
            for unit in (False, True):
                expected, ref_delta = _reference_rows(view, sources, unit)
                before = COUNTERS.snapshot()
                got = mod.rows_many(view, sources, unit)
                acc_delta = COUNTERS.delta(before)
                assert got is not None, (label, unit)
                assert got == expected, (label, unit)
                assert acc_delta == ref_delta, (label, unit)

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_rows_match(self, family, accel):
        self._assert_family(family, _accel_module(accel))

    @ACCEL_PARAMS
    def test_single_row_entry_points_match(self, accel):
        """dijkstra_canonical/bfs match the reference on a 500-node graph."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=500, seed=9)
        view = as_view(shared_csr(graph))
        dist, pred, exhausted = mod.dijkstra_canonical(view, 0)
        rd, rp, _ = pyk.dijkstra_canonical(view, 0)
        assert exhausted and (dist, pred) == (rd, rp)
        unit_view = as_view(
            shared_csr(generate_isp_topology(n=500, seed=9, weighted=False))
        )
        assert mod.bfs(unit_view, 3) == pyk.bfs(unit_view, 3)

    @ACCEL_PARAMS
    def test_targeted_queries_keep_the_reference_truncation(self, accel):
        """Early-exit probes must not be silently widened to full rows."""
        mod = _accel_module(accel)
        graph = generate_isp_topology(n=500, seed=9)
        view = as_view(shared_csr(graph))
        before = COUNTERS.snapshot()
        dist, pred, exhausted = mod.dijkstra_canonical(view, 0, targets=[1])
        delta = COUNTERS.delta(before)
        before = COUNTERS.snapshot()
        rd, rp, re_ = pyk.dijkstra_canonical(view, 0, targets=[1])
        ref_delta = COUNTERS.delta(before)
        assert (dist, pred, exhausted) == (rd, rp, re_)
        assert delta == ref_delta
        assert delta.csr_settled < view.csr.n  # truncated, not exhaustive


class TestRepairBitIdentity:
    """Accelerated SPT re-settle == the boundary-offer reference loop."""

    def _repair_cases(self, graph, unit):
        """Yield (view, source, dist, pred, order, spans) repair instances."""
        csr = shared_csr(graph)
        base = as_view(csr)
        nodes = csr.nodes
        rng = random.Random(11)
        for source in (0, csr.n // 2):
            if unit:
                dist, pred = pyk.bfs(base, source)
            else:
                dist, pred, _ = pyk.dijkstra_canonical(base, source)
            tree_nodes = [v for v in range(csr.n) if pred[v] >= 0]
            if not tree_nodes:
                continue
            order, pos, size = pyk.preorder(pred, source)
            for k in (1, 3):
                picks = rng.sample(tree_nodes, min(k, len(tree_nodes)))
                failed = [(nodes[pred[v]], nodes[v]) for v in picks]
                view = base.without(edges=failed)
                spans, _ = subtree_spans(pos, size, picks)
                yield view, source, dist, pred, order, spans

    def _assert_repairs(self, graph, unit, entry):
        for view, source, dist, pred, order, spans in self._repair_cases(
            graph, unit
        ):
            before = COUNTERS.snapshot()
            ref = pyk.repair_resettle(
                view, source, list(dist), list(pred), order, spans, unit
            )
            ref_delta = COUNTERS.delta(before)
            before = COUNTERS.snapshot()
            acc = entry(
                view, source, array("d", dist), array("q", pred), order,
                spans, unit,
            )
            acc_delta = COUNTERS.delta(before)
            assert acc == ref
            assert acc_delta == ref_delta

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_repaired_rows_match(self, family, accel):
        graph = family()
        entry = _accel_module(accel).repair_resettle
        self._assert_repairs(graph, unit=False, entry=entry)
        self._assert_repairs(graph, unit=True, entry=entry)


def _flat_batch(chains):
    """``(q, d, offsets)`` for a batch of ``(chain, cum)`` pairs."""
    q, d, offsets = [], [], [0]
    for chain, cum in chains:
        q.extend(chain)
        d.extend(cum)
        offsets.append(len(q))
    return q, d, offsets


def _as_lists(result):
    best, choice, probes = result
    return list(best), list(choice), probes


class TestDecomposeBitIdentity:
    """Accelerated decomposition DP == the forward reference DP, exactly."""

    def _chains(self, graph, rng):
        """Random simple walks through *graph*, as index chains + costs."""
        csr = shared_csr(graph)
        view = as_view(csr)
        indptr, indices, weights = csr.indptr, csr.indices, csr.weights
        for _ in range(6):
            chain = [rng.randrange(csr.n)]
            cum = [0.0]
            seen = {chain[0]}
            while len(chain) < 40:
                u = chain[-1]
                nbrs = [
                    (indices[s], weights[s])
                    for s in range(indptr[u], indptr[u + 1])
                    if indices[s] not in seen
                ]
                if not nbrs:
                    break
                v, w = rng.choice(nbrs)
                chain.append(v)
                cum.append(cum[-1] + w)
                seen.add(v)
            if len(chain) >= 3:
                yield view, tuple(chain), cum

    @ACCEL_PARAMS
    @FAMILY_PARAMS
    def test_decomposition_columns_match(self, family, accel):
        graph = family()
        entry = _accel_module(accel).decompose_flat
        rng = random.Random(23)
        batch = [(chain, cum) for _view, chain, cum in self._chains(graph, rng)]
        view = as_view(shared_csr(graph))
        # Pre-computed rows: the kernels must not touch the csr
        # counters, so the deltas below compare only the DP itself.
        rows = {
            v: pyk.dijkstra_canonical(view, v)[0]
            for chain, _cum in batch for v in chain
        }
        q, d, offsets = _flat_batch(batch)
        before = COUNTERS.snapshot()
        ref = pyk.decompose_flat(q, d, offsets, rows)
        ref_delta = COUNTERS.delta(before)
        before = COUNTERS.snapshot()
        acc = entry(q, d, offsets, rows)
        acc_delta = COUNTERS.delta(before)
        assert _as_lists(acc) == _as_lists(ref)
        assert acc_delta == ref_delta


def _boundary_cost(span):
    """The largest row distance ``costs_equal`` still matches to *span*."""
    from repro.graph.shortest_paths import EPSILON, costs_equal

    d = span + EPSILON * span
    while not costs_equal(span, d):
        d = math.nextafter(d, -math.inf)
    while costs_equal(span, math.nextafter(d, math.inf)):
        d = math.nextafter(d, math.inf)
    return d


@requires_native
class TestDecomposeBatchDifferential:
    """Native vs reference ``decompose_flat`` on hand-built batches.

    Outputs and probe counts must match for every row container the
    production path can hand over: lists, ``array('d')`` copies, and
    read-only views of an attached shared-memory row table.
    """

    N = 6  # row width: node indices 0..5

    def _rows(self, entries):
        """Six-wide rows of *entries* (``{(j, i): dist}``), 100.0 elsewhere."""
        rows = {v: [100.0] * self.N for v in range(self.N)}
        for (j, i), dist in entries.items():
            rows[j][i] = dist
        return rows

    def _assert_same(self, batch, rows):
        q, d, offsets = _flat_batch(batch)
        ref = _as_lists(pyk.decompose_flat(q, d, offsets, rows))
        for flavor in (rows, {v: array("d", r) for v, r in rows.items()}):
            assert _as_lists(natk.decompose_flat(q, d, offsets, flavor)) == ref
        return ref

    def test_short_chains(self):
        batch = [
            ((4,), [0.0]),
            ((1, 2), [0.0, 1.0]),
            ((0, 1, 2), [0.0, 1.0, 2.0]),
        ]
        best, choice, probes = self._assert_same(
            batch, self._rows({(0, 2): 2.0})
        )
        # (4,): no pieces; (1, 2): one hop; (0, 1, 2): one base path.
        assert best == [0, 0, 1, 0, 1, 1]
        assert choice == [0, 0, 0, 0, 0, 0]
        assert probes == 0 + 1 + 3

    def test_inf_row_entries_are_never_base_paths(self):
        inf = float("inf")
        batch = [((0, 1, 2, 3), [0.0, 1.0, 2.0, 3.0])]
        rows = self._rows({(0, 2): inf, (0, 3): inf, (1, 3): 2.0})
        best, choice, _ = self._assert_same(batch, rows)
        assert best[-1] == 2 and choice[-1] == 1

    def test_costs_at_and_beyond_the_epsilon_tolerance(self):
        span = 7.3
        at = _boundary_cost(span)
        beyond = math.nextafter(at, math.inf)
        chain = (0, 1, 2)
        cum = [0.0, 3.1, span]
        ref_at = self._assert_same([(chain, cum)], self._rows({(0, 2): at}))
        ref_beyond = self._assert_same(
            [(chain, cum)], self._rows({(0, 2): beyond})
        )
        assert ref_at[0][-1] == 1  # still a single base path
        assert ref_beyond[0][-1] == 2  # one ulp further: two pieces

    def test_duplicated_chains_in_one_batch(self):
        chain = (0, 1, 2, 3, 4)
        cum = [0.0, 1.0, 2.0, 3.0, 4.0]
        rows = self._rows({(0, 2): 2.0, (2, 4): 2.0})
        single = self._assert_same([(chain, cum)], rows)
        double = self._assert_same([(chain, cum), (chain, cum)], rows)
        assert double[0] == single[0] * 2
        assert double[1] == single[1] * 2
        assert double[2] == 2 * single[2]

    def test_attached_shared_memory_rows_are_read_in_place(self):
        from repro.graph.shm import attach_rows, publish_rows

        rows = self._rows({(0, 2): 2.0, (1, 3): 2.0, (0, 3): 3.0})
        seg = publish_rows(
            "oracle", self.N, True, None,
            {v: (row, [0] * self.N) for v, row in rows.items()},
        )
        if seg is None:
            pytest.skip("shared memory unavailable on this platform")
        batch = [
            ((0, 1, 2, 3), [0.0, 1.0, 2.0, 3.0]),
            ((1, 2, 3, 4), [0.0, 1.0, 2.0, 3.0]),
        ]
        q, d, offsets = _flat_batch(batch)
        with seg:
            table, handle = attach_rows(seg.name)
            try:
                views = {v: table.row(v)[0] for v in table.sources}
                assert all(view.readonly for view in views.values())
                ref = _as_lists(pyk.decompose_flat(q, d, offsets, rows))
                got = _as_lists(natk.decompose_flat(q, d, offsets, views))
                assert got == ref
                # No buffer export outlives the call: every view can
                # still be released, so the segment can detach.
                for view in views.values():
                    view.release()
            finally:
                handle.close()

    def test_native_rejects_out_of_range_input(self):
        rows = self._rows({})
        # A node beyond the rows' width would read past a row's end.
        with pytest.raises(IndexError):
            natk.decompose_flat([0, 1, self.N], [0.0, 1.0, 2.0], [0, 3], rows)
        # Offsets must cut q into in-bounds, non-decreasing ranges.
        with pytest.raises(ValueError):
            natk.decompose_flat([0, 1, 2], [0.0, 1.0, 2.0], [0, 4], rows)
        with pytest.raises(ValueError):
            natk.decompose_flat([0, 1, 2], [0.0, 1.0], [0, 3], rows)

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_missing_row_raises_key_error(self, backend):
        entry = (pyk if backend == "python" else natk).decompose_flat
        rows = self._rows({})
        del rows[1]
        with pytest.raises(KeyError):
            entry([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [0, 4], rows)


class TestSelection:
    """Backend selection: env var, --kernel, and the auto fallback."""

    @pytest.fixture(autouse=True)
    def _restore_backend(self):
        previous = backend_name()
        yield
        set_backend(previous)

    def test_choices_cover_all_backends(self):
        assert set(KERNEL_CHOICES) == {"auto", "python", "native"}
        assert available_backends()[0] == "python"

    def test_set_backend_round_trips_and_exports(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        set_backend("python")
        assert backend_name() == "python"
        # The resolved name is exported so forked/spawned workers make
        # the same deterministic choice instead of re-running "auto".
        assert os.environ.get("REPRO_KERNEL") == "python"

    @requires_native
    def test_auto_prefers_native_when_buildable(self):
        set_backend("auto")
        assert backend_name() == "native"

    @requires_native
    def test_explicit_native_resolves(self):
        set_backend("native")
        assert backend_name() == "native"

    def test_unknown_backend_is_rejected(self):
        for name in ("fortran", "numpy"):
            with pytest.raises(ValueError, match="unknown kernel backend"):
                set_backend(name)

    def test_reference_backend_has_the_full_interface(self):
        for attr in (
            "NAME", "dijkstra_canonical", "bfs", "rows_many",
            "preorder", "repair_resettle", "decompose_flat",
        ):
            assert hasattr(pyk, attr)
