"""Shared-memory CSR publication: format, lifecycle, and fan-out identity.

Four contracts pinned here:

* **Format round-trip** — a published segment attaches back to a
  ``CsrGraph`` whose buffers are byte-identical to the in-process
  snapshot, with zero payload copies (the attached arrays are
  memoryview casts over the shared pages).
* **Validation** — segments with a wrong magic, a future format
  version, or a foreign tie-order contract are refused with
  :class:`ShmFormatError`, never reinterpreted.
* **Lifecycle / leak-freedom** — after normal teardown, after an
  exception inside the publication scope *and* after a ``--jobs``
  worker is killed mid-chunk, ``residual_segments()`` is empty;
  attach-side handles can never unlink a creator's segment.
* **Fan-out identity** — per-link ILM accounting produces byte-identical
  results at ``--jobs 1`` and ``--jobs 4``, with shared memory enabled
  and with ``REPRO_SHM=0`` (the rebuild fallback).
"""

from __future__ import annotations

import os
import random
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.cache import shared_unique_base
from repro.experiments import table2
from repro.experiments.ilm_accounting import IlmAccountant
from repro.experiments.networks import cached_suite
from repro.experiments.parallel import chunk_bounds, make_executor, publish_suite
from repro.failures.sampler import sample_pairs
from repro.graph import shm
from repro.graph.csr import CsrGraph, shared_csr
from repro.graph.shm import (
    ShmFormatError,
    attach_csr,
    attach_csr_cached,
    attach_rows,
    detach_all,
    publish_csr,
    publish_rows,
    residual_segments,
    segment_exists,
)
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


def publish_or_skip(csr: CsrGraph):
    seg = publish_csr(csr)
    if seg is None:
        pytest.skip("shared memory unavailable on this platform")
    return seg


class TestFormatRoundTrip:
    def test_attach_reproduces_buffers_exactly(self):
        csr = shared_csr(grid_graph(3, 4))
        with publish_or_skip(csr) as seg:
            attached, handle = attach_csr(seg.name)
            try:
                assert attached.nodes == csr.nodes
                assert attached.n == csr.n
                assert attached.directed == csr.directed
                assert attached.source_version == csr.source_version
                assert bytes(attached.indptr) == bytes(csr.indptr)
                assert bytes(attached.indices) == bytes(csr.indices)
                assert bytes(attached.weights) == bytes(csr.weights)
            finally:
                handle.close()

    def test_attach_is_zero_copy(self):
        """The numeric sections come back as casts over the shared pages."""
        csr = shared_csr(cycle_graph(5))
        with publish_or_skip(csr) as seg:
            attached, handle = attach_csr(seg.name)
            try:
                for buf in (attached.indptr, attached.indices, attached.weights):
                    assert isinstance(buf, memoryview)
                    assert buf.readonly is False  # cast of the live mapping
                # The graph pins its segment so the mapping outlives
                # local references to the handle.
                assert attached.keepalive is handle
            finally:
                handle.close()

    def test_empty_graph_round_trips(self):
        from repro.graph.graph import Graph

        csr = CsrGraph(Graph())
        with publish_or_skip(csr) as seg:
            attached, handle = attach_csr(seg.name)
            try:
                assert attached.n == 0
                assert attached.nodes == []
                assert len(attached.indices) == 0
            finally:
                handle.close()


class TestValidation:
    def _corrupt(self, seg, offset: int, payload: bytes) -> None:
        view = shm._attach_untracked(seg.name)
        try:
            view.buf[offset : offset + len(payload)] = payload
        finally:
            view.close()

    def test_version_mismatch_is_refused(self):
        csr = shared_csr(path_graph(4))
        with publish_or_skip(csr) as seg:
            # Preamble layout: magic[0:4], version u32 [4:8].
            self._corrupt(seg, 4, (999).to_bytes(4, "little"))
            with pytest.raises(ShmFormatError, match="format v999"):
                attach_csr(seg.name)

    def test_bad_magic_is_refused(self):
        csr = shared_csr(path_graph(4))
        with publish_or_skip(csr) as seg:
            self._corrupt(seg, 0, b"NOPE")
            with pytest.raises(ShmFormatError, match="magic"):
                attach_csr(seg.name)

    def test_foreign_tie_order_is_refused(self, monkeypatch):
        csr = shared_csr(path_graph(4))
        with publish_or_skip(csr) as seg:
            monkeypatch.setattr(shm, "SHM_TIE_ORDER", "hops")
            with pytest.raises(ShmFormatError, match="tie order"):
                attach_csr(seg.name)

    def test_failed_attach_leaves_no_local_handle(self):
        csr = shared_csr(path_graph(4))
        with publish_or_skip(csr) as seg:
            self._corrupt(seg, 0, b"NOPE")
            with pytest.raises(ShmFormatError):
                attach_csr(seg.name)
            # The refused attach closed its own mapping; the creator's
            # segment itself is untouched and still published.
            assert segment_exists(seg.name)


def _sigkill_self(*_args):
    """Stand-in ILM chunk worker that dies the way an OOM kill does."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestLifecycle:
    def test_normal_teardown_leaves_no_residue(self):
        csr = shared_csr(four_cycle())
        seg = publish_or_skip(csr)
        name = seg.name
        assert segment_exists(name)
        seg.close()
        seg.unlink()
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_exceptional_teardown_leaves_no_residue(self):
        csr = shared_csr(four_cycle())
        name = None
        with pytest.raises(RuntimeError, match="boom"):
            with publish_or_skip(csr) as seg:
                name = seg.name
                raise RuntimeError("boom")
        assert name is not None
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_attacher_cannot_unlink(self):
        csr = shared_csr(four_cycle())
        with publish_or_skip(csr) as seg:
            _attached, handle = attach_csr(seg.name)
            handle.unlink()  # no-op: not the creator
            assert segment_exists(seg.name)
            handle.close()
        assert not segment_exists(seg.name)

    def test_close_and_unlink_are_idempotent(self):
        csr = shared_csr(four_cycle())
        seg = publish_or_skip(csr)
        for _ in range(2):
            seg.close()
            seg.unlink()
        assert residual_segments() == []

    def test_attach_cache_is_per_name_and_detachable(self):
        csr = shared_csr(grid_graph(2, 3))
        with publish_or_skip(csr) as seg:
            first = attach_csr_cached(seg.name)
            second = attach_csr_cached(seg.name)
            assert first is second
            detach_all()
            third = attach_csr_cached(seg.name)
            assert third is not first
            detach_all()

    def test_killed_worker_leaks_no_segment(self, monkeypatch):
        """A worker SIGKILLed mid-chunk breaks the pool; the parent's
        teardown still unlinks every segment it published."""
        monkeypatch.setattr(table2, "ilm_scenario_chunk", _sigkill_self)
        with pytest.raises(BrokenProcessPool):
            table2.run(
                scale="tiny", modes=("link",), ilm_accounting="per-link",
                jobs=2,
            )
        assert residual_segments() == []

    def test_disabled_publication_falls_back(self, monkeypatch):
        from repro.perf import COUNTERS

        monkeypatch.setenv("REPRO_SHM", "0")
        before = COUNTERS.shm_fallbacks
        assert publish_csr(shared_csr(path_graph(3))) is None
        assert COUNTERS.shm_fallbacks == before + 1

    def test_oversize_payload_falls_back(self, monkeypatch):
        from repro.perf import COUNTERS

        monkeypatch.setenv("REPRO_SHM_MAX_BYTES", "16")
        before = COUNTERS.shm_fallbacks
        assert publish_csr(shared_csr(complete_graph(6))) is None
        assert COUNTERS.shm_fallbacks == before + 1
        assert residual_segments() == []


#: One small instance per topology family the generators can produce.
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


class TestEveryTopologyFamily:
    """Property: publish/attach is the identity on CSR buffers, for a
    representative of every topology family the repo generates."""

    @pytest.mark.parametrize(
        "family", [f for _, f in TOPOLOGY_FAMILIES],
        ids=[name for name, _ in TOPOLOGY_FAMILIES],
    )
    def test_round_trip_preserves_family_csr(self, family):
        csr = shared_csr(family())
        with publish_or_skip(csr) as seg:
            attached, handle = attach_csr(seg.name)
            try:
                assert attached.nodes == csr.nodes
                assert bytes(attached.indptr) == bytes(csr.indptr)
                assert bytes(attached.indices) == bytes(csr.indices)
                assert bytes(attached.weights) == bytes(csr.weights)
            finally:
                handle.close()
        assert residual_segments() == []


def _ilm_reference(network, pairs, scenarios):
    """Sequential per-link accounting for one network/mode."""
    base = shared_unique_base(network.graph)
    accountant = IlmAccountant(
        network.graph,
        base,
        demand_sources=table2.ilm_demand_sources(network.graph, pairs),
        weighted=network.weighted,
    )
    accountant.process_scenarios(scenarios)
    return accountant


def _ilm_summary(accountant):
    return (
        accountant.stretch_factors(),
        accountant.table_sizes(),
        accountant.base_lsp_count(),
        accountant.demands_restored,
        accountant.demands_unrestorable,
    )


class TestIlmChunkMergeIdentity:
    """The order-free accountant merge: chunked == sequential, exactly."""

    def test_shuffled_chunk_merge_matches_sequential(self):
        network = cached_suite(scale="tiny", seed=1)[0]
        base = shared_unique_base(network.graph)
        pairs = sample_pairs(network.graph, network.sample_pairs, seed=1)
        scenarios = table2.ilm_scenarios(base, pairs, "link", 200)
        assert len(scenarios) > 4

        sequential = _ilm_reference(network, pairs, scenarios)

        states = []
        for start, end in chunk_bounds(len(scenarios), 4):
            chunk = IlmAccountant(
                network.graph,
                base,
                demand_sources=table2.ilm_demand_sources(network.graph, pairs),
                weighted=network.weighted,
            )
            chunk.process_scenarios(scenarios[start:end])
            states.append(chunk.export_state())
        random.Random(7).shuffle(states)  # merge must be order-free

        merged = IlmAccountant(
            network.graph,
            base,
            demand_sources=table2.ilm_demand_sources(network.graph, pairs),
            weighted=network.weighted,
        )
        for state in states:
            merged.merge_state(state)

        assert _ilm_summary(merged) == _ilm_summary(sequential)


class TestIlmJobsIdentity:
    """End-to-end: per-link rows identical at jobs=1 and jobs=4, with
    the shared-memory fast path and with REPRO_SHM=0 (rebuild fallback)."""

    def _rows(self, jobs: int) -> dict:
        network = cached_suite(scale="tiny", seed=1)[0]
        executor = make_executor(jobs) if jobs > 1 else None
        publication = None
        try:
            if executor is not None:
                publication = publish_suite([network], with_base=True)
            return table2.evaluate_network(
                network,
                modes=("link",),
                seed=1,
                with_multiplicity=False,
                ilm_accounting="per-link",
                jobs=jobs,
                suite_ref=("tiny", 1, 0),
                executor=executor,
                shm_ref=publication.ref(0) if publication else None,
            )
        finally:
            if executor is not None:
                executor.shutdown()
            if publication is not None:
                publication.release()

    def test_jobs4_matches_jobs1_with_shm(self):
        from repro.perf import COUNTERS

        sequential = self._rows(jobs=1)
        before_chunks = COUNTERS.ilm_scenario_chunks
        parallel = self._rows(jobs=4)
        assert parallel == sequential
        assert COUNTERS.ilm_scenario_chunks > before_chunks
        assert residual_segments() == []

    def test_jobs4_matches_jobs1_without_shm(self, monkeypatch):
        sequential = self._rows(jobs=1)
        monkeypatch.setenv("REPRO_SHM", "0")
        parallel = self._rows(jobs=4)
        assert parallel == sequential
        assert residual_segments() == []


# -- warm-row (RROW) segments -------------------------------------------------


def _warm_spt_cache(graph, sources=(0, 1, 2), weighted=True):
    """A fresh (non-shared) SptCache with rows built for *sources*."""
    from repro.graph.incremental import SptCache

    cache = SptCache(graph, weighted=weighted)
    cache.ensure_rows(sources)
    return cache


def publish_rows_or_skip(kind, n, weighted, version, rows):
    seg = publish_rows(kind, n, weighted, version, rows)
    if seg is None:
        pytest.skip("shared memory unavailable on this platform")
    return seg


class TestRowSegmentRoundTrip:
    def test_attach_reproduces_rows_exactly(self):
        graph = grid_graph(3, 4)
        cache = _warm_spt_cache(graph, sources=(0, 3, 7))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                assert table.kind == "spt"
                assert table.n == csr.n
                assert table.weighted is True
                assert table.source_version == csr.source_version
                assert table.sources == (0, 3, 7)
                for i in table.sources:
                    dist, pred = cache.export_rows()[i]
                    got_dist, got_pred = table.row(i)
                    assert list(got_dist) == list(dist)
                    assert list(got_pred) == list(pred)
            finally:
                handle.close()

    def test_attached_rows_are_read_only_views(self):
        graph = grid_graph(2, 3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                dist, pred = table.row(0)
                assert isinstance(dist, memoryview) and dist.readonly
                assert isinstance(pred, memoryview) and pred.readonly
                with pytest.raises(TypeError):
                    dist[0] = 0.0
                with pytest.raises(TypeError):
                    pred[0] = 0
            finally:
                handle.close()

    def test_publication_counters_move(self):
        from repro.perf import COUNTERS

        graph = path_graph(5)
        cache = _warm_spt_cache(graph, sources=(0, 1))
        csr = cache.csr
        before = COUNTERS.snapshot()
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            handle.close()
        delta = COUNTERS.delta(before)
        assert delta.shm_row_segments == 1
        assert delta.shm_row_attach == 1
        assert delta.warm_rows_published == 2


class TestRowSegmentValidation:
    def _corrupt(self, seg, offset: int, payload: bytes) -> None:
        view = shm._attach_untracked(seg.name)
        try:
            view.buf[offset : offset + len(payload)] = payload
        finally:
            view.close()

    def _published(self):
        graph = path_graph(4)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        return publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        )

    def test_format_version_mismatch_is_refused(self):
        with self._published() as seg:
            self._corrupt(seg, 4, (999).to_bytes(4, "little"))
            with pytest.raises(ShmFormatError, match="format v999"):
                attach_rows(seg.name)

    def test_bad_magic_is_refused(self):
        with self._published() as seg:
            self._corrupt(seg, 0, b"NOPE")
            with pytest.raises(ShmFormatError, match="magic"):
                attach_rows(seg.name)

    def test_csr_segment_is_not_a_row_segment(self):
        csr = shared_csr(path_graph(4))
        with publish_or_skip(csr) as seg:
            with pytest.raises(ShmFormatError, match="magic"):
                attach_rows(seg.name)

    def test_foreign_tie_order_is_refused(self, monkeypatch):
        with self._published() as seg:
            monkeypatch.setattr(shm, "SHM_TIE_ORDER", "hops")
            with pytest.raises(ShmFormatError, match="tie order"):
                attach_rows(seg.name)

    def test_attach_after_unlink_raises(self):
        seg = self._published()
        name = seg.name
        seg.unlink()
        assert not segment_exists(name)
        with pytest.raises(Exception):
            attach_rows(name)
        assert residual_segments() == []

    def test_adopt_refuses_wrong_kind(self):
        graph = path_graph(4)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "oracle", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                fresh = _warm_spt_cache(graph, sources=())
                with pytest.raises(ValueError, match="cannot adopt"):
                    fresh.adopt_rows(table)
            finally:
                handle.close()

    def test_adopt_refuses_wrong_shape_and_flavor(self):
        graph = path_graph(4)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                from repro.graph.incremental import SptCache

                other = SptCache(path_graph(6), weighted=True)
                with pytest.raises(ValueError, match="n="):
                    other.adopt_rows(table)
                unweighted = SptCache(path_graph(4), weighted=False)
                with pytest.raises(ValueError, match="weighted"):
                    unweighted.adopt_rows(table)
            finally:
                handle.close()


class TestRowSegmentLifecycle:
    def test_unlink_leaves_no_residue(self):
        graph = four_cycle()
        cache = _warm_spt_cache(graph, sources=(0, 1))
        csr = cache.csr
        seg = publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        )
        name = seg.name
        assert segment_exists(name)
        seg.unlink()
        assert not segment_exists(name)
        assert residual_segments() == []

    def test_attach_cache_survives_creator_unlink(self):
        """POSIX keeps the mapping alive: a memoized attach outlives the
        creator's unlink (the fan-out unlinks right after the last
        future resolves while workers may still hold their views)."""
        from repro.graph.shm import attach_rows_cached

        graph = path_graph(5)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        seg = publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        )
        expected = [list(b) for b in cache.export_rows()[0]]
        table = attach_rows_cached(seg.name)
        seg.unlink()
        dist, pred = table.row(0)
        assert [list(dist), list(pred)] == expected
        detach_all()
        assert residual_segments() == []

    def test_disabled_publication_falls_back(self, monkeypatch):
        from repro.perf import COUNTERS

        graph = path_graph(3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        monkeypatch.setenv("REPRO_SHM", "0")
        before = COUNTERS.shm_fallbacks
        assert publish_rows(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) is None
        assert COUNTERS.shm_fallbacks == before + 1

    def test_empty_rows_do_not_publish_or_fall_back(self):
        from repro.perf import COUNTERS

        before = COUNTERS.shm_fallbacks
        assert publish_rows("spt", 4, True, None, {}) is None
        assert COUNTERS.shm_fallbacks == before

    def test_copy_on_repair_keeps_shared_rows_intact(self):
        from repro.failures.models import FailureScenario
        from repro.graph.incremental import SptCache

        graph = grid_graph(3, 3)
        cache = _warm_spt_cache(graph, sources=(0,))
        csr = cache.csr
        pristine = [list(b) for b in cache.export_rows()[0]]
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                adopter = SptCache(graph, weighted=True)
                assert adopter.adopt_rows(table) == 1
                nodes = csr.nodes
                scenario = FailureScenario.single_link(nodes[0], nodes[1])
                view = adopter.view_for(scenario)
                dist, pred = adopter._repaired_row_idx(0, view)
                # The repair produced a post-failure row...
                assert list(dist) != pristine[0] or list(pred) != pristine[1]
                # ...while the shared pre-failure buffers are untouched.
                got_dist, got_pred = table.row(0)
                assert [list(got_dist), list(got_pred)] == pristine
            finally:
                handle.close()


class TestWorkerWarmUpAccounting:
    """Satellite: adoption is bookkeeping, never search work, and the
    fan-out's worker-side warm-up counters prove it end to end."""

    def test_adoption_moves_no_search_counters(self):
        from repro.graph.incremental import SptCache
        from repro.perf import COUNTERS

        graph = grid_graph(3, 4)
        cache = _warm_spt_cache(graph, sources=(0, 5))
        csr = cache.csr
        with publish_rows_or_skip(
            "spt", csr.n, True, csr.source_version, cache.export_rows()
        ) as seg:
            table, handle = attach_rows(seg.name)
            try:
                fresh = SptCache(graph, weighted=True)
                before = COUNTERS.snapshot()
                assert fresh.adopt_rows(table) == 2
                delta = COUNTERS.delta(before)
                assert delta.warm_rows_adopted == 2
                assert delta.csr_settled == 0
                assert delta.csr_relaxations == 0
                assert delta.dijkstra_relaxations == 0
                assert delta.dijkstra_settled == 0
                assert delta.warm_row_builds == 0
            finally:
                handle.close()

    def _evaluate(self, jobs: int, with_rows: bool) -> tuple[dict, object]:
        from repro.core.cache import clear_cache
        from repro.perf import COUNTERS

        # Start from cold shared caches: fork-started workers inherit
        # the parent's warm state, which would mask the adopt-vs-rebuild
        # distinction this class is pinning.
        clear_cache()
        network = cached_suite(scale="tiny", seed=1)[0]
        executor = make_executor(jobs) if jobs > 1 else None
        publication = None
        before = COUNTERS.snapshot()
        try:
            if executor is not None:
                publication = publish_suite(
                    [network], with_base=True, with_rows=with_rows, seed=1
                )
            rows = table2.evaluate_network(
                network,
                modes=("link",),
                seed=1,
                with_multiplicity=False,
                ilm_accounting="per-link",
                jobs=jobs,
                suite_ref=("tiny", 1, 0),
                executor=executor,
                shm_ref=publication.ref(0) if publication else None,
            )
        finally:
            if executor is not None:
                executor.shutdown()
            if publication is not None:
                publication.release()
        return rows, COUNTERS.delta(before)

    def test_ilm_work_counter_parity_weighted_chunks_vs_sequential(self):
        """Pinned parity: the cost-weighted partition performs exactly
        the sequential run's repair work — same repairs, same re-settled
        vertices, same fallbacks — just distributed."""
        from repro.experiments.parallel import weighted_chunks
        from repro.perf import COUNTERS

        network = cached_suite(scale="tiny", seed=1)[0]
        base = shared_unique_base(network.graph)
        pairs = sample_pairs(network.graph, network.sample_pairs, seed=1)
        scenarios = table2.ilm_scenarios(base, pairs, "link", 200)

        def accountant():
            return IlmAccountant(
                network.graph,
                base,
                demand_sources=table2.ilm_demand_sources(
                    network.graph, pairs
                ),
                weighted=network.weighted,
            )

        sequential = accountant()
        before = COUNTERS.snapshot()
        sequential.process_scenarios(scenarios)
        seq = COUNTERS.delta(before)

        planner = accountant()
        costs, _touched = planner.plan_scenarios(scenarios)
        chunks = weighted_chunks(costs, jobs=4)
        covered = sorted(i for indices, _cost in chunks for i in indices)
        assert covered == list(range(len(scenarios)))

        before = COUNTERS.snapshot()
        merged = accountant()
        for indices, _cost in chunks:
            worker = accountant()
            worker.process_scenarios([scenarios[i] for i in indices])
            merged.merge_state(worker.export_state())
        par = COUNTERS.delta(before)

        for name in ("spt_repairs", "spt_nodes_resettled", "spt_fallbacks"):
            assert getattr(par, name) == getattr(seq, name), name
        assert merged.stretch_factors() == sequential.stretch_factors()
        assert merged.table_sizes() == sequential.table_sizes()

    def test_jobs4_rows_identical_and_workers_adopt(self):
        """End to end: publication on, jobs-4 payload rows byte-identical
        to jobs-1, workers adopt instead of re-settling (their warm-up
        counter is zero)."""
        probe = shm.publish_csr(shared_csr(path_graph(3)))
        if probe is None:
            pytest.skip("shared memory unavailable on this platform")
        probe.unlink()
        detach_all()
        seq_rows, seq = self._evaluate(jobs=1, with_rows=False)
        par_rows, par = self._evaluate(jobs=4, with_rows=True)
        assert par_rows == seq_rows
        assert seq.worker_warm_row_builds == 0
        assert par.worker_warm_row_builds == 0
        assert par.warm_rows_adopted > 0
        assert par.shm_row_segments > 0
        assert residual_segments() == []

    def test_worker_warm_up_returns_without_publication(self, monkeypatch):
        """The counter measures real duplication: with REPRO_SHM=0 the
        workers are back to re-settling sources per process."""
        monkeypatch.setenv("REPRO_SHM", "0")
        _rows, par = self._evaluate(jobs=4, with_rows=True)
        assert par.worker_warm_row_builds > 0
        assert residual_segments() == []
