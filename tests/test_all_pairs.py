"""Tests for the APSP distance oracles."""

from __future__ import annotations

from array import array

import pytest

from repro.exceptions import NoPath
from repro.graph.all_pairs import ApspDistances, LazyDistanceOracle
from repro.graph.graph import Graph
from repro.graph.shortest_paths import costs_equal, dijkstra


class TestApspDistances:
    def test_all_distances(self, weighted_diamond):
        apsp = ApspDistances.compute(weighted_diamond)
        assert apsp.distance(1, 4) == 2.0
        assert apsp.distance(4, 1) == 2.0
        assert apsp.distance(2, 3) == 3.0  # via 1 or 4, not the w=5 chord

    def test_restricted_sources(self, diamond):
        apsp = ApspDistances.compute(diamond, sources=[1])
        assert apsp.distance(1, 4) == 2.0
        with pytest.raises(NoPath):
            apsp.distance(2, 4)  # source 2 not covered
        assert list(apsp.sources) == [1]

    def test_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        apsp = ApspDistances.compute(g)
        with pytest.raises(NoPath):
            apsp.distance(1, 3)
        assert not apsp.has_path(1, 3)
        assert apsp.has_path(1, 2)

    def test_path_reconstruction(self, weighted_diamond):
        apsp = ApspDistances.compute(weighted_diamond)
        path = apsp.path(1, 4)
        assert path.nodes == (1, 2, 4)

    def test_is_shortest(self, diamond):
        apsp = ApspDistances.compute(diamond)
        assert apsp.is_shortest(apsp.path(1, 4), 2.0)
        assert not apsp.is_shortest(apsp.path(1, 4), 3.0)

    def test_average_distance(self, line5):
        apsp = ApspDistances.compute(line5)
        # Pairs at distances 1,2,3,4 symmetric: mean = 2 * (4*1+3*2+2*3+1*4) / 20.
        assert apsp.average_distance() == pytest.approx(2.0)

    def test_average_distance_empty(self):
        g = Graph()
        g.add_node(1)
        assert ApspDistances.compute(g).average_distance() == 0.0

    def test_tie_break_by_hops(self):
        g = Graph.from_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 3)])
        apsp = ApspDistances.compute(g, break_ties_by_hops=True)
        assert apsp.path(0, 3).hops == 1


class TestLazyDistanceOracle:
    def test_matches_eager(self, small_isp):
        lazy = LazyDistanceOracle(small_isp)
        nodes = sorted(small_isp.nodes, key=repr)
        eager = ApspDistances.compute(small_isp, sources=nodes[:3])
        for s in nodes[:3]:
            for t in nodes[::7]:
                if s == t:
                    continue
                assert costs_equal(lazy.distance(s, t), eager.distance(s, t))

    def test_caches_sources(self, diamond):
        lazy = LazyDistanceOracle(diamond)
        assert lazy.cached_sources() == []
        lazy.distance(1, 4)
        assert lazy.cached_sources() == [1]
        lazy.distance(1, 3)
        assert lazy.cached_sources() == [1]  # reused, not recomputed

    def test_unreachable_raises(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        lazy = LazyDistanceOracle(g)
        with pytest.raises(NoPath):
            lazy.distance(1, 4)
        assert not lazy.has_path(1, 4)

    def test_dist_buffer_converts_a_computed_row_once(self, small_isp):
        lazy = LazyDistanceOracle(small_isp)
        source = sorted(small_isp.nodes, key=repr)[0]
        dist = list(lazy.row_arrays(source)[0])
        buf = lazy.dist_buffer(source)
        assert isinstance(buf, array) and buf.typecode == "d"
        assert list(buf) == dist
        # Cached in place of the list: later calls (and row_arrays)
        # hand back the same buffer, and the answers are unchanged.
        assert lazy.dist_buffer(source) is buf
        assert lazy.row_arrays(source)[0] is buf
        target = sorted(small_isp.nodes, key=repr)[-1]
        assert lazy.distance(source, target) == dist[
            lazy.csr().index[target]
        ]

    def test_dist_buffer_returns_adopted_rows_in_place(self, small_isp):
        from repro.graph.shm import attach_rows, publish_rows

        warm = LazyDistanceOracle(small_isp)
        source = sorted(small_isp.nodes, key=repr)[0]
        csr = warm.csr()
        warm.ensure_rows([source])
        seg = publish_rows(
            "oracle", csr.n, True, csr.source_version, warm.export_rows()
        )
        if seg is None:
            pytest.skip("shared memory unavailable on this platform")
        with seg:
            table, handle = attach_rows(seg.name)
            try:
                adopter = LazyDistanceOracle(small_isp)
                assert adopter.adopt_rows(table) == 1
                adopted = adopter.row_arrays(source)[0]
                assert adopter.dist_buffer(source) is adopted
                assert isinstance(adopted, memoryview) and adopted.readonly
            finally:
                handle.close()

    def test_path(self, weighted_diamond):
        lazy = LazyDistanceOracle(weighted_diamond)
        assert lazy.path(1, 4).cost(weighted_diamond) == 2.0

    def test_oracle_on_view(self, diamond):
        view = diamond.without(edges=[(1, 2)])
        lazy = LazyDistanceOracle(view)
        assert lazy.distance(1, 4) == 2.0  # via 3
        assert lazy.path(1, 4).nodes == (1, 3, 4)
