"""Tests for topology generators, loaders, and Table 1 statistics."""

from __future__ import annotations

import pytest

from repro.exceptions import NegativeWeight, NonFiniteWeight, TopologyError
from repro.graph.connectivity import is_connected, is_two_edge_connected
from repro.graph.graph import Graph
from repro.graph.shortest_paths import shortest_path, shortest_path_length
from repro.topology.classic import (
    comb_graph,
    complete_graph,
    cycle_graph,
    directed_counterexample,
    four_cycle,
    grid_graph,
    path_graph,
    two_level_star,
    weighted_comb_graph,
)
from repro.topology.isp import generate_isp_pair, generate_isp_topology
from repro.topology.loader import load_edgelist, save_edgelist
from repro.topology.powerlaw import (
    generate_as_graph,
    generate_internet_graph,
    preferential_attachment,
)
from repro.topology.stats import (
    degree_histogram,
    estimate_powerlaw_exponent,
    summarize,
)


class TestClassic:
    def test_path_graph(self):
        g = path_graph(5)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 4

    def test_path_graph_single_node(self):
        assert path_graph(1).number_of_nodes() == 1

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert g.number_of_edges() == 6
        assert all(g.degree(u) == 2 for u in g.nodes)

    def test_cycle_too_small(self):
        with pytest.raises(TopologyError):
            cycle_graph(2)

    def test_four_cycle(self):
        assert four_cycle().number_of_nodes() == 4

    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.number_of_edges() == 10

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert g.number_of_edges() == 3 * 3 + 2 * 4

    def test_invalid_sizes(self):
        with pytest.raises(TopologyError):
            grid_graph(0, 3)
        with pytest.raises(TopologyError):
            complete_graph(0)
        with pytest.raises(TopologyError):
            path_graph(0)


class TestComb:
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_structure(self, k):
        g, failed, s, t = comb_graph(k)
        assert g.number_of_nodes() == 2 * k + 1
        assert g.number_of_edges() == 3 * k
        assert len(failed) == k
        assert shortest_path_length(g, s, t, weighted=False) == k

    def test_survivor_is_unique_detour(self):
        g, failed, s, t = comb_graph(3)
        view = g.without(edges=failed)
        survivor = shortest_path(view, s, t, weighted=False)
        assert survivor.hops == 6  # 2k

    def test_k_zero_rejected(self):
        with pytest.raises(TopologyError):
            comb_graph(0)


class TestWeightedComb:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gadget_edges_are_not_shortest(self, k):
        g, failed, s, t = weighted_comb_graph(k)
        # Each 1+eps edge is beaten by the cheap two-hop route.
        for u, v, w in g.weighted_edges():
            if w > 1.0:
                assert shortest_path_length(g, u, v) < w

    def test_failed_edges_count(self):
        _, failed, _, _ = weighted_comb_graph(4)
        assert len(failed) == 4

    def test_eps_bounds(self):
        with pytest.raises(TopologyError):
            weighted_comb_graph(2, eps=0.9)
        with pytest.raises(TopologyError):
            weighted_comb_graph(2, eps=0.0)


class TestTwoLevelStar:
    def test_all_nonadjacent_pairs_at_distance_two(self):
        g, hub, s, t = two_level_star(12)
        for u in g.nodes:
            for v in g.nodes:
                if u != v and not g.has_edge(u, v):
                    assert shortest_path_length(g, u, v, weighted=False) == 2

    def test_hub_failure_leaves_ring(self):
        g, hub, s, t = two_level_star(10)
        view = g.without(nodes=[hub])
        assert is_connected(view)
        assert shortest_path_length(view, s, t, weighted=False) >= 4

    def test_too_small(self):
        with pytest.raises(TopologyError):
            two_level_star(4)


class TestDirectedCounterexample:
    def test_shortcut_dominates(self):
        g, failed, s, t = directed_counterexample(12)
        assert shortest_path_length(g, s, t, weighted=False) == 3

    def test_failure_forces_chain(self):
        g, failed, s, t = directed_counterexample(12)
        view = g.without(edges=[failed])
        assert shortest_path_length(view, s, t, weighted=False) == (12 - 2) - 1

    def test_too_small(self):
        with pytest.raises(TopologyError):
            directed_counterexample(5)


class TestIsp:
    def test_deterministic(self):
        a = generate_isp_topology(n=80, seed=3)
        b = generate_isp_topology(n=80, seed=3)
        assert sorted(a.weighted_edges()) == sorted(b.weighted_edges())

    def test_different_seeds_differ(self):
        a = generate_isp_topology(n=80, seed=3)
        b = generate_isp_topology(n=80, seed=4)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_connected_and_sized(self):
        g = generate_isp_topology(n=100, seed=1)
        assert g.number_of_nodes() == 100
        assert is_connected(g)
        assert 3.0 <= g.average_degree() <= 5.0

    def test_core_is_two_edge_connected(self):
        g = generate_isp_topology(n=100, seed=2)
        core_nodes = [u for u in g.nodes if u[0] == "core"]
        core = Graph()
        for u in core_nodes:
            core.add_node(u)
        for u, v, w in g.weighted_edges():
            if u[0] == "core" and v[0] == "core":
                core.add_edge(u, v, weight=w)
        assert is_two_edge_connected(core)

    def test_access_routers_dual_homed(self):
        g = generate_isp_topology(n=100, seed=1)
        for u in g.nodes:
            if u[0] == "acc":
                assert g.degree(u) == 2

    def test_weights_are_symmetric_positive(self):
        g = generate_isp_topology(n=60, seed=1)
        for u, v, w in g.weighted_edges():
            assert w >= 1.0
            assert g.weight(v, u) == w

    def test_unweighted_pair_shares_topology(self):
        weighted, unweighted = generate_isp_pair(n=60, seed=5)
        assert sorted(weighted.edges()) == sorted(unweighted.edges())
        assert unweighted.is_unweighted()
        assert not weighted.is_unweighted()

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            generate_isp_topology(n=5)


class TestPowerlaw:
    def test_deterministic(self):
        a = preferential_attachment(200, 2.0, seed=9)
        b = preferential_attachment(200, 2.0, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_connected(self):
        g = preferential_attachment(500, 2.0, seed=1)
        assert is_connected(g)

    def test_average_degree_calibration(self):
        g = generate_as_graph(n=2000, seed=1)
        assert 3.8 <= g.average_degree() <= 4.6
        g2 = generate_internet_graph(n=2000, seed=1)
        assert 4.6 <= g2.average_degree() <= 5.5

    def test_degree_distribution_has_heavy_tail(self):
        g = preferential_attachment(2000, 2.0, seed=1)
        histogram = degree_histogram(g)
        alpha = estimate_powerlaw_exponent(histogram)
        assert alpha is not None and alpha < -1.0
        assert max(histogram) > 20  # hubs exist

    def test_parameter_validation(self):
        with pytest.raises(TopologyError):
            preferential_attachment(2, 2.0)
        with pytest.raises(TopologyError):
            preferential_attachment(100, 0.5)


class TestStats:
    def test_summarize(self, triangle):
        s = summarize(triangle, "tri")
        assert s.nodes == 3 and s.links == 3
        assert s.average_degree == 2.0
        assert s.min_degree == s.max_degree == 2
        assert "tri" in s.table1_row()

    def test_histogram(self, line5):
        assert degree_histogram(line5) == {1: 2, 2: 3}

    def test_powerlaw_estimate_needs_data(self):
        assert estimate_powerlaw_exponent({2: 10}) is None


class TestLoader:
    def test_roundtrip_undirected(self, tmp_path, weighted_diamond):
        path = tmp_path / "g.edges"
        save_edgelist(weighted_diamond, path)
        loaded = load_edgelist(path)
        assert sorted(loaded.weighted_edges()) == sorted(
            weighted_diamond.weighted_edges()
        )
        assert not loaded.directed

    def test_roundtrip_directed(self, tmp_path):
        from repro.graph.graph import DiGraph

        g = DiGraph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "a", weight=3.0)
        path = tmp_path / "d.edges"
        save_edgelist(g, path)
        loaded = load_edgelist(path)
        assert loaded.directed
        assert loaded.weight("a", "b") == 2.0
        assert loaded.weight("b", "a") == 3.0

    def test_roundtrip_tuple_nodes(self, tmp_path):
        g = Graph()
        g.add_edge(("core", 1), ("acc", 2), weight=4.0)
        path = tmp_path / "t.edges"
        save_edgelist(g, path)
        loaded = load_edgelist(path)
        assert loaded.has_edge(("core", 1), ("acc", 2))

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 2 3\n")  # spaces, not tabs
        with pytest.raises(TopologyError):
            load_edgelist(path)

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "'nan'", "'inf'"])
    def test_non_finite_weight_rejected_with_its_line(self, tmp_path, token):
        path = tmp_path / "inf.edges"
        path.write_text(f"# directed: false\n1\t2\t1.0\n2\t3\t{token}\n")
        with pytest.raises(NonFiniteWeight, match=r"inf\.edges:3: non-finite"):
            load_edgelist(path)

    def test_negative_weight_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("# directed: true\n1\t2\t-2.0\n")
        with pytest.raises(NegativeWeight, match=r"neg\.edges:2: negative"):
            load_edgelist(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.edges"
        path.write_text("# directed: false\n\n1\t2\t1.5\n")
        loaded = load_edgelist(path)
        assert loaded.weight(1, 2) == 1.5
