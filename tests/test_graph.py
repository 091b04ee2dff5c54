"""Unit tests for Graph, DiGraph, FilteredView and edge canonicalization."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    EdgeNotFound,
    NegativeWeight,
    NodeNotFound,
    NonFiniteWeight,
)
from repro.graph.graph import DiGraph, FilteredView, Graph, edge_key


class TestEdgeKey:
    def test_orders_comparable_nodes(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key(1, 2) == (1, 2)

    def test_orders_strings(self):
        assert edge_key("b", "a") == ("a", "b")

    def test_mixed_types_are_stable(self):
        assert edge_key(1, "a") == edge_key("a", 1)


class TestGraph:
    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 1

    def test_edge_is_symmetric(self):
        g = Graph()
        g.add_edge(1, 2, weight=3.5)
        assert g.weight(1, 2) == 3.5
        assert g.weight(2, 1) == 3.5
        assert g.has_edge(2, 1)

    def test_reweight_does_not_duplicate(self):
        g = Graph()
        g.add_edge(1, 2, weight=1.0)
        g.add_edge(1, 2, weight=2.0)
        assert g.number_of_edges() == 1
        assert g.weight(1, 2) == 2.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge(1, 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            Graph().add_edge(1, 2, weight=-1.0)

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, cls, weight):
        g = cls()
        with pytest.raises(NonFiniteWeight, match="non-finite weight"):
            g.add_edge(1, 2, weight=weight)
        # Rejected before any mutation: the graph stays empty.
        assert g.number_of_edges() == 0
        assert not g.has_node(1)

    def test_non_finite_reweight_keeps_the_old_weight(self):
        g = Graph()
        g.add_edge(1, 2, weight=3.0)
        with pytest.raises(NonFiniteWeight):
            g.add_edge(1, 2, weight=float("inf"))
        assert g.weight(1, 2) == 3.0

    def test_digraph_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            DiGraph().add_edge(1, 2, weight=-1.0)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(1, 2)
        assert not triangle.has_edge(1, 2)
        assert triangle.number_of_edges() == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFound):
            triangle.remove_edge(1, 4)

    def test_remove_node_drops_incident_edges(self, triangle):
        triangle.remove_node(2)
        assert not triangle.has_node(2)
        assert triangle.number_of_edges() == 1
        assert triangle.has_edge(1, 3)

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFound):
            Graph().remove_node(1)

    def test_neighbors_missing_node_raises(self):
        with pytest.raises(NodeNotFound):
            list(Graph().neighbors(1))

    def test_degree(self, diamond):
        assert diamond.degree(2) == 3
        assert diamond.degree(1) == 2

    def test_edges_each_once(self, triangle):
        assert sorted(triangle.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_average_degree(self, triangle):
        assert triangle.average_degree() == 2.0

    def test_average_degree_empty(self):
        assert Graph().average_degree() == 0.0

    def test_is_unweighted(self, triangle):
        assert triangle.is_unweighted()
        triangle.add_edge(1, 4, weight=2.0)
        assert not triangle.is_unweighted()

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(1, 2)
        assert triangle.has_edge(1, 2)
        assert not clone.has_edge(1, 2)

    def test_from_edges_with_weights(self):
        g = Graph.from_edges([(1, 2, 2.5), (2, 3)])
        assert g.weight(1, 2) == 2.5
        assert g.weight(2, 3) == 1.0

    def test_contains_and_len(self, triangle):
        assert 1 in triangle
        assert 9 not in triangle
        assert len(triangle) == 3


class TestDiGraph:
    def test_edge_is_directed(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_predecessors_and_degrees(self):
        g = DiGraph()
        g.add_edge(1, 3)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        assert sorted(g.predecessors(3)) == [1, 2]
        assert g.in_degree(3) == 2
        assert g.out_degree(3) == 1
        assert g.degree(3) == 3

    def test_remove_node_cleans_both_directions(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 1)
        g.remove_node(2)
        assert g.number_of_edges() == 1
        assert g.has_edge(3, 1)

    def test_remove_directed_edge(self):
        g = DiGraph()
        g.add_edge(1, 2)
        with pytest.raises(EdgeNotFound):
            g.remove_edge(2, 1)
        g.remove_edge(1, 2)
        assert g.number_of_edges() == 0

    def test_copy_preserves_directions(self):
        g = DiGraph()
        g.add_edge(1, 2)
        clone = g.copy()
        assert clone.has_edge(1, 2)
        assert not clone.has_edge(2, 1)
        clone.add_edge(2, 1)
        assert not g.has_edge(2, 1)

    def test_edges_directed(self):
        g = DiGraph()
        g.add_edge(2, 1)
        assert list(g.edges()) == [(2, 1)]


class TestFilteredView:
    def test_excludes_failed_edge_both_directions(self, triangle):
        view = triangle.without(edges=[(2, 1)])
        assert not view.has_edge(1, 2)
        assert not view.has_edge(2, 1)
        assert view.has_edge(2, 3)

    def test_excludes_failed_node(self, triangle):
        view = triangle.without(nodes=[2])
        assert not view.has_node(2)
        assert 2 not in set(view.nodes)
        assert not view.has_edge(1, 2)
        assert sorted(view.neighbors(1)) == [3]

    def test_neighbors_of_failed_node_raises(self, triangle):
        view = triangle.without(nodes=[2])
        with pytest.raises(NodeNotFound):
            list(view.neighbors(2))

    def test_counts(self, diamond):
        view = diamond.without(edges=[(1, 2)], nodes=[3])
        assert view.number_of_nodes() == 3
        assert view.number_of_edges() == 1  # only (2, 4) survives

    def test_weight_of_failed_edge_raises(self, triangle):
        view = triangle.without(edges=[(1, 2)])
        with pytest.raises(EdgeNotFound):
            view.weight(1, 2)
        assert view.weight(2, 3) == 1.0

    def test_stacked_failures(self, diamond):
        view = diamond.without(edges=[(1, 2)]).without(edges=[(1, 3)])
        assert not view.has_edge(1, 2)
        assert not view.has_edge(1, 3)
        assert view.has_edge(2, 4)
        assert view.failed_edges == frozenset({(1, 2), (1, 3)})

    def test_base_is_untouched(self, triangle):
        view = triangle.without(edges=[(1, 2)])
        assert triangle.has_edge(1, 2)
        assert view.base is triangle

    def test_directed_view_is_direction_sensitive(self):
        g = DiGraph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        view = g.without(edges=[(1, 2)])
        assert not view.has_edge(1, 2)
        assert view.has_edge(2, 1)

    def test_view_degree_and_edges(self, diamond):
        view = diamond.without(edges=[(2, 3)])
        assert view.degree(2) == 2
        assert (2, 3) not in set(view.edges())
