"""Tests for the per-link ILM stretch accounting (Table 2, faithful mode)."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random

import pytest

from repro.core.base_paths import ExplicitBaseSet, UniqueShortestPathsBase
from repro.experiments.ilm_accounting import IlmAccountant, scenarios_from_cases
from repro.failures.models import FailureScenario
from repro.failures.sampler import FailureCase, link_failure_cases, sample_pairs
from repro.graph.graph import Graph
from repro.graph.paths import Path
from repro.topology.isp import generate_isp_topology


@pytest.fixture(scope="module")
def world():
    graph = generate_isp_topology(n=40, seed=3)
    base = UniqueShortestPathsBase(graph)
    return graph, base


class TestAccountant:
    def test_empty_run_is_nan(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        min_sf, avg_sf = accountant.stretch_factors()
        assert min_sf != min_sf and avg_sf != avg_sf  # NaN

    def test_single_scenario_counts_affected_demands(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        primary = base.path_for(nodes[0], nodes[-1])
        failed = next(iter(primary.edge_keys()))
        affected = accountant.process_scenario(
            FailureScenario.link_set([failed])
        )
        # At minimum the demand we derived the link from is affected.
        assert affected >= 1
        assert accountant.scenarios_processed == 1
        assert accountant.demands_restored + accountant.demands_unrestorable == affected

    def test_stretch_below_100_percent(self, world):
        """Sharing must make the base table smaller than naive backups."""
        graph, base = world
        accountant = IlmAccountant(graph, base)
        pairs = sample_pairs(graph, 10, seed=2)
        cases = []
        for pair in pairs:
            cases.extend(link_failure_cases(pair, base.path_for(*pair), k=1))
        accountant.process_scenarios(scenarios_from_cases(cases))
        min_sf, avg_sf = accountant.stretch_factors()
        assert 0 < min_sf <= avg_sf
        assert avg_sf < 100.0

    def test_table_sizes_consistent(self, world):
        graph, base = world
        accountant = IlmAccountant(graph, base)
        nodes = sorted(graph.nodes, key=repr)
        primary = base.path_for(nodes[0], nodes[-1])
        accountant.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        base_entries, naive_entries = accountant.table_sizes()
        assert 0 < base_entries
        assert base_entries <= naive_entries + base_entries  # sanity
        assert accountant.base_lsp_count() >= 1

    def test_restricted_demand_sources(self, world):
        graph, base = world
        nodes = sorted(graph.nodes, key=repr)
        accountant = IlmAccountant(graph, base, demand_sources=nodes[:3])
        primary = base.path_for(nodes[0], nodes[-1])
        affected = accountant.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        full = IlmAccountant(graph, base)
        affected_full = full.process_scenario(
            FailureScenario.link_set([next(iter(primary.edge_keys()))])
        )
        assert affected <= affected_full

    def test_bridge_demand_counted_unrestorable(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        base = UniqueShortestPathsBase(g)
        accountant = IlmAccountant(g, base)
        accountant.process_scenario(FailureScenario.single_link(3, 4))
        assert accountant.demands_unrestorable > 0

    def test_more_scenarios_never_raise_stretch(self, world):
        """Adding scenarios adds naive backups faster than shared pieces."""
        graph, base = world
        pairs = sample_pairs(graph, 12, seed=5)
        cases = []
        for pair in pairs:
            cases.extend(link_failure_cases(pair, base.path_for(*pair), k=1))
        scenarios = scenarios_from_cases(cases)
        few = IlmAccountant(graph, base)
        few.process_scenarios(scenarios[:3])
        many = IlmAccountant(graph, base)
        many.process_scenarios(scenarios)
        assert many.stretch_factors()[1] <= few.stretch_factors()[1] + 10.0


class TestScenariosFromCases:
    def test_dedup_preserves_order(self):
        primary = Path([1, 2, 3])
        sc1 = FailureScenario.single_link(1, 2)
        sc2 = FailureScenario.single_link(2, 3)
        cases = [
            FailureCase(1, 3, primary, sc1),
            FailureCase(1, 3, primary, sc2),
            FailureCase(4, 5, primary, sc1),  # duplicate scenario
        ]
        assert scenarios_from_cases(cases) == [sc1, sc2]


def _brute_force_affected(accountant, base, scenario):
    """``{source idx: set(target idxs)}`` from one ``path_for`` per pair."""
    nodes, index = accountant.csr.nodes, accountant.csr.index
    dead_links = {frozenset(link) for link in scenario.links}
    dead_routers = set(scenario.routers)
    expected = {}
    for source in accountant.demand_sources:
        if source in dead_routers:
            continue
        hit = set()
        for target in nodes:
            if target == source or not base.has_pair(source, target):
                continue
            path = base.path_for(source, target)
            if dead_routers.intersection(path.nodes) or any(
                frozenset(edge) in dead_links
                for edge in zip(path.nodes, path.nodes[1:])
            ):
                hit.add(index[target])
        if hit:
            expected[index[source]] = hit
    return expected


def _tree_edges(base, source, target):
    path = base.path_for(source, target)
    return list(zip(path.nodes, path.nodes[1:]))


@pytest.fixture(scope="module")
def bridged():
    """A bridge (3-4) between two triangles plus an unreachable pair."""
    graph = Graph.from_edges([
        (1, 2, 1.0), (2, 3, 2.0), (3, 1, 1.5), (3, 4, 1.0),
        (4, 5, 1.0), (5, 6, 1.0), (6, 4, 2.5), (5, 7, 1.0),
        (8, 9, 1.0),
    ])
    return graph, UniqueShortestPathsBase(graph)


def _scenarios(graph, base):
    """Every scenario family the preorder-slice universe must handle."""
    nodes = sorted(graph.nodes, key=repr)
    edges = sorted(graph.edges(), key=repr)
    far = max(
        (
            (s, t) for s in nodes for t in nodes
            if s != t and base.has_pair(s, t)
        ),
        key=lambda pair: (base.path_for(*pair).hops, repr(pair)),
    )
    chain = _tree_edges(base, *far)
    mid = base.path_for(*far).nodes[1]
    return [
        FailureScenario.single_link(*edges[0]),
        FailureScenario.single_link(*edges[len(edges) // 2]),
        FailureScenario.link_set([edges[1], edges[-1]]),
        FailureScenario.single_router(nodes[len(nodes) // 2]),
        FailureScenario.router_set([nodes[0], nodes[-1]]),
        FailureScenario(
            links=FailureScenario.link_set([edges[2]]).links,
            routers=frozenset({nodes[1]}),
        ),
        # A dead source and, for every other source, a dead target.
        FailureScenario.router_set([far[0], far[1]]),
        # Two dead links on one primary (nested subtrees) ...
        FailureScenario.link_set([chain[0], chain[-1]]),
        # ... and a dead router below a dead link on the same path.
        FailureScenario(
            links=FailureScenario.link_set([chain[0]]).links,
            routers=frozenset({far[1]}),
        ),
        FailureScenario(
            links=FailureScenario.link_set([chain[-1]]).links,
            routers=frozenset({mid}),
        ),
    ]


class TestAffectedByDifferential:
    """Preorder-slice ``_affected_by`` == brute force over ``path_for``."""

    @pytest.mark.parametrize("graph_name", ["isp", "bridged"])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_matches_brute_force(self, world, bridged, graph_name, restricted):
        graph, base = world if graph_name == "isp" else bridged
        nodes = sorted(graph.nodes, key=repr)
        sources = nodes[::3] if restricted else None
        accountant = IlmAccountant(graph, base, demand_sources=sources)
        scenarios = _scenarios(graph, base)
        if graph_name == "isp":
            rng = random.Random(11)
            edges = sorted(graph.edges(), key=repr)
            for _ in range(20):
                scenarios.append(FailureScenario(
                    links=FailureScenario.link_set(
                        rng.sample(edges, rng.randint(1, 3))
                    ).links,
                    routers=frozenset(rng.sample(nodes, rng.randint(0, 2))),
                ))
        for scenario in scenarios:
            grouped = accountant._affected_by(scenario)
            for targets in grouped.values():
                assert len(targets) == len(set(targets)), scenario
            got = {si: set(targets) for si, targets in grouped.items()}
            assert got == _brute_force_affected(accountant, base, scenario), (
                scenario
            )

    def test_unreachable_component_never_hit(self, bridged):
        graph, base = bridged
        accountant = IlmAccountant(graph, base)
        index = accountant.csr.index
        grouped = accountant._affected_by(FailureScenario.single_link(8, 9))
        assert set(grouped) == {index[8], index[9]}
        assert grouped[index[8]] == [index[9]]
        assert grouped[index[9]] == [index[8]]
        bridge = accountant._affected_by(FailureScenario.single_link(3, 4))
        assert index[8] not in bridge and index[9] not in bridge
        assert set(bridge[index[1]]) == {index[x] for x in (4, 5, 6, 7)}


GOLDEN_TINY = (
    pathlib.Path(__file__).parent / "data" / "golden_table2_tiny_perlink_seed1.json"
)


class TestTinyPerLinkGolden:
    """Table 2's ILM columns at tiny scale, pinned in tier-1."""

    def test_rows_match_golden(self):
        from repro.experiments import table2
        from repro.experiments.networks import cached_suite

        rows = table2.evaluate_network(
            cached_suite(scale="tiny", seed=1)[0],
            modes=("link", "two-links"),
            ilm_accounting="per-link",
            jobs=1,
            with_multiplicity=False,
        )
        got = {mode: dataclasses.asdict(row) for mode, row in rows.items()}
        assert got == json.loads(GOLDEN_TINY.read_text())


class TestMergeStateValidation:
    def _state(self, graph, base, **kwargs):
        accountant = IlmAccountant(graph, base, **kwargs)
        source = sorted(graph.nodes, key=repr)[0]
        target = next(t for t in graph.nodes if base.has_pair(source, t))
        edge = _tree_edges(base, source, target)[0]
        assert accountant.process_scenario(FailureScenario.single_link(*edge))
        return accountant.export_state()

    def test_round_trip(self, world):
        graph, base = world
        state = self._state(graph, base)
        merged = IlmAccountant(graph, base)
        merged.merge_state(state)
        assert merged.export_state() == state

    @pytest.mark.parametrize("smaller", [True, False])
    def test_foreign_network_rejected(self, world, bridged, smaller):
        graph, base = world
        other_graph, other_base = bridged
        if smaller:
            state = self._state(other_graph, other_base)
            target = IlmAccountant(graph, base)
        else:
            state = self._state(graph, base)
            target = IlmAccountant(other_graph, other_base)
        before = target.export_state()
        with pytest.raises(ValueError, match="backup_naive has"):
            target.merge_state(state)
        assert target.export_state() == before

    def test_foreign_demand_universe_rejected(self, world):
        graph, base = world
        nodes = sorted(graph.nodes, key=repr)
        state = self._state(graph, base, demand_sources=nodes[:3])
        target = IlmAccountant(graph, base)
        n = target.csr.n
        with pytest.raises(
            ValueError, match=f"{3 * n} entries.*{len(nodes) * n}"
        ):
            target.merge_state(state)


class TestAlignedOracleRequired:
    def test_explicit_base_set_rejected(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 1)])
        base = ExplicitBaseSet(g, [Path([1, 2, 3])], include_all_edges=True)
        with pytest.raises(ValueError, match="ExplicitBaseSet"):
            IlmAccountant(g, base)
