"""Built-in restoration policies and their registry bindings.

* :class:`ConcatenationPolicy` — the paper's scheme: restore on the
  min-cost post-failure path and cover it with the minimum number of
  pre-provisioned base LSPs.  Its :meth:`~ConcatenationPolicy.evaluate_case`
  is the original Table 2 pipeline body, moved here verbatim, so the
  default policy reproduces the pre-policy rows and counters
  byte-identically.
* the related-work baselines of :mod:`repro.core.baselines`
  (``disjoint`` / ``ksp`` / ``maxflow``), registered as-is — they
  already implement the ABC.
* :class:`MrcPolicy` — multiple routing configurations
  (arXiv:1212.0311): a fixed set of backup configurations, each with a
  deterministic share of the links and routers "isolated" (prohibitive
  weight); on failure, traffic switches to a configuration in which
  every failed element is isolated and therefore already routed around.
* :class:`DoNotRestorePolicy` — the null scheme (``drop``): traffic
  rides the primary or nothing.  The floor every restoration scheme is
  measured against.
"""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING, Iterator, Optional

from ..core.baselines import (
    DisjointBackupScheme,
    KShortestPathsScheme,
    MaxFlowScheme,
)
from ..exceptions import NoPath
from ..failures.models import FailureScenario
from ..graph.graph import Edge, Graph, Node, edge_key
from ..graph.paths import Path
from ..perf import COUNTERS, DEPTH_EDGES, STRETCH_EDGES
from .base import RestorationOutcome, RestorationPolicy
from .registry import POLICIES

if TYPE_CHECKING:
    from ..experiments.metrics import CaseResult
    from ..failures.sampler import FailureCase


class ConcatenationPolicy(RestorationPolicy):
    """The paper's scheme: shortest-path restoration by concatenation."""

    name = "concatenation"
    title = "RBPC (concatenation)"
    uses_local_patch = True
    uses_source_restore = True
    supports_ilm_accounting = True

    def provision(self, source: Node, target: Node) -> tuple[Path, ...]:
        """The demand's base LSP; backup pieces are shared, not per-demand."""
        plan = self._plans.get((source, target))
        if plan is None:
            plan = (self.base.path_for(source, target),)
            self._plans[(source, target)] = plan
        return plan

    def restore(
        self, source: Node, target: Node, scenario: FailureScenario
    ) -> RestorationOutcome:
        """Min-cost restoration, decomposed into base-LSP pieces."""
        from ..core.cache import shared_spt_cache
        from ..core.decomposition import min_pieces_decompose

        try:
            backup = shared_spt_cache(self.graph, self.weighted).backup_path(
                source, target, scenario
            )
        except NoPath:
            return RestorationOutcome(restored=False, route=None, stretch=None)
        decomposition = min_pieces_decompose(
            backup, self.base, allow_edges=True
        )
        # The backup is cost-identical to the post-failure shortest
        # path by the SPT-cache contract, so its stretch is exactly 1.
        return RestorationOutcome(
            restored=True,
            route=backup,
            stretch=1.0,
            pieces=tuple(decomposition.pieces),
        )

    def evaluate_case(self, case: "FailureCase") -> "CaseResult":
        """One (demand, scenario) unit: backup path + decomposition.

        The original ``table2.run_case`` body: the backup search runs
        on the shared SPT cache under the canonical tie contract
        (decremental SPT repair of the cached pre-failure source row,
        targeted canonical search past the fallback threshold), and the
        decomposition DP covers it with the fewest base LSPs.  Kept
        bit-for-bit — instrumentation included — so default-policy runs
        are byte-identical to the pre-policy pipeline at any
        jobs/shm/kernel setting.
        """
        from ..core.cache import shared_spt_cache
        from ..core.decomposition import min_pieces_decompose
        from ..experiments.metrics import CaseResult

        graph = self.graph
        primary_cost = case.primary_path.cost(graph)
        try:
            backup = shared_spt_cache(graph, self.weighted).backup_path(
                case.source, case.destination, case.scenario
            )
        except NoPath:
            if COUNTERS.observing:
                COUNTERS.counter("table2.unrestorable_cases").inc()
            return CaseResult(
                source=case.source,
                destination=case.destination,
                scenario=case.scenario,
                primary=case.primary_path,
                primary_cost=primary_cost,
                backup=None,
                backup_cost=None,
                decomposition=None,
            )
        decomposition = min_pieces_decompose(backup, self.base, allow_edges=True)
        backup_cost = backup.cost(graph)
        if COUNTERS.observing:
            if primary_cost:
                COUNTERS.histogram("table2.path_stretch", STRETCH_EDGES).observe(
                    backup_cost / primary_cost
                )
            COUNTERS.histogram("table2.pc_length", DEPTH_EDGES).observe(
                decomposition.num_pieces
            )
        return CaseResult(
            source=case.source,
            destination=case.destination,
            scenario=case.scenario,
            primary=case.primary_path,
            primary_cost=primary_cost,
            backup=backup,
            backup_cost=backup_cost,
            decomposition=decomposition,
        )


class DoNotRestorePolicy(RestorationPolicy):
    """The null scheme: no backup provisioning, no reaction to failures."""

    name = "drop"
    title = "do-not-restore"
    uses_local_patch = False
    uses_source_restore = False

    def provision(self, source: Node, target: Node) -> tuple[Path, ...]:
        """Only the primary is ever established."""
        plan = self._plans.get((source, target))
        if plan is None:
            plan = (self.base.path_for(source, target),)
            self._plans[(source, target)] = plan
        return plan


class MrcPolicy(RestorationPolicy):
    """Multiple routing configurations (arXiv:1212.0311).

    Pre-computes ``configurations`` backup routing configurations.  A
    deterministic seeded round-robin assigns every link and every
    router to exactly one configuration, in which it is *isolated*: its
    (incident) links carry a prohibitive weight, so that
    configuration's routes avoid the element whenever the topology
    allows.  On failure, traffic switches to a configuration isolating
    every failed element — the pre-computed route there is valid
    without any new computation.  Recovery is thus a pure forwarding-
    plane switch, at the price of per-configuration state and of
    unrestorable combinations: a multi-failure spanning two
    configurations has no single configuration to switch to (the
    documented MRC limitation this benchmark measures).
    """

    name = "mrc"
    title = "multiple routing configurations"
    uses_local_patch = False
    uses_source_restore = True

    def __init__(
        self,
        graph: Graph,
        base=None,
        weighted: bool = True,
        configurations: int = 4,
        seed: int = 1,
    ) -> None:
        super().__init__(graph, base, weighted)
        if configurations < 1:
            raise ValueError("configurations must be >= 1")
        self.configurations = configurations
        rng = random.Random(seed)
        edges = sorted((edge_key(u, v) for u, v in graph.edges()), key=repr)
        rng.shuffle(edges)
        self._edge_config: dict[Edge, int] = {
            edge: i % configurations for i, edge in enumerate(edges)
        }
        nodes = sorted(graph.nodes, key=repr)
        rng.shuffle(nodes)
        self._node_config: dict[Node, int] = {
            node: i % configurations for i, node in enumerate(nodes)
        }
        self._order = {node: i for i, node in enumerate(sorted(graph.nodes, key=repr))}
        total = sum(
            graph.weight(u, v) if weighted else 1.0 for u, v in graph.edges()
        )
        #: Any isolated hop costs more than every non-isolated path.
        self._penalty = total + len(self._order) + 1.0
        self._routes: dict[tuple[Node, Node], tuple[Optional[Path], ...]] = {}

    # -- configuration machinery ---------------------------------------------

    def _isolated(self, config: int, u: Node, v: Node) -> bool:
        """True when hop *(u, v)* is isolated in *config*."""
        return (
            self._edge_config.get(edge_key(u, v)) == config
            or self._node_config.get(u) == config
            or self._node_config.get(v) == config
        )

    def _config_weight(self, config: int, u: Node, v: Node) -> float:
        weight = self.graph.weight(u, v) if self.weighted else 1.0
        if self._isolated(config, u, v):
            weight += self._penalty
        return weight

    def _config_route(
        self, config: int, source: Node, target: Node
    ) -> Optional[Path]:
        """Deterministic Dijkstra under *config*'s weight function."""
        order = self._order
        if source not in order or target not in order:
            return None
        dist: dict[Node, float] = {source: 0.0}
        prev: dict[Node, Node] = {}
        heap: list[tuple[float, int, Node]] = [(0.0, order[source], source)]
        done: set[Node] = set()
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            if u == target:
                break
            for v in sorted(self.graph.neighbors(u), key=order.__getitem__):
                if v in done:
                    continue
                nd = d + self._config_weight(config, u, v)
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, order[v], v))
        if target not in done:
            return None
        nodes = [target]
        while nodes[-1] != source:
            nodes.append(prev[nodes[-1]])
        return Path(reversed(nodes))

    def _covering_configs(self, scenario: FailureScenario) -> Iterator[int]:
        """Configurations isolating *every* failed element, in index order."""
        for config in range(self.configurations):
            if all(
                self._isolated(config, u, v) for u, v in scenario.links
            ) and all(
                self._node_config.get(r) == config for r in scenario.routers
            ):
                yield config

    # -- policy contract -----------------------------------------------------

    def provision(self, source: Node, target: Node) -> tuple[Path, ...]:
        """Primary plus one pre-computed route per configuration."""
        routes = self._provisioned(source, target)
        plan = tuple(route for route in routes if route is not None)
        self._plans[(source, target)] = plan
        return plan

    def _provisioned(
        self, source: Node, target: Node
    ) -> tuple[Optional[Path], ...]:
        routes = self._routes.get((source, target))
        if routes is None:
            routes = (self.base.path_for(source, target),) + tuple(
                self._config_route(c, source, target)
                for c in range(self.configurations)
            )
            self._routes[(source, target)] = routes
        return routes

    def restore(
        self, source: Node, target: Node, scenario: FailureScenario
    ) -> RestorationOutcome:
        """Switch to a configuration isolating every failed element."""
        routes = self._provisioned(source, target)
        primary = routes[0]
        if primary is not None and not scenario.disturbs(primary):
            return self.score(primary, source, target, scenario)
        for config in self._covering_configs(scenario):
            route = routes[1 + config]
            if route is not None and not scenario.disturbs(route):
                return self.score(route, source, target, scenario)
        return RestorationOutcome(restored=False, route=None, stretch=None)


for _policy in (
    ConcatenationPolicy,
    DisjointBackupScheme,
    KShortestPathsScheme,
    MaxFlowScheme,
    MrcPolicy,
    DoNotRestorePolicy,
):
    POLICIES.register(_policy.name, _policy)
