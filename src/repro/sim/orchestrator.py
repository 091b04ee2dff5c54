"""Event-driven restoration orchestration: the hybrid scheme, live.

:class:`RestorationSimulation` runs the full control-plane story of
Section 4.2's hybrid scheme on a discrete-event clock:

1. a link fails at time *t* (data plane: packets crossing it drop);
2. at ``t + detection_delay`` the two adjacent routers detect it —
   each immediately applies **local RBPC** to every disrupted LSP it
   is upstream of, and originates a link-state advertisement;
3. the LSA floods hop by hop (``per_hop_delay`` each), every router
   updating its own LSDB (stale sequence numbers are ignored, so
   crossing floods are safe);
4. ``spf_delay`` after a demand's *source* learns of the failure, it
   applies **source-router RBPC**, swapping the interim local patch
   for a true shortest-path restoration;
5. link recovery reverses everything in the same pattern.

At any simulated instant, :meth:`inject` sends a real packet through
the MPLS tables as they exist *right then* — the tests assert the
exact delivery timeline (black hole → stretched local route →
shortest restored route → primary again).

Every control-plane action, LSA hop, ILM mutation, and packet
injection is recorded in a structured, versioned event log
(:attr:`RestorationSimulation.events`, a
:class:`~repro.obs.events.EventLog`) — the single timeline source of
truth, byte-deterministic for a given seed and schedule, serializable
with ``events.write_jsonl()`` and rendered by
``python -m repro.obs timeline``.  The legacy :attr:`timeline`
property derives the old ``TimelineEntry`` view from it.  While
:data:`repro.perf.COUNTERS` records named metrics (``observing``, set
by ``--obs``), the simulation also feeds it restoration-latency and
flood-convergence measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.base_paths import BaseSet
from ..core.local_restoration import LocalRbpc, LocalStrategy, upstream_router
from ..core.restoration import SourceRouterRbpc
from ..exceptions import NoRestorationPath
from ..graph.graph import Edge, Node, edge_key
from ..graph.paths import Path
from ..mpls.network import ForwardingResult, MplsNetwork
from ..obs.events import EventLog
from ..perf import COUNTERS, DEPTH_EDGES
from ..routing.flooding import FloodingModel
from ..routing.lsdb import LinkStateAd, LinkStateDatabase
from ..routing.spf import SpfRouter
from .event_queue import EventQueue

#: Event kinds that constitute the legacy control-plane timeline (the
#: :attr:`RestorationSimulation.timeline` view).  Data-plane probes
#: (``delivery``), flood propagation (``lsa-hop``) and table mutations
#: (``ilm-install``/``ilm-remove``) are part of the event log only.
CONTROL_PLANE_KINDS = frozenset(
    {
        "link-down",
        "link-up",
        "detected",
        "local-patch",
        "local-patch-failed",
        "local-revert",
        "source-restore",
        "source-restore-failed",
        "source-recover",
    }
)


@dataclass(frozen=True)
class TimelineEntry:
    """One control-plane action, for post-hoc inspection.

    Legacy flat view; the structured record behind it is the
    :class:`~repro.obs.events.Event` in
    :attr:`RestorationSimulation.events`.
    """

    time: float
    actor: Node
    action: str
    detail: str = ""


@dataclass
class Demand:
    """A managed demand: its LSP and restoration state."""

    source: Node
    destination: Node
    primary: Path
    lsp_id: int
    locally_patched: bool = False
    source_restored: bool = False


class RestorationSimulation:
    """Hybrid local+source RBPC over a simulated control plane."""

    def __init__(
        self,
        network: MplsNetwork,
        base: BaseSet,
        lsp_registry: dict[Path, int],
        model: FloodingModel = FloodingModel(),
        local_strategy: LocalStrategy = LocalStrategy.EDGE_BYPASS,
        weighted: bool = True,
        *,
        policy=None,
    ) -> None:
        self.network = network
        self.base = base
        self.model = model
        self.local_strategy = local_strategy
        #: The active :class:`~repro.policies.base.RestorationPolicy`,
        #: consulted for its reaction hooks: ``uses_local_patch`` gates
        #: step 2's interim patches, ``uses_source_restore`` gates step
        #: 4's source re-route.  ``None`` (the default) behaves exactly
        #: like the concatenation policy — both hooks on.
        self.policy = policy
        self.queue = EventQueue()
        self.local = LocalRbpc(network, base, lsp_registry, weighted=weighted)
        self.source_scheme = SourceRouterRbpc(network, base, lsp_registry, weighted=weighted)
        self.events = EventLog()
        self.demands: dict[tuple[Node, Node], Demand] = {}
        # Per-router routing processes over private LSDB copies.
        self.routers: dict[Node, SpfRouter] = {
            u: SpfRouter(u, LinkStateDatabase.from_graph(network.graph))
            for u in network.graph.nodes
        }
        self._sequence = 0
        self._down_at: dict[Edge, float] = {}
        # Timestamp ILM mutations (LSP provisioning, local patches,
        # reverts) into the event log as they happen.
        network.set_observer(self._mpls_event)

    # -- demand management -----------------------------------------------------

    def add_demand(self, source: Node, destination: Node) -> Demand:
        """Register a demand riding its pre-provisioned primary LSP."""
        primary = self.base.path_for(source, destination)
        lsp = self.network.find_lsp(primary)
        if lsp is None:
            lsp = self.network.get_lsp(
                self.source_scheme.lsp_registry[primary]
            ) if primary in self.source_scheme.lsp_registry else None
        if lsp is None:
            lsp = self.network.provision_lsp(primary)
            self.source_scheme.lsp_registry[primary] = lsp.lsp_id
        self.network.set_fec(source, destination, [lsp.lsp_id])
        demand = Demand(source, destination, primary, lsp.lsp_id)
        self.demands[(source, destination)] = demand
        return demand

    # -- event scheduling ----------------------------------------------------------

    def schedule_link_failure(self, time: float, u: Node, v: Node) -> None:
        """Schedule link *(u, v)* to fail at *time*."""
        self.queue.schedule(time, lambda: self._link_failed(u, v))

    def schedule_link_recovery(self, time: float, u: Node, v: Node) -> None:
        """Schedule link *(u, v)* to heal at *time*."""
        self.queue.schedule(time, lambda: self._link_recovered(u, v))

    def run_until(self, time: float) -> None:
        """Dispatch all events up to *time*."""
        self.queue.run_until(time)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.queue.now

    # -- observability ---------------------------------------------------------

    @property
    def timeline(self) -> list[TimelineEntry]:
        """The control-plane actions as legacy ``TimelineEntry`` objects.

        Derived from :attr:`events`; the structured log is the source
        of truth (serialize *that*, not this).
        """
        return [
            TimelineEntry(e.time, e.actor, e.kind, e.detail.get("text", ""))
            for e in self.events
            if e.kind in CONTROL_PLANE_KINDS
        ]

    def _emit(self, actor: Any, kind: str, **detail: Any) -> None:
        self.events.emit(self.queue.now, actor, kind, **detail)

    def _mpls_event(self, kind: str, actor: Node, detail: dict[str, Any]) -> None:
        self.events.emit(self.queue.now, actor, kind, **detail)

    # -- data plane probe -------------------------------------------------------------

    def inject(self, source: Node, destination: Node) -> ForwardingResult:
        """Forward one packet through the tables as they stand *now*.

        Each probe lands in the event log as a ``delivery`` event with
        the terminal status and the walk, so the full delivery timeline
        can be reconstructed from the log alone.
        """
        result = self.network.inject(source, destination)
        self._emit(
            source,
            "delivery",
            destination=destination,
            status=result.status.name,
            walk=result.walk,
            hops=result.hops,
        )
        if COUNTERS.observing:
            COUNTERS.counter(f"sim.delivery.{result.status.name.lower()}").inc()
        return result

    # -- internals: failure handling ---------------------------------------------------

    def _link_failed(self, u: Node, v: Node) -> None:
        self.network.fail_link(u, v)
        key = edge_key(u, v)
        self._down_at[key] = self.queue.now
        self._emit("-", "link-down", text=f"{(u, v)}", link=key)
        self.queue.schedule_in(
            self.model.detection_delay, lambda: self._detected(u, v, up=False)
        )

    def _link_recovered(self, u: Node, v: Node) -> None:
        self.network.restore_link(u, v)
        self._emit("-", "link-up", text=f"{(u, v)}", link=edge_key(u, v))
        self.queue.schedule_in(
            self.model.detection_delay, lambda: self._detected(u, v, up=True)
        )

    def _detected(self, u: Node, v: Node, up: bool) -> None:
        self._sequence += 1
        ad = LinkStateAd(
            u, v, self.network.graph.weight(u, v), up=up, sequence=self._sequence
        )
        for detector in (u, v):
            self._emit(
                detector,
                "detected",
                text=f"{(u, v)} {'up' if up else 'down'}",
                link=edge_key(u, v),
                up=up,
            )
            if not up:
                self._apply_local_patches(detector, edge_key(u, v))
            else:
                self._revert_local_patches(detector, edge_key(u, v))
            self._receive_ad(detector, ad)
        if up:
            self._down_at.pop(edge_key(u, v), None)

    def _apply_local_patches(self, router: Node, failed: Edge) -> None:
        if self.policy is not None and not self.policy.uses_local_patch:
            return
        for demand in self.demands.values():
            if demand.locally_patched or demand.source_restored:
                continue
            if not demand.primary.uses_edge(*failed):
                continue
            # Only the upstream-adjacent router owns the patch.
            try:
                if upstream_router(demand.primary, failed) != router:
                    continue
                self.local.patch(demand.lsp_id, failed, strategy=self.local_strategy)
            except NoRestorationPath:
                self._emit(
                    router,
                    "local-patch-failed",
                    text=f"lsp {demand.lsp_id}",
                    lsp_id=demand.lsp_id,
                )
                continue
            demand.locally_patched = True
            self._emit(
                router,
                "local-patch",
                text=f"lsp {demand.lsp_id} around {failed}",
                lsp_id=demand.lsp_id,
                link=failed,
            )
            if COUNTERS.observing:
                down_at = self._down_at.get(failed)
                if down_at is not None:
                    COUNTERS.histogram("sim.local_patch_latency_s").observe(
                        self.queue.now - down_at
                    )

    def _revert_local_patches(self, router: Node, healed: Edge) -> None:
        for demand in self.demands.values():
            if demand.locally_patched and demand.primary.uses_edge(*healed):
                self.local.revert(demand.lsp_id)
                demand.locally_patched = False
                self._emit(
                    router,
                    "local-revert",
                    text=f"lsp {demand.lsp_id}",
                    lsp_id=demand.lsp_id,
                )

    def _receive_ad(self, router: Node, ad: LinkStateAd) -> None:
        changed = self.routers[router].receive(ad)
        if not changed:
            return  # stale or duplicate: do not re-flood
        link = edge_key(ad.u, ad.v)
        self._emit(
            router, "lsa-hop", link=link, up=ad.up, sequence=ad.sequence
        )
        if COUNTERS.observing and not ad.up:
            down_at = self._down_at.get(link)
            if down_at is not None:
                latency = self.queue.now - down_at
                COUNTERS.histogram("sim.flood_learn_latency_s").observe(latency)
                COUNTERS.gauge("sim.flood_convergence_s").set_max(latency)
        # Re-flood to all neighbors over surviving links.
        for neighbor in self.network.operational_view.neighbors(router):
            self.queue.schedule_in(
                self.model.per_hop_delay,
                lambda n=neighbor, a=ad: self._receive_ad(n, a),
            )
        # Sources react spf_delay after learning.
        affected = [
            d for d in self.demands.values()
            if d.source == router and d.primary.uses_edge(ad.u, ad.v)
        ]
        if affected:
            self.queue.schedule_in(
                self.model.spf_delay,
                lambda ads=ad, ds=tuple(affected): self._source_reacts(router, ads, ds),
            )

    def _source_reacts(self, router: Node, ad: LinkStateAd, demands) -> None:
        if self.policy is not None and not self.policy.uses_source_restore:
            return
        for demand in demands:
            if ad.up:
                if demand.source_restored:
                    self.source_scheme.recover(demand.source, demand.destination)
                    demand.source_restored = False
                    self._emit(
                        router,
                        "source-recover",
                        text=f"-> {demand.destination!r}",
                        destination=demand.destination,
                    )
                continue
            try:
                action = self.source_scheme.restore(demand.source, demand.destination)
            except NoRestorationPath:
                self._emit(
                    router,
                    "source-restore-failed",
                    text=f"-> {demand.destination!r}",
                    destination=demand.destination,
                )
                continue
            demand.source_restored = True
            pieces = action.decomposition.num_pieces
            self._emit(
                router,
                "source-restore",
                text=f"-> {demand.destination!r} via {pieces} pieces",
                destination=demand.destination,
                pieces=pieces,
            )
            if COUNTERS.observing:
                down_at = self._down_at.get(edge_key(ad.u, ad.v))
                if down_at is not None:
                    COUNTERS.histogram("sim.source_restore_latency_s").observe(
                        self.queue.now - down_at
                    )
                COUNTERS.histogram(
                    "sim.label_stack_depth", DEPTH_EDGES
                ).observe(pieces)
            # The local patch is superseded; retire it.
            if demand.locally_patched:
                self.local.revert(demand.lsp_id)
                demand.locally_patched = False
