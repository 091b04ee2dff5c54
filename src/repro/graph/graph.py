"""Core graph data structures for the RBPC reproduction.

The paper works with undirected communication graphs with symmetric
weights (Section 3, Remark), and uses a directed example only as a
counterexample (Figure 5).  We therefore provide:

* :class:`Graph` — undirected, weighted, simple graph.
* :class:`DiGraph` — directed, weighted, simple graph (used by the
  Figure 5 counterexample and by directed base-path experiments).
* :class:`FilteredView` — a zero-copy "graph minus failed edges/nodes"
  view, which is how every failure scenario is expressed.  Removing `k`
  edges from a 40,000-node Internet graph must not copy the graph.

All three expose the small *adjacency protocol* consumed by the
shortest-path algorithms in :mod:`repro.graph.shortest_paths`:

``nodes`` (property), ``has_node(u)``, ``adjacency(u)`` yielding
``(neighbor, weight)`` pairs, and ``number_of_nodes()``.

Nodes may be any hashable objects.  Edges of an undirected graph are
canonicalized with :func:`edge_key` so that ``(u, v)`` and ``(v, u)``
denote the same edge everywhere in the library (failure sets, ILM
indices, FEC update tables).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator

from ..exceptions import (
    EdgeNotFound,
    NegativeWeight,
    NodeNotFound,
    NonFiniteWeight,
)

Node = Hashable
Edge = tuple[Node, Node]


def edge_key(u: Node, v: Node) -> Edge:
    """Return the canonical (order-independent) key for undirected edge *(u, v)*.

    Endpoints are sorted when mutually comparable; otherwise a stable
    fallback on ``(type name, repr)`` is used so mixed node types still
    canonicalize deterministically.

    >>> edge_key(2, 1)
    (1, 2)
    >>> edge_key("b", "a")
    ('a', 'b')
    """
    try:
        if u <= v:  # type: ignore[operator]
            return (u, v)
        return (v, u)
    except TypeError:
        if (type(u).__name__, repr(u)) <= (type(v).__name__, repr(v)):
            return (u, v)
        return (v, u)


def check_weight(u: Node, v: Node, weight: float) -> None:
    """Reject an edge weight the shortest-path kernels cannot order.

    The one validation point for edge weights: both graph classes'
    ``add_edge`` (and so every generator and the edge-list loader) go
    through it.  Raises :class:`~repro.exceptions.NonFiniteWeight` for
    NaN and ±inf, :class:`~repro.exceptions.NegativeWeight` for the
    remaining negative weights.
    """
    if not math.isfinite(weight):
        raise NonFiniteWeight(f"non-finite weight {weight!r} on edge ({u!r}, {v!r})")
    if weight < 0:
        raise NegativeWeight(f"negative weight {weight!r} on edge ({u!r}, {v!r})")


class Graph:
    """Undirected, weighted, simple graph.

    Weights default to ``1.0``; an *unweighted* graph in the paper's sense
    is simply a graph whose weights are all 1.  Negative weights are
    rejected on insertion because every algorithm in this library is from
    the Dijkstra family.

    >>> g = Graph()
    >>> g.add_edge("a", "b", weight=2.5)
    >>> g.weight("b", "a")
    2.5
    >>> sorted(g.neighbors("a"))
    ['b']
    """

    directed = False

    # __weakref__ lets the shared base-set/oracle cache key entries by
    # graph identity without pinning graphs in memory (repro.core.cache).
    __slots__ = ("_adj", "_num_edges", "_version", "__weakref__")

    def __init__(self) -> None:
        self._adj: dict[Node, dict[Node, float]] = {}
        self._num_edges = 0
        self._version = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple], default_weight: float = 1.0
    ) -> "Graph":
        """Build a graph from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        graph = cls()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                graph.add_edge(u, v, weight=default_weight)
            else:
                u, v, w = edge
                graph.add_edge(u, v, weight=w)
        return graph

    def add_node(self, u: Node) -> None:
        """Add node *u* (a no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = {}
            self._version += 1

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or re-weight) the undirected edge *(u, v)*.

        Self-loops are rejected: they can never lie on a shortest path and
        would complicate the restoration bookkeeping for no benefit.
        """
        if u == v:
            raise ValueError(f"self-loops are not supported: {u!r}")
        check_weight(u, v, weight)
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge *(u, v)*; raises :class:`EdgeNotFound` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFound(f"no edge ({u!r}, {v!r})")
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_node(self, u: Node) -> None:
        """Remove node *u* and all incident edges."""
        if u not in self._adj:
            raise NodeNotFound(f"no node {u!r}")
        for v in list(self._adj[u]):
            self.remove_edge(u, v)
        del self._adj[u]
        self._version += 1

    # -- queries -----------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter — bumped by every structural/weight change.

        Derived snapshots (e.g. the CSR interning cache in
        :mod:`repro.graph.csr`) compare this to detect staleness in O(1)
        instead of re-hashing the adjacency structure.
        """
        return self._version

    @property
    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._adj)

    def has_node(self, u: Node) -> bool:
        """True if *u* is a (surviving) node."""
        return u in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if *(u, v)* is a (surviving) edge."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, u: Node) -> Iterator[Node]:
        """Iterate over the neighbors of *u*."""
        if u not in self._adj:
            raise NodeNotFound(f"no node {u!r}")
        return iter(self._adj[u])

    def adjacency(self, u: Node) -> Iterator[tuple[Node, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of *u* (the protocol)."""
        if u not in self._adj:
            raise NodeNotFound(f"no node {u!r}")
        return iter(self._adj[u].items())

    def weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge *(u, v)*; raises :class:`EdgeNotFound`."""
        if not self.has_edge(u, v):
            raise EdgeNotFound(f"no edge ({u!r}, {v!r})")
        return self._adj[u][v]

    def degree(self, u: Node) -> int:
        """Number of (surviving) incident edges of *u*."""
        if u not in self._adj:
            raise NodeNotFound(f"no node {u!r}")
        return len(self._adj[u])

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical edges, each undirected edge exactly once."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def weighted_edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over ``(u, v, weight)`` with canonical edge order."""
        for u, v in self.edges():
            yield u, v, self._adj[u][v]

    def number_of_nodes(self) -> int:
        """Count of (surviving) nodes."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Count of (surviving) edges."""
        return self._num_edges

    def average_degree(self) -> float:
        """Average node degree, ``2m / n`` (0.0 for the empty graph)."""
        n = self.number_of_nodes()
        if n == 0:
            return 0.0
        return 2.0 * self._num_edges / n

    def is_unweighted(self) -> bool:
        """True if every edge has weight exactly 1 (the paper's unweighted case)."""
        return all(w == 1.0 for _, _, w in self.weighted_edges())

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        other = type(self)()
        other._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        other._num_edges = self._num_edges
        return other

    def without(
        self,
        edges: Iterable[Edge] = (),
        nodes: Iterable[Node] = (),
    ) -> "FilteredView":
        """Return a zero-copy view of this graph minus *edges* and *nodes*.

        This is the library's representation of a failure scenario:
        ``g.without(edges=[(u, v)])`` is the graph :math:`G' = (V, E - E_k)`
        of Theorem 1.
        """
        return FilteredView(self, failed_edges=edges, failed_nodes=nodes)

    def __contains__(self, u: Node) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} n={self.number_of_nodes()} "
            f"m={self.number_of_edges()}>"
        )


class DiGraph(Graph):
    """Directed, weighted, simple graph.

    Shares the adjacency protocol with :class:`Graph`; ``adjacency(u)``
    yields out-neighbors only.  Used for the Figure 5 counterexample and
    for experiments with directed base paths (Section 3, Remark).
    """

    directed = True

    __slots__ = ("_pred",)

    def __init__(self) -> None:
        super().__init__()
        self._pred: dict[Node, dict[Node, float]] = {}

    def add_node(self, u: Node) -> None:
        """Add node *u* (no-op if present)."""
        if u not in self._adj:
            self._adj[u] = {}
            self._pred[u] = {}
            self._version += 1

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or re-weight) the directed edge *u → v*."""
        if u == v:
            raise ValueError(f"self-loops are not supported: {u!r}")
        check_weight(u, v, weight)
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._pred[v][u] = weight
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge; raises EdgeNotFound if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFound(f"no edge ({u!r} -> {v!r})")
        del self._adj[u][v]
        del self._pred[v][u]
        self._num_edges -= 1
        self._version += 1

    def remove_node(self, u: Node) -> None:
        """Remove node *u* and all incident edges."""
        if u not in self._adj:
            raise NodeNotFound(f"no node {u!r}")
        for v in list(self._adj[u]):
            self.remove_edge(u, v)
        for w in list(self._pred[u]):
            self.remove_edge(w, u)
        del self._adj[u]
        del self._pred[u]
        self._version += 1

    def predecessors(self, u: Node) -> Iterator[Node]:
        """Iterate over in-neighbors of *u*."""
        if u not in self._pred:
            raise NodeNotFound(f"no node {u!r}")
        return iter(self._pred[u])

    def in_degree(self, u: Node) -> int:
        """Number of incoming arcs of *u*."""
        if u not in self._pred:
            raise NodeNotFound(f"no node {u!r}")
        return len(self._pred[u])

    def out_degree(self, u: Node) -> int:
        """Number of outgoing arcs of *u*."""
        return super().degree(u)

    def degree(self, u: Node) -> int:
        """Number of (surviving) incident edges of *u*."""
        return self.in_degree(u) + self.out_degree(u)

    def edges(self) -> Iterator[Edge]:
        """Iterate over directed edges ``(u, v)`` (tail, head)."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                yield (u, v)

    def average_degree(self) -> float:
        """Average total degree, ``2m / n`` — counts each arc at both ends."""
        n = self.number_of_nodes()
        if n == 0:
            return 0.0
        return 2.0 * self._num_edges / n

    def copy(self) -> "DiGraph":
        """Independent deep copy of the adjacency structure."""
        other = type(self)()
        other._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        other._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        other._num_edges = self._num_edges
        return other


class FilteredView:
    """Zero-copy view of a graph with some edges and/or nodes failed.

    The view exposes the same adjacency protocol as :class:`Graph`, so
    every algorithm in the library runs on it unchanged.  Edge exclusion
    is direction-insensitive for undirected underlying graphs (a failed
    link kills both directions) and direction-sensitive for
    :class:`DiGraph`.

    >>> g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
    >>> view = g.without(edges=[(1, 3)])
    >>> sorted(view.neighbors(1))
    [2]
    """

    __slots__ = ("_base", "_failed_edges", "_failed_nodes", "directed")

    def __init__(
        self,
        base: Graph,
        failed_edges: Iterable[Edge] = (),
        failed_nodes: Iterable[Node] = (),
    ) -> None:
        self._base = base
        self.directed = base.directed
        if base.directed:
            self._failed_edges = set(failed_edges)
        else:
            self._failed_edges = {edge_key(u, v) for u, v in failed_edges}
        self._failed_nodes = set(failed_nodes)

    @property
    def base(self) -> Graph:
        """The underlying (pre-failure) graph."""
        return self._base

    @property
    def failed_edges(self) -> frozenset[Edge]:
        """The view's excluded edges (canonical keys)."""
        return frozenset(self._failed_edges)

    @property
    def failed_nodes(self) -> frozenset[Node]:
        """The view's excluded nodes."""
        return frozenset(self._failed_nodes)

    def _edge_failed(self, u: Node, v: Node) -> bool:
        if self.directed:
            return (u, v) in self._failed_edges
        return edge_key(u, v) in self._failed_edges

    @property
    def nodes(self) -> Iterator[Node]:
        """Iterate over (surviving) nodes."""
        return (u for u in self._base.nodes if u not in self._failed_nodes)

    def has_node(self, u: Node) -> bool:
        """True if *u* is a (surviving) node."""
        return u not in self._failed_nodes and self._base.has_node(u)

    def has_edge(self, u: Node, v: Node) -> bool:
        """True if *(u, v)* is a (surviving) edge."""
        if u in self._failed_nodes or v in self._failed_nodes:
            return False
        return self._base.has_edge(u, v) and not self._edge_failed(u, v)

    def neighbors(self, u: Node) -> Iterator[Node]:
        """Iterate over (surviving) neighbors of *u*."""
        if u in self._failed_nodes:
            raise NodeNotFound(f"node {u!r} has failed")
        return (
            v
            for v in self._base.neighbors(u)
            if v not in self._failed_nodes and not self._edge_failed(u, v)
        )

    def adjacency(self, u: Node) -> Iterator[tuple[Node, float]]:
        """Iterate over (neighbor, weight) pairs of *u*."""
        if u in self._failed_nodes:
            raise NodeNotFound(f"node {u!r} has failed")
        return (
            (v, w)
            for v, w in self._base.adjacency(u)
            if v not in self._failed_nodes and not self._edge_failed(u, v)
        )

    def weight(self, u: Node, v: Node) -> float:
        """Weight of edge *(u, v)*; raises EdgeNotFound."""
        if not self.has_edge(u, v):
            raise EdgeNotFound(f"no surviving edge ({u!r}, {v!r})")
        return self._base.weight(u, v)

    def degree(self, u: Node) -> int:
        """Number of (surviving) incident edges of *u*."""
        return sum(1 for _ in self.neighbors(u))

    def edges(self) -> Iterator[Edge]:
        """Iterate over (surviving) edges."""
        for u, v in self._base.edges():
            if self.has_edge(u, v):
                yield (u, v)

    def weighted_edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over (u, v, weight) triples."""
        for u, v in self.edges():
            yield u, v, self._base.weight(u, v)

    def number_of_nodes(self) -> int:
        """Count of (surviving) nodes."""
        return sum(1 for _ in self.nodes)

    def number_of_edges(self) -> int:
        """Count of (surviving) edges."""
        return sum(1 for _ in self.edges())

    def without(
        self,
        edges: Iterable[Edge] = (),
        nodes: Iterable[Node] = (),
    ) -> "FilteredView":
        """Stack further failures on top of this view (still zero-copy)."""
        if self.directed:
            more_edges = set(edges)
        else:
            more_edges = {edge_key(u, v) for u, v in edges}
        view = FilteredView(self._base)
        view._failed_edges = self._failed_edges | more_edges
        view._failed_nodes = self._failed_nodes | set(nodes)
        return view

    def __contains__(self, u: Node) -> bool:
        return self.has_node(u)

    def __repr__(self) -> str:
        return (
            f"<FilteredView of {self._base!r} "
            f"-{len(self._failed_edges)} edges -{len(self._failed_nodes)} nodes>"
        )
