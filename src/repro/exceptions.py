"""Exception hierarchy for the RBPC reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish graph-level problems (missing nodes,
disconnected endpoints) from MPLS-level problems (label exhaustion,
forwarding loops) and restoration-level problems (no surviving path).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Base class for errors raised by :mod:`repro.graph`."""


class NodeNotFound(GraphError):
    """A referenced node does not exist in the graph."""


class EdgeNotFound(GraphError):
    """A referenced edge does not exist in the graph."""


class NoPath(GraphError):
    """Two nodes are not connected (by surviving edges)."""


class InvalidPath(GraphError):
    """A path object is malformed (non-contiguous hops, missing edges)."""


class NegativeWeight(GraphError):
    """An edge weight is negative; Dijkstra-family algorithms reject it."""


class NonFiniteWeight(GraphError, ValueError):
    """An edge weight is NaN or infinite.

    Such a weight has no place in a shortest-path order: the dict and
    CSR searches would disagree on whether an ``inf`` edge is usable,
    and NaN compares false against everything.
    """


class MPLSError(ReproError):
    """Base class for errors raised by :mod:`repro.mpls`."""


class LabelSpaceExhausted(MPLSError):
    """A router ran out of labels in its label space."""


class LabelNotFound(MPLSError):
    """An incoming label has no ILM entry at the router that received it."""


class ForwardingLoop(MPLSError):
    """A packet revisited a (router, label-stack) state while forwarding."""


class TTLExpired(MPLSError):
    """A packet exceeded its TTL before reaching its destination."""


class LSPNotFound(MPLSError):
    """A referenced LSP is not provisioned in the MPLS domain."""


class SignalingError(MPLSError):
    """LDP-like signaling failed (e.g. setup across a failed link)."""


class RestorationError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class DecompositionError(RestorationError):
    """A path could not be decomposed into base paths (and edges)."""


class NoRestorationPath(RestorationError):
    """No surviving path exists between the endpoints after the failures."""


class RoutingError(ReproError):
    """Base class for errors raised by :mod:`repro.routing`."""


class TopologyError(ReproError):
    """Base class for errors raised by :mod:`repro.topology` generators."""
