"""Save and load topologies as plain-text edge lists.

Format (one record per line, ``#`` comments allowed)::

    # directed: false
    u v 1.5

Node tokens are stored with ``repr`` and parsed back with
``ast.literal_eval``, so tuple node names like ``("core", 3)`` survive a
round trip.  The format is deliberately trivial — the point is only
that generated topologies can be pinned to disk so an experiment run is
exactly repeatable and shareable.
"""

from __future__ import annotations

import ast
from pathlib import Path as FilePath
from typing import Union

from ..exceptions import NegativeWeight, NonFiniteWeight, TopologyError
from ..graph.graph import DiGraph, Graph


def save_edgelist(graph, path: Union[str, FilePath]) -> None:
    """Write *graph* to *path* in the edge-list format."""
    path = FilePath(path)
    lines = [f"# directed: {str(bool(graph.directed)).lower()}"]
    for u, v, w in graph.weighted_edges():
        lines.append(f"{u!r}\t{v!r}\t{w!r}")
    path.write_text("\n".join(lines) + "\n")


def load_edgelist(path: Union[str, FilePath]) -> Graph:
    """Read a graph written by :func:`save_edgelist`."""
    path = FilePath(path)
    directed = False
    edges: list[tuple] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip().lower()
            if body.startswith("directed:"):
                directed = body.split(":", 1)[1].strip() == "true"
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise TopologyError(f"{path}:{lineno}: expected 'u<TAB>v<TAB>w', got {raw!r}")
        try:
            u = ast.literal_eval(parts[0])
            v = ast.literal_eval(parts[1])
            w = float(ast.literal_eval(parts[2]))
        except (ValueError, SyntaxError) as exc:
            raise TopologyError(f"{path}:{lineno}: unparsable record {raw!r}") from exc
        edges.append((lineno, u, v, w))
    graph = DiGraph() if directed else Graph()
    for lineno, u, v, w in edges:
        try:
            graph.add_edge(u, v, weight=w)
        except (NegativeWeight, NonFiniteWeight) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return graph
