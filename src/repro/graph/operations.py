"""Structural operations on :class:`~repro.graph.adjacency.Graph`.

Connected components, induced subgraphs, degree statistics, and the
connectivity checks and bridges that random-walk samplers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.planes import derived_upper_edges
from repro.graph.storage import edge_chunks

__all__ = [
    "bridge_components",
    "bridge_edges",
    "connected_components",
    "is_connected",
    "largest_component",
    "induced_subgraph",
    "degree_histogram",
    "DegreeStats",
    "degree_stats",
]


def connected_components(graph: Graph) -> np.ndarray:
    """Component id per node, numbered in order of each component's
    smallest node (ids are ``0..num_components-1``).

    Min-label hooking plus pointer jumping over the int32 upper-edge
    plane: each round hooks every root under the smallest root it shares
    an edge with, then flattens the trees to stars, so each root is the
    smallest node of its tree.
    """
    n = graph.num_nodes
    # Not graph.upper_edges: a plane cached here would ride the graph's
    # pickle.
    src, dst = derived_upper_edges(graph.indptr, graph.indices)
    parent = np.arange(n, dtype=np.int64)
    while True:
        root_src, root_dst = parent[src], parent[dst]
        cross = root_src != root_dst
        if not cross.any():
            break
        # Edges inside one star never cross again; drop them.
        src, dst = src[cross], dst[cross]
        root_src, root_dst = root_src[cross], root_dst[cross]
        # Hooking both ways hooks the larger root under the smaller: a
        # root's parent is at most itself, so the other way is a no-op.
        np.minimum.at(parent, root_src, root_dst)
        np.minimum.at(parent, root_dst, root_src)
        while not np.array_equal(parent, grand := parent[parent]):
            parent = grand
    roots = parent == np.arange(n)
    return (np.cumsum(roots) - 1)[parent]


def bridge_edges(graph: Graph, gen: np.random.Generator) -> np.ndarray:
    """One random edge from each stray component to the giant one; in
    component id order, one draw picks its endpoint, then one the giant's."""
    comp = connected_components(graph)
    num_components = int(comp.max()) + 1 if len(comp) else 0
    if num_components <= 1:
        return np.empty((0, 2), dtype=np.int64)
    counts = np.bincount(comp)
    giant = int(np.argmax(counts))
    # Members of component c, ascending: members[starts[c]:starts[c + 1]].
    members = np.argsort(comp, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    giant_nodes = members[starts[giant] : starts[giant + 1]]
    extra = []
    for c in range(num_components):
        if c == giant:
            continue
        u = int(members[starts[c] + gen.integers(0, int(counts[c]))])
        v = int(giant_nodes[gen.integers(0, len(giant_nodes))])
        extra.append((u, v))
    return np.asarray(extra, dtype=np.int64)


def bridge_components(graph: Graph, gen: np.random.Generator) -> Graph:
    """``graph`` plus the :func:`bridge_edges` that make it connected."""
    extra = bridge_edges(graph, gen)
    if not len(extra):
        return graph
    builder = GraphBuilder(graph.num_nodes)
    # Re-add the edges in bounded windows, not one O(|E|) edge_array, so
    # no whole pair array exists beside the builder's keys.
    for chunk in edge_chunks(graph):
        builder.add_edges(chunk)
    builder.add_edges(extra)
    return builder.build()


def is_connected(graph: Graph) -> bool:
    """True when the graph has exactly one connected component.

    The empty graph is considered connected (vacuously).
    """
    if graph.num_nodes == 0:
        return True
    comp = connected_components(graph)
    return int(comp.max()) == 0


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest component.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
    id in ``graph`` of node ``i`` in the subgraph.
    """
    if graph.num_nodes == 0:
        return graph, np.empty(0, dtype=np.int64)
    comp = connected_components(graph)
    counts = np.bincount(comp)
    keep = np.flatnonzero(comp == int(np.argmax(counts)))
    return induced_subgraph(graph, keep), keep


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> Graph:
    """Subgraph induced on ``nodes``; ids are compacted to ``0..len-1``.

    ``nodes`` must be unique. The mapping follows the order of ``nodes``.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    ordered = np.sort(nodes)
    if np.any(ordered[1:] == ordered[:-1]):
        raise GraphError("induced_subgraph requires unique node ids")
    if len(nodes) and (nodes.min() < 0 or nodes.max() >= graph.num_nodes):
        raise GraphError("induced_subgraph received ids outside the graph")
    remap = np.full(graph.num_nodes, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    u, v = remap[graph.upper_edges]
    kept = (u >= 0) & (v >= 0)
    return Graph.from_edges(len(nodes), np.column_stack((u[kept], v[kept])))


def degree_histogram(graph: Graph) -> np.ndarray:
    """``hist[d]`` = number of nodes with degree ``d``."""
    degs = graph.degrees()
    if len(degs) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs)


@dataclass(frozen=True)
class DegreeStats:
    """Summary degree statistics of a graph."""

    mean: float
    median: float
    minimum: int
    maximum: int
    std: float

    def __str__(self) -> str:
        return (
            f"degree mean={self.mean:.2f} median={self.median:.1f} "
            f"min={self.minimum} max={self.maximum} std={self.std:.2f}"
        )


def degree_stats(graph: Graph) -> DegreeStats:
    """Compute :class:`DegreeStats`; raises on the empty graph."""
    degs = graph.degrees()
    if len(degs) == 0:
        raise GraphError("degree_stats is undefined for the empty graph")
    return DegreeStats(
        mean=float(degs.mean()),
        median=float(np.median(degs)),
        minimum=int(degs.min()),
        maximum=int(degs.max()),
        std=float(degs.std()),
    )
