"""Bridges between :class:`repro.graph.adjacency.Graph` and NetworkX.

NetworkX is used only at the edges of the library (interoperability and
cross-checking in tests); all hot paths run on the CSR container.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.partition import CategoryPartition

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "from_networkx"]


def to_networkx(
    graph: Graph, partition: CategoryPartition | None = None
) -> nx.Graph:
    """Convert to an ``nx.Graph``; category names go to a ``category``
    node attribute when a partition is given."""
    import networkx as nx  # deferred: costs ~0.2 s to import

    out = nx.Graph()
    out.add_nodes_from(range(graph.num_nodes))
    out.add_edges_from(map(tuple, graph.edge_array()))
    if partition is not None:
        if partition.num_nodes != graph.num_nodes:
            raise GraphError(
                "partition node count does not match graph node count"
            )
        names = partition.names
        nx.set_node_attributes(
            out,
            {v: names[c] for v, c in enumerate(partition.labels)},
            name="category",
        )
    return out


def from_networkx(nx_graph: nx.Graph) -> tuple[Graph, CategoryPartition | None]:
    """Convert from an ``nx.Graph``.

    Nodes are relabelled ``0..N-1`` in sorted order when possible, else
    in insertion order. If every node carries a ``category`` attribute, a
    partition is reconstructed from it. Self-loops are dropped.
    """
    import networkx as nx

    if nx_graph.is_directed() or nx_graph.is_multigraph():
        raise GraphError("only simple undirected NetworkX graphs are supported")
    nodes = list(nx_graph.nodes())
    try:
        nodes = sorted(nodes)
    except TypeError:
        pass  # mixed-type node labels: keep insertion order
    index = {node: i for i, node in enumerate(nodes)}
    edges = [
        (index[u], index[v]) for u, v in nx_graph.edges() if u != v
    ]
    graph = Graph.from_edges(
        len(nodes), np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    )
    categories = nx.get_node_attributes(nx_graph, "category")
    partition = None
    if categories and len(categories) == len(nodes):
        mapping = {index[node]: str(cat) for node, cat in categories.items()}
        partition = CategoryPartition.from_mapping(len(nodes), mapping)
    return graph, partition
