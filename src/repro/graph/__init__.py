"""Graph substrate: CSR container, partitions, category graphs, I/O.

Every graph lives in RAM as one CSR (:class:`Graph`, built by
:class:`GraphBuilder`). :mod:`repro.graph.planes` derives the arrays
observation gathers from it (upper edges, neighbor-category
histograms) in bounded node blocks, and :mod:`repro.graph.storage`
holds the chunk helpers (``chunk_edges``, ``edge_chunks``) that the
generators' edge streams share.
"""

from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.category_graph import CategoryGraph, cut_matrix, true_category_graph
from repro.graph.convert import from_networkx, to_networkx
from repro.graph.io import (
    category_graph_to_json,
    load_npz,
    read_edge_list,
    read_labels,
    save_npz,
    write_edge_list,
    write_labels,
)
from repro.graph.operations import (
    DegreeStats,
    connected_components,
    degree_histogram,
    degree_stats,
    induced_subgraph,
    is_connected,
    largest_component,
)
from repro.graph.partition import CategoryPartition
from repro.graph.storage import chunk_edges, edge_chunks

__all__ = [
    "chunk_edges",
    "edge_chunks",
    "Graph",
    "GraphBuilder",
    "CategoryGraph",
    "CategoryPartition",
    "cut_matrix",
    "true_category_graph",
    "connected_components",
    "is_connected",
    "largest_component",
    "induced_subgraph",
    "degree_histogram",
    "degree_stats",
    "DegreeStats",
    "read_edge_list",
    "write_edge_list",
    "read_labels",
    "write_labels",
    "save_npz",
    "load_npz",
    "category_graph_to_json",
    "to_networkx",
    "from_networkx",
]
