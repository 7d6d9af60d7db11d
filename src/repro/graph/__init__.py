"""Graph substrate: CSR container, partitions, category graphs, I/O.

The out-of-core storage plane lives in :mod:`repro.graph.storage`:
``save_csr``/``open_csr`` persist and map CSR planes on disk,
``StreamingCSRBuilder`` builds them from bounded edge chunks, and the
``graph_storage("memmap")`` scope (or ``REPRO_GRAPH_STORAGE=memmap``)
reroutes every :class:`GraphBuilder` through it.
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
from repro.graph.planes import (
    DerivedPlaneStore,
    PlaneWriter,
    clear_plane_memo,
    plane_store_at,
    plane_store_for,
    source_fingerprint,
)
from repro.graph.storage import (
    MemmapCSR,
    StreamingCSRBuilder,
    active_storage_mode,
    chunk_edges,
    edge_chunks,
    graph_storage,
    open_csr,
    save_csr,
    storage_root,
    stream_graph,
)

__all__ = [
    "DerivedPlaneStore",
    "MemmapCSR",
    "PlaneWriter",
    "StreamingCSRBuilder",
    "clear_plane_memo",
    "plane_store_at",
    "plane_store_for",
    "source_fingerprint",
    "active_storage_mode",
    "chunk_edges",
    "edge_chunks",
    "graph_storage",
    "open_csr",
    "save_csr",
    "storage_root",
    "stream_graph",
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
