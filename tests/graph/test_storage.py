"""Chunk helpers of :mod:`repro.graph.storage`."""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.storage import edge_chunks


def _random_edges(n, m, seed):
    gen = np.random.default_rng(seed)
    edges = gen.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]].astype(np.int64)


def _graphs_equal(a, b):
    return np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr)) and (
        np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
    )


def test_edge_chunks_round_trip():
    edges = _random_edges(50, 300, 10)
    graph = Graph.from_edges(50, edges)
    rebuilt = Graph.from_edges(
        50, np.concatenate(list(edge_chunks(graph, chunk_size=13)))
    )
    assert _graphs_equal(rebuilt, graph)
