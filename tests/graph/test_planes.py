"""Chunked plane builders (:mod:`repro.graph.planes`).

Every builder fills its planes one :func:`node_blocks` block of whole
adjacency runs at a time, and must produce the exact bytes of the
one-shot derivation at any chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.planes import (
    derived_neighbor_histogram,
    derived_upper_edges,
    node_blocks,
)

#: Chunk sizes every builder equivalence test sweeps — tiny (every run
#: its own block), awkward (runs straddle candidates), and huge (one
#: block, the one-shot layout).
CHUNKS = (1, 2, 3, 7, 64, 1 << 20)


def _random_edges(n, m, seed):
    gen = np.random.default_rng(seed)
    edges = gen.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]].astype(np.int64)


def test_node_blocks_cover_whole_runs():
    indptr = np.array([0, 3, 3, 10, 11, 20], dtype=np.int64)
    for chunk in CHUNKS:
        blocks = list(node_blocks(indptr, chunk))
        # Contiguous, exhaustive, and at least one node per block.
        assert blocks[0][0] == 0 and blocks[-1][1] == 5
        for (a, b, lo, hi), (a2, _, lo2, _) in zip(blocks, blocks[1:]):
            assert b == a2 and hi == lo2
        for a, b, lo, hi in blocks:
            assert b > a
            assert lo == int(indptr[a]) and hi == int(indptr[b])


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_observation_planes_match_one_shot(chunk):
    # Isolated nodes (the edges reach 40 of 48) and a hub whose run is a
    # block of its own at small chunks.
    edges = _random_edges(40, 90, 9)
    edges = np.concatenate((edges, [[0, v] for v in range(1, 30)]))
    graph = Graph.from_edges(48, edges)
    labels = np.random.default_rng(9).integers(0, 6, size=48)
    keys = graph.arc_sources * 6 + labels[graph.indices]
    unique, counts = np.unique(keys, return_counts=True)
    upper_edges = derived_upper_edges(graph.indptr, graph.indices, chunk)
    indptr, categories, plane_counts = derived_neighbor_histogram(
        labels, 6, graph.indptr, graph.indices, chunk
    )
    assert np.array_equal(upper_edges, graph.edge_array().T)
    assert np.array_equal(indptr, np.searchsorted(unique // 6, np.arange(49)))
    assert np.array_equal(categories, unique % 6)
    assert np.array_equal(plane_counts, counts)
    # Compact dtypes follow the values, never the chunking.
    assert [
        plane.dtype.str for plane in (upper_edges, indptr, categories, plane_counts)
    ] == ["<i4", "<i4", "|u1", "|u1"]
