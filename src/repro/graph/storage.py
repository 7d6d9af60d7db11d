"""Chunk helpers shared by the graph builders and edge generators.

:data:`DEFAULT_CHUNK_ARCS` bounds the in-RAM blocks that the generators'
``emit_*_arcs`` streams, the chunked plane builders of
:mod:`repro.graph.planes` and observation's upper-edge gathers work in;
:func:`unique_keys` is the sort-based dedup of canonical edge keys that
:class:`~repro.graph.builder.GraphBuilder` runs.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import StorageError

__all__ = ["DEFAULT_CHUNK_ARCS", "chunk_edges", "edge_chunks", "unique_keys"]

#: Default arcs per in-RAM block of the chunked builders and streams.
DEFAULT_CHUNK_ARCS = 1 << 20


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for an int64 key array, sorting ``keys`` in place.

    One sort plus an adjacent-difference mask; NumPy 2.x's hash-based
    ``np.unique`` is tens of times slower on large integer arrays.
    """
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def chunk_edges(edges: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield ``edges`` re-sliced into blocks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise StorageError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, len(edges), chunk_size):
        yield edges[start : start + chunk_size]


def edge_chunks(
    graph, chunk_size: int = DEFAULT_CHUNK_ARCS
) -> Iterator[np.ndarray]:
    """Stream a graph's undirected edges (``u < v``) in bounded blocks.

    ``(m, 2)`` windows of
    :attr:`~repro.graph.adjacency.Graph.upper_edges`, ``chunk_size``
    edges at a time.
    """
    if chunk_size < 1:
        raise StorageError(f"chunk_size must be >= 1, got {chunk_size}")
    upper = graph.upper_edges
    for start in range(0, upper.shape[1], chunk_size):
        yield np.ascontiguousarray(
            upper[:, start : start + chunk_size].T, dtype=np.int64
        )
