"""Planes derived from a CSR graph, built in bounded node blocks.

Each derivation is a chunked builder: it receives a writer whose
``create(name, dtype, shape)`` hands out a zeroed output array, and
fills it one :func:`node_blocks` block of whole adjacency runs at a
time, so its scratch memory is bounded by ``chunk_arcs`` rather than
the graph. Because runs never straddle a block boundary, every builder
is bit-identical to its one-shot twin at any chunk size. The
``derived_*`` functions run a builder and return its planes: the
upper-edge list that induced observation, ``induced_subgraph`` and
``connected_components`` read, and the neighbor-category histogram
that star observation gathers.
"""

from __future__ import annotations

from collections.abc import Iterator
from types import SimpleNamespace

import numpy as np

from repro.exceptions import StorageError
from repro.graph.storage import DEFAULT_CHUNK_ARCS

__all__ = [
    "build_neighbor_histogram",
    "build_upper_edges",
    "derived_arc_sources",
    "derived_neighbor_histogram",
    "derived_upper_edges",
    "node_blocks",
]


def node_blocks(
    indptr: np.ndarray, chunk_arcs: int = DEFAULT_CHUNK_ARCS
) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(first, stop, lo, hi)`` node ranges of ≤ ``chunk_arcs`` arcs.

    Whole adjacency runs only — every chunked builder in this family is
    bit-identical to its one-shot twin *because* runs never straddle a
    block boundary. A run longer than ``chunk_arcs`` gets a block of its
    own (at least one node always advances).
    """
    if chunk_arcs < 1:
        raise StorageError(f"chunk_arcs must be >= 1, got {chunk_arcs}")
    n = len(indptr) - 1
    node = 0
    while node < n:
        stop = (
            int(np.searchsorted(indptr, int(indptr[node]) + chunk_arcs, "right"))
            - 1
        )
        stop = min(max(stop, node + 1), n)
        yield node, stop, int(indptr[node]), int(indptr[stop])
        node = stop


def derived_arc_sources(indptr: np.ndarray) -> np.ndarray:
    """Source node of every arc for ``indptr``: ``repeat(arange(N), degrees)``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _derive(build) -> dict:
    """Run a chunked ``build(writer)`` against a writer of zeroed RAM
    arrays and return the ``{name: array}`` planes it created."""
    planes: dict[str, np.ndarray] = {}
    build(SimpleNamespace(create=lambda plane, dtype, shape: planes.setdefault(
        plane, np.zeros(shape, dtype=dtype)
    )))
    return planes


def build_upper_edges(writer, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS) -> None:
    """The ``(2, |E|)`` plane of ``u < v`` edges in CSR order (row 0 is
    ``u``, row 1 ``v``), int32 when the node ids fit."""
    dtype = np.int32 if len(indptr) <= 2**31 else np.int64
    out = writer.create("upper_edges", dtype, (2, len(indices) // 2))
    at = 0
    for first, stop, lo, hi in node_blocks(indptr, chunk_arcs):
        sources = np.repeat(
            np.arange(first, stop), np.diff(np.asarray(indptr[first : stop + 1]))
        )
        targets = np.asarray(indices[lo:hi])
        upper = sources < targets
        count = int(np.count_nonzero(upper))
        out[:, at : at + count] = sources[upper], targets[upper]
        at += count


def derived_upper_edges(indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS) -> np.ndarray:
    """The upper-edge plane of a simple undirected CSR."""
    planes = _derive(
        lambda writer: build_upper_edges(writer, indptr, indices, chunk_arcs)
    )
    return planes["upper_edges"]


def _histogram_block(labels, num_categories, indptr, indices, block):
    """Block-local ``(rows, categories, counts)`` of the neighbor histogram:
    sorted ``row * C + label`` keys, one entry per run of equal keys."""
    first, stop, lo, hi = block
    keys = np.repeat(
        np.arange(stop - first, dtype=np.int64) * num_categories,
        np.diff(np.asarray(indptr[first : stop + 1])),
    )
    keys += labels[np.asarray(indices[lo:hi])]
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    rows, categories = np.divmod(keys[starts], num_categories)
    return rows, categories, np.diff(starts, append=len(keys))


def build_neighbor_histogram(
    writer, labels, num_categories, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS
) -> None:
    """Every node's neighbor-category histogram, as a CSR of planes.

    Node ``v``'s neighbors fall in ``categories[indptr[v]:indptr[v+1]]``
    (ascending) with multiplicities ``counts[...]``; each plane takes
    the smallest dtype that holds its values. A first pass over the
    node blocks sizes the rows and a second fills them; a graph that
    is one block is histogrammed once.
    """
    graph = (np.asarray(labels), num_categories, indptr, indices)
    blocks = list(node_blocks(indptr, chunk_arcs))
    out_indptr = writer.create(
        "indptr", np.int32 if len(indices) < 2**31 else np.int64, len(indptr)
    )
    max_count = 0
    for block in blocks:
        first, stop = block[:2]
        rows, _, counts = result = _histogram_block(*graph, block)
        out_indptr[first + 1 : stop + 1] = int(out_indptr[first]) + np.cumsum(
            np.bincount(rows, minlength=stop - first)
        )
        max_count = max(max_count, int(counts.max(initial=0)))
    total = int(out_indptr[-1])
    categories = writer.create(
        "categories", np.min_scalar_type(max(num_categories - 1, 0)), total
    )
    counts = writer.create("counts", np.min_scalar_type(max_count), total)
    for block in blocks:
        if len(blocks) > 1:
            result = _histogram_block(*graph, block)
        lo, hi = int(out_indptr[block[0]]), int(out_indptr[block[1]])
        categories[lo:hi], counts[lo:hi] = result[1:]


def derived_neighbor_histogram(
    labels, num_categories, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, categories, counts)`` of the neighbor histogram."""
    planes = _derive(
        lambda writer: build_neighbor_histogram(
            writer, labels, num_categories, indptr, indices, chunk_arcs
        )
    )
    return planes["indptr"], planes["categories"], planes["counts"]
