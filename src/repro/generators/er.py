"""Erdos-Renyi random graphs: G(n, p) and G(n, m).

Each generator has two faces sharing one RNG trace: the classic
``gnp``/``gnm`` returning a built :class:`Graph`, and a chunked
``emit_gnp_arcs``/``emit_gnm_arcs`` yielding bounded edge blocks. The
one-shot functions are implemented *on top of* the emit paths, so for
the same seed both faces draw the same random numbers and describe the
same edge set.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.storage import DEFAULT_CHUNK_ARCS, chunk_edges
from repro.rng import ensure_rng

__all__ = ["gnp", "gnm", "emit_gnp_arcs", "emit_gnm_arcs", "random_cross_edges"]


def emit_gnp_arcs(
    n: int,
    p: float,
    chunk_size: int = DEFAULT_CHUNK_ARCS,
    rng: np.random.Generator | int | None = None,
) -> Iterator[np.ndarray]:
    """Stream the edges of a G(n, p) draw in blocks of ``chunk_size``.

    Peak memory is O(chunk_size) regardless of ``|E|``: chosen pair
    ranks are buffered and unranked one block at a time. Consuming the
    whole stream performs exactly the same RNG draws as :func:`gnp`.
    """
    gen = ensure_rng(rng)
    if not 0.0 <= p <= 1.0:
        raise GenerationError(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise GenerationError(f"n must be non-negative, got {n}")
    if chunk_size < 1:
        raise GenerationError(f"chunk_size must be >= 1, got {chunk_size}")
    return _gnp_blocks(n, p, chunk_size, gen)


def _gnp_blocks(
    n: int, p: float, chunk_size: int, gen: np.random.Generator
) -> Iterator[np.ndarray]:
    if n < 2 or p == 0.0:
        return
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        rows, cols = np.triu_indices(n, k=1)
        yield from chunk_edges(
            np.column_stack((rows, cols)).astype(np.int64), chunk_size
        )
        return
    # Sample the flat indices of chosen pairs by geometric gap skipping,
    # flushing each buffer-full of ranks as an unranked edge block.
    chosen: list[int] = []
    log_q = np.log1p(-p)
    position = -1
    while True:
        gap = int(np.floor(np.log(1.0 - gen.random()) / log_q))
        position += gap + 1
        if position >= total_pairs:
            break
        chosen.append(position)
        if len(chosen) >= chunk_size:
            yield _edges_from_flat(np.asarray(chosen, dtype=np.int64), n)
            chosen = []
    if chosen:
        yield _edges_from_flat(np.asarray(chosen, dtype=np.int64), n)


def gnp(n: int, p: float, rng: np.random.Generator | int | None = None) -> Graph:
    """G(n, p): each of the ``n(n-1)/2`` pairs is an edge with prob. ``p``.

    Uses geometric skipping, so the cost is O(n + |E|) rather than O(n^2).
    """
    return _consume(n, emit_gnp_arcs(n, p, rng=rng))


def emit_gnm_arcs(
    n: int,
    m: int,
    chunk_size: int = DEFAULT_CHUNK_ARCS,
    rng: np.random.Generator | int | None = None,
) -> Iterator[np.ndarray]:
    """Stream the edges of a G(n, m) draw in blocks of ``chunk_size``.

    The ``m`` distinct pair ranks are materialized (inherent to
    sampling without replacement) but unranked and emitted one block at
    a time. Same RNG trace as :func:`gnm`.
    """
    gen = ensure_rng(rng)
    if n < 0:
        raise GenerationError(f"n must be non-negative, got {n}")
    total_pairs = n * (n - 1) // 2
    if not 0 <= m <= total_pairs:
        raise GenerationError(
            f"m must be in [0, {total_pairs}] for n={n}, got {m}"
        )
    if chunk_size < 1:
        raise GenerationError(f"chunk_size must be >= 1, got {chunk_size}")
    return _gnm_blocks(n, m, total_pairs, chunk_size, gen)


def _gnm_blocks(
    n: int, m: int, total_pairs: int, chunk_size: int, gen: np.random.Generator
) -> Iterator[np.ndarray]:
    if m == 0:
        return
    flat = _gnm_flat(m, total_pairs, gen)
    for start in range(0, m, chunk_size):
        yield _edges_from_flat(flat[start : start + chunk_size], n)


def _gnm_flat(m: int, total_pairs: int, gen: np.random.Generator) -> np.ndarray:
    """``m`` distinct flat pair ranks (the shared G(n, m) sampling core)."""
    if total_pairs <= 4 * m:
        # Dense regime: permute all pair indices.
        return gen.permutation(total_pairs)[:m].astype(np.int64)
    # Sparse regime: rejection sample distinct flat indices.
    seen: set[int] = set()
    while len(seen) < m:
        needed = m - len(seen)
        draws = gen.integers(0, total_pairs, size=2 * needed + 8)
        for d in draws:
            seen.add(int(d))
            if len(seen) == m:
                break
    return np.fromiter(seen, dtype=np.int64, count=m)


def gnm(n: int, m: int, rng: np.random.Generator | int | None = None) -> Graph:
    """G(n, m): exactly ``m`` distinct edges chosen uniformly at random."""
    return _consume(n, emit_gnm_arcs(n, m, rng=rng))


def _edges_from_flat(flat: np.ndarray, n: int) -> np.ndarray:
    rows, cols = _unrank_pairs(flat, n)
    return np.column_stack((rows, cols))


def _consume(n: int, chunks: Iterator[np.ndarray]) -> Graph:
    """Build a graph from an emit stream."""
    builder = GraphBuilder(n)
    for chunk in chunks:
        builder.add_edges(chunk)
    return builder.build()


def random_cross_edges(
    groups_a: np.ndarray,
    groups_b: np.ndarray,
    count: int,
    rng: np.random.Generator | int | None = None,
    forbid: "set[tuple[int, int]] | None" = None,
) -> np.ndarray:
    """``count`` distinct random edges with one endpoint in each group.

    Used by the planted model to wire categories together; ``forbid``
    lets callers exclude already-existing edges. Groups may overlap (the
    paper's "random edges between nodes in different categories" uses
    the whole node set on both sides and a forbid set of intra pairs is
    not needed because endpoints are drawn from *different* categories
    by the caller).
    """
    gen = ensure_rng(rng)
    groups_a = np.asarray(groups_a, dtype=np.int64)
    groups_b = np.asarray(groups_b, dtype=np.int64)
    if count < 0:
        raise GenerationError(f"count must be non-negative, got {count}")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if len(groups_a) == 0 or len(groups_b) == 0:
        raise GenerationError("both endpoint groups must be non-empty")
    seen: set[tuple[int, int]] = set()
    forbid = forbid or set()
    out = np.empty((count, 2), dtype=np.int64)
    filled = 0
    attempts = 0
    max_attempts = 100 * count + 1000
    while filled < count:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                "could not place the requested number of distinct cross edges"
            )
        u = int(groups_a[gen.integers(0, len(groups_a))])
        v = int(groups_b[gen.integers(0, len(groups_b))])
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or key in forbid:
            continue
        seen.add(key)
        out[filled] = key
        filled += 1
    return out


def _unrank_pairs(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat indices in ``[0, n(n-1)/2)`` to (row, col) with row < col.

    The pair (i, j), i < j, has flat rank ``i*n - i(i+3)/2 + j - 1``.
    Inverted in closed form via the quadratic formula (float64 is exact
    for the n <= ~1e6 range this library targets, with a correction step
    for safety).
    """
    flat = flat.astype(np.float64)
    b = 2 * n - 1
    i = np.floor((b - np.sqrt(b * b - 8 * flat)) / 2).astype(np.int64)
    # Correct any off-by-one from float rounding.
    def start(row: np.ndarray) -> np.ndarray:
        return row * n - (row * (row + 1)) // 2

    while np.any(start(i + 1) <= flat):
        i = np.where(start(i + 1) <= flat, i + 1, i)
    while np.any(start(i) > flat):
        i = np.where(start(i) > flat, i - 1, i)
    j = (flat - start(i)).astype(np.int64) + i + 1
    return i, j
