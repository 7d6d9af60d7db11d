"""Stochastic block model (planted partition) graphs.

Used as a substrate with *tunable* community strength for ablation
benches, and to plant geography-flavored communities into the empirical
stand-in graphs. The paper's own synthetic model (Section 6.2.1) is the
related but distinct construction in :mod:`repro.generators.planted`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.partition import CategoryPartition
from repro.rng import ensure_rng

__all__ = ["stochastic_block_model", "planted_partition_graph"]


def _validated_sizes_probs(
    sizes: Sequence[int], prob_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    if len(sizes_arr) == 0 or sizes_arr.min() <= 0:
        raise GenerationError("block sizes must be positive")
    prob_matrix = np.asarray(prob_matrix, dtype=float)
    c = len(sizes_arr)
    if prob_matrix.shape != (c, c):
        raise GenerationError(
            f"prob_matrix must be ({c}, {c}), got {prob_matrix.shape}"
        )
    if not np.allclose(prob_matrix, prob_matrix.T):
        raise GenerationError("prob_matrix must be symmetric")
    if prob_matrix.min() < 0 or prob_matrix.max() > 1:
        raise GenerationError("probabilities must lie in [0, 1]")
    return sizes_arr, prob_matrix


def _sbm_blocks(
    sizes_arr: np.ndarray, prob_matrix: np.ndarray, gen: np.random.Generator
) -> Iterator[np.ndarray]:
    """One edge array per non-empty block pair, in (a, a) / (a, b) order."""
    c = len(sizes_arr)
    starts = np.concatenate(([0], np.cumsum(sizes_arr)))
    for a in range(c):
        na = int(sizes_arr[a])
        # Intra-block: G(na, p) pairs.
        p = float(prob_matrix[a, a])
        total_pairs = na * (na - 1) // 2
        if p > 0 and total_pairs > 0:
            count = int(gen.binomial(total_pairs, p))
            flat = gen.choice(total_pairs, size=min(count, total_pairs), replace=False)
            rows, cols = _unrank_block_pairs(flat.astype(np.int64), na)
            yield np.column_stack((rows + starts[a], cols + starts[a]))
        for b in range(a + 1, c):
            p = float(prob_matrix[a, b])
            nb = int(sizes_arr[b])
            total = na * nb
            if p == 0 or total == 0:
                continue
            count = int(gen.binomial(total, p))
            flat = gen.choice(total, size=min(count, total), replace=False).astype(
                np.int64
            )
            rows = flat // nb + starts[a]
            cols = flat % nb + starts[b]
            yield np.column_stack((rows, cols))


def stochastic_block_model(
    sizes: Sequence[int],
    prob_matrix: np.ndarray,
    rng: np.random.Generator | int | None = None,
    names: Sequence[str] | None = None,
) -> tuple[Graph, CategoryPartition]:
    """SBM with block sizes ``sizes`` and edge probabilities ``prob_matrix``.

    ``prob_matrix[a, b]`` is the probability of an edge between a node of
    block ``a`` and a node of block ``b``; the matrix must be symmetric.
    Sampling uses binomial counts per block pair plus rejection-free
    placement, so sparse blocks cost O(edges), not O(pairs).
    """
    gen = ensure_rng(rng)
    sizes_arr, prob_matrix = _validated_sizes_probs(sizes, prob_matrix)
    n = int(sizes_arr.sum())
    builder = GraphBuilder(n)
    for block in _sbm_blocks(sizes_arr, prob_matrix, gen):
        builder.add_edges(block)
    partition = CategoryPartition.from_blocks(sizes_arr, names=names)
    return builder.build(), partition


def planted_partition_graph(
    num_blocks: int,
    block_size: int,
    p_in: float,
    p_out: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, CategoryPartition]:
    """Symmetric SBM: ``num_blocks`` equal blocks, two probabilities."""
    if num_blocks <= 0 or block_size <= 0:
        raise GenerationError("num_blocks and block_size must be positive")
    probs = np.full((num_blocks, num_blocks), p_out, dtype=float)
    np.fill_diagonal(probs, p_in)
    return stochastic_block_model(
        [block_size] * num_blocks, probs, rng=rng
    )


def _unrank_block_pairs(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unrank flat upper-triangle indices for an n-node block."""
    from repro.generators.er import _unrank_pairs

    return _unrank_pairs(flat, n)
