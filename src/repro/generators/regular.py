"""Random k-regular graphs via the pairing (configuration) model.

The paper's synthetic model (Section 6.2.1) builds each category as a
k-regular random graph. We implement the standard pairing model with a
repair phase: stubs are matched uniformly at random; the few self-loops
and multi-edges that result are eliminated by degree-preserving double
edge swaps against randomly chosen good edges. For ``k`` up to ~50 and
category sizes up to 50 000 this is fast and produces a uniform-ish
simple k-regular graph, which is all the paper's experiments require.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GenerationError
from repro.graph.adjacency import Graph
from repro.rng import ensure_rng

__all__ = ["random_regular_graph", "random_regular_edges"]

_MAX_REPAIR_ROUNDS = 200


def random_regular_edges(
    n: int, k: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Edge array of a random simple k-regular graph on ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    k:
        Degree of every node; requires ``0 <= k < n`` and ``n * k`` even.

    Returns
    -------
    ``(n * k / 2, 2)`` int64 array of edges.

    Raises
    ------
    GenerationError
        For infeasible ``(n, k)`` or when the repair phase cannot remove
        all defects (vanishingly rare for ``k << n``; can only realistically
        happen for near-complete graphs, which we handle separately).
    """
    gen = ensure_rng(rng)
    if k < 0 or k >= n:
        raise GenerationError(f"k-regular graph requires 0 <= k < n; got n={n}, k={k}")
    if (n * k) % 2 != 0:
        raise GenerationError(f"n * k must be even; got n={n}, k={k}")
    if k == 0:
        return np.empty((0, 2), dtype=np.int64)
    if k == n - 1:
        # Complete graph: deterministic, no pairing needed.
        rows, cols = np.triu_indices(n, k=1)
        return np.column_stack((rows, cols)).astype(np.int64)

    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    gen.shuffle(stubs)
    edges = stubs.reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    edges = np.column_stack((lo, hi))

    for _ in range(_MAX_REPAIR_ROUNDS):
        keys = edges[:, 0] * np.int64(n) + edges[:, 1]
        loops = edges[:, 0] == edges[:, 1]
        order = np.argsort(keys)
        sorted_keys = keys[order]
        dup_sorted = np.zeros(len(keys), dtype=bool)
        dup_sorted[1:] = sorted_keys[1:] == sorted_keys[:-1]
        dup = np.zeros(len(keys), dtype=bool)
        dup[order] = dup_sorted
        bad = np.flatnonzero(loops | dup)
        if len(bad) == 0:
            return edges
        # Keys of the round's good edges, sorted, plus the keys swaps
        # add; stale keys of swapped-out edges stay present.
        good_keys = sorted_keys[~(loops[order] | dup_sorted)]
        added: set[int] = set()
        # Swap each bad edge with a random partner edge: (a,b),(c,d) ->
        # (a,d),(c,b). Accept the swap only if both new edges are simple
        # and not already present.
        for idx in bad:
            a, b = edges[idx]
            for _attempt in range(50):
                j = int(gen.integers(0, len(edges)))
                if j == idx:
                    continue
                c, d = edges[j]
                if gen.random() < 0.5:
                    c, d = d, c
                e1 = (min(a, d), max(a, d))
                e2 = (min(c, b), max(c, b))
                k1 = e1[0] * n + e1[1]
                k2 = e2[0] * n + e2[1]
                if a == d or c == b or k1 == k2 or _present(good_keys, added, k1, k2):
                    continue
                edges[idx] = e1
                edges[j] = e2
                added.add(k1)
                added.add(k2)
                break
    raise GenerationError(
        f"could not repair pairing-model defects for n={n}, k={k}; "
        "the parameters are too close to a complete graph"
    )


def _present(sorted_keys: np.ndarray, added: set, *keys: int) -> bool:
    """Whether any of ``keys`` is in ``sorted_keys`` or in ``added``."""
    for key in keys:
        pos = int(np.searchsorted(sorted_keys, key))
        if key in added or (pos < len(sorted_keys) and sorted_keys[pos] == key):
            return True
    return False


def random_regular_graph(
    n: int, k: int, rng: np.random.Generator | int | None = None
) -> Graph:
    """A random simple k-regular :class:`Graph` (see
    :func:`random_regular_edges`)."""
    return Graph.from_edges(n, random_regular_edges(n, k, rng))
