"""Incremental construction of :class:`repro.graph.adjacency.Graph`.

:class:`GraphBuilder` accumulates edges (as chunks of int64 edge keys,
so bulk adds are cheap), then :meth:`GraphBuilder.build` deduplicates,
symmetrises and emits a validated CSR graph in one vectorised pass.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.storage import unique_keys

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates undirected edges and produces an immutable Graph.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids must lie in ``[0, num_nodes)``.

    Notes
    -----
    * Duplicate edges are silently merged (the result is a simple graph).
    * Self-loops raise :class:`GraphError` eagerly — they are always a
      bug in this library's domain (friendship/overlay graphs).
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._keys: list[np.ndarray] = []
        self._num_added = 0

    @property
    def num_nodes(self) -> int:
        """Node count the final graph will have."""
        return self._num_nodes

    def add_edge(self, u: int, v: int) -> None:
        """Add a single undirected edge ``{u, v}``."""
        self.add_edges(np.array([[u, v]], dtype=np.int64))

    def add_edges(self, edges: "np.ndarray | list[tuple[int, int]]") -> None:
        """Add a batch of undirected edges from an ``(m, 2)`` array-like."""
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {arr.shape}")
        if arr.min() < 0 or arr.max() >= self._num_nodes:
            raise GraphError(
                f"edge endpoints must lie in [0, {self._num_nodes}); "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        if np.any(arr[:, 0] == arr[:, 1]):
            bad = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
            raise GraphError(f"self-loop at node {bad} is not allowed")
        self._num_added += len(arr)
        # Canonical lo * n + hi keys, half the bytes of the pairs.
        lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
        self._keys.append(lo * np.int64(self._num_nodes) + hi)

    def edge_count_upper_bound(self) -> int:
        """Number of edge records added so far (before deduplication)."""
        return self._num_added

    def build(self) -> Graph:
        """Deduplicate, symmetrise and emit the CSR graph.

        :meth:`add_edges` keeps each batch as its canonical
        ``lo * n + hi`` keys, and :func:`~repro.graph.storage.unique_keys`
        deduplicates their concatenation. A row lists a node's lower
        neighbours, then its higher ones, so the sorted keys fill the
        (lo -> hi) slots and one sort of the transposed keys the
        (hi -> lo) slots.
        """
        n = self._num_nodes
        if not self._keys:
            return Graph.empty(n)
        keys = unique_keys(np.concatenate(self._keys))
        hi = keys % n
        keys //= n  # now the lo endpoints
        below, above = np.bincount(hi, minlength=n), np.bincount(keys, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(below + above, out=indptr[1:])
        # True at the (lo -> hi) slots: each row's last ``above`` arcs.
        upper = np.repeat(
            np.tile((False, True), n), np.column_stack((below, above)).ravel()
        )
        indices = np.empty(2 * len(keys), dtype=np.int64)
        indices[upper] = hi
        # Transposed keys sort by (hi, lo): the (hi -> lo) arcs in order.
        hi *= n
        keys += hi
        keys.sort()
        np.remainder(keys, n, out=keys)
        indices[~upper] = keys
        # Invariants hold by construction; skip the O(N·d) re-validation.
        return Graph(indptr, indices, validate=False)
