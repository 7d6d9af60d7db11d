"""Compressed-sparse-row (CSR) undirected graph container.

This is the performance substrate of the library: an immutable, simple
(no self-loops, no multi-edges), undirected graph over integer node ids
``0..N-1``, stored as two NumPy arrays:

* ``indptr``  — shape ``(N + 1,)``; node ``v``'s neighbors live in
  ``indices[indptr[v]:indptr[v + 1]]``.
* ``indices`` — shape ``(2 * |E|,)``; each undirected edge appears twice,
  once per endpoint; each adjacency run is sorted ascending.

Random walks, star observations, and exact category-graph computation all
reduce to array slicing on this structure, which keeps the paper's
N = 88 850 synthetic sweeps laptop-fast.

Build instances with :class:`repro.graph.builder.GraphBuilder` or the
``Graph.from_*`` constructors; direct ``__init__`` validates its inputs.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import GraphError

__all__ = ["Graph", "gather_runs"]


def gather_runs(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of a CSR with offsets ``indptr``, in one gather.

    Returns the int64 offsets of the gathered CSR, whose row ``i`` is
    source row ``rows[i]``, and the source position of each entry.
    """
    starts = indptr[rows].astype(np.int64)
    lengths = indptr[rows + 1] - starts
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # Entry j of row i sits at starts[i] + j: shift one flat arange by
    # each row's start minus its output offset.
    return offsets, np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Graph:
    """Immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of shape ``(num_nodes + 1,)``, non-decreasing,
        ``indptr[0] == 0``.
    indices:
        ``int64`` array of neighbor ids; ``len(indices) == indptr[-1]``
        and equals twice the number of undirected edges.
    validate:
        When true (default), verify CSR invariants (symmetry, sortedness,
        no self-loops, no duplicates). Constructors that already
        guarantee the invariants pass ``False``.
    """

    __slots__ = ("_indptr", "_indices", "_num_edges", "_arc_sources", "_upper_edges")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, validate: bool = True):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        self._arc_sources = None
        self._upper_edges = None
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional arrays")
        if len(indptr) == 0 or indptr[0] != 0:
            raise GraphError("indptr must start with 0 and be non-empty")
        if indptr[-1] != len(indices):
            raise GraphError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({len(indices)})"
            )
        if len(indices) % 2 != 0:
            raise GraphError("undirected CSR must have an even number of directed arcs")
        self._indptr = indptr
        self._indices = indices
        self._num_edges = len(indices) // 2
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n = self.num_nodes
        if np.any(np.diff(self._indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if len(self._indices) and (
            self._indices.min() < 0 or self._indices.max() >= n
        ):
            raise GraphError("indices reference node ids outside [0, num_nodes)")
        rev = self.arc_sources
        # Sorted runs and no duplicates / self-loops, via one np.diff
        # over the full indices array masked at run boundaries.
        if len(self._indices):
            loops = self._indices == rev
            if np.any(loops):
                raise GraphError(
                    f"self-loop at node {int(rev[int(np.argmax(loops))])}"
                )
        if len(self._indices) > 1:
            steps = np.diff(self._indices)
            within_run = rev[1:] == rev[:-1]
            unsorted = within_run & (steps <= 0)
            if np.any(unsorted):
                v = int(rev[1:][int(np.argmax(unsorted))])
                raise GraphError(f"adjacency of node {v} is not strictly sorted")
        # Symmetry: total in-degree equals total out-degree per node is
        # implied if every arc has a reverse arc.
        order_fwd = np.lexsort((self._indices, rev))
        order_rev = np.lexsort((rev, self._indices))
        if not (
            np.array_equal(rev[order_fwd], self._indices[order_rev])
            and np.array_equal(self._indices[order_fwd], rev[order_rev])
        ):
            raise GraphError("adjacency is not symmetric (missing reverse arcs)")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``N``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """Read-only view of the CSR offsets array."""
        return _read_only(self._indptr)

    @property
    def indices(self) -> np.ndarray:
        """Read-only view of the CSR neighbor array."""
        return _read_only(self._indices)

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        self._check_node(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every node, as an ``int64`` array of shape ``(N,)``."""
        return np.diff(self._indptr)

    @property
    def arc_sources(self) -> np.ndarray:
        """Source node of every directed arc, aligned with ``indices``.

        ``(arc_sources[i], indices[i])`` enumerates all ``2|E|`` arcs.
        Computed once and cached (the graph is immutable); validation and
        the observation builders share it. Read-only view.
        """
        if self._arc_sources is None:
            from repro.graph.planes import derived_arc_sources

            self._arc_sources = derived_arc_sources(self._indptr)
        return _read_only(self._arc_sources)

    @property
    def upper_edges(self) -> np.ndarray:
        """The ``u < v`` arcs in CSR order, as a ``(2, |E|)`` array ``[u, v]``.

        int32 when ``N < 2**31``. Cached like :attr:`arc_sources`.
        Read-only view. Read by induced
        observation, ``induced_subgraph``, ``edge_chunks`` (bridging),
        :meth:`edges` and :meth:`edge_array`; ``connected_components``
        derives the same plane without caching it here.
        """
        if self._upper_edges is None:
            from repro.graph.planes import derived_upper_edges

            self._upper_edges = derived_upper_edges(self._indptr, self._indices)
        return _read_only(self._upper_edges)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only array view)."""
        self._check_node(v)
        return _read_only(self._indices[self._indptr[v] : self._indptr[v + 1]])

    def gather_neighborhoods(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency runs of ``nodes``, in one gather.

        Returns ``(neighbors, lengths)`` where ``neighbors`` is the
        concatenation of each node's (sorted) adjacency run in the order
        the nodes were given — run ``i`` occupies
        ``neighbors[lengths[:i].sum() : lengths[:i].sum() + lengths[i]]``
        — and ``lengths`` is each run's degree. Repeated nodes repeat
        their runs. This is the frontier-expansion primitive of the
        batched BFS kernel (:mod:`repro.sampling.traversal`): one
        fancy-indexed gather over the whole frontier instead of a
        Python-level slice per node.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise GraphError("gather_neighborhoods needs a 1-D node array")
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise GraphError(
                "gather_neighborhoods received node ids outside the graph"
            )
        offsets, arcs = gather_runs(self._indptr, nodes)
        return self._indices[arcs], np.diff(offsets)

    def has_edge(self, u: int, v: int) -> bool:
        """True when the undirected edge ``{u, v}`` exists.

        Binary search over the (sorted) shorter adjacency run: O(log d).
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        du = self._indptr[u + 1] - self._indptr[u]
        dv = self._indptr[v + 1] - self._indptr[v]
        if dv < du:
            u, v = v, u
        run = self._indices[self._indptr[u] : self._indptr[u + 1]]
        pos = np.searchsorted(run, v)
        return pos < len(run) and run[pos] == v

    def volume(self, nodes: np.ndarray | None = None) -> int:
        """Sum of degrees of ``nodes`` (Eq. 1 of the paper).

        With ``nodes=None`` this is ``vol(V) = 2 |E|``.
        """
        if nodes is None:
            return 2 * self._num_edges
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise GraphError("volume() received node ids outside the graph")
        # Two O(|nodes|) gathers; never materializes all N degrees.
        return int(np.sum(self._indptr[nodes + 1] - self._indptr[nodes]))

    def mean_degree(self) -> float:
        """Average node degree ``k_V = 2|E| / N``; 0.0 for the empty graph."""
        if self.num_nodes == 0:
            return 0.0
        return 2.0 * self._num_edges / self.num_nodes

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        return map(tuple, self.upper_edges.T.tolist())

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(|E|, 2)`` array with ``u < v``.

        Vectorised; preferred over :meth:`edges` for bulk work.
        """
        return np.ascontiguousarray(self.upper_edges.T, dtype=np.int64)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: "np.ndarray | list[tuple[int, int]]"
    ) -> "Graph":
        """Build a graph from an edge list.

        Self-loops are rejected; duplicate edges are merged (the graph is
        simple). ``edges`` may be any ``(m, 2)``-shaped array-like.
        """
        from repro.graph.builder import GraphBuilder  # local import avoids a cycle

        builder = GraphBuilder(num_nodes)
        builder.add_edges(edges)
        return builder.build()

    @classmethod
    def empty(cls, num_nodes: int) -> "Graph":
        """An edgeless graph on ``num_nodes`` nodes."""
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        return cls(
            np.zeros(num_nodes + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.num_nodes:
            raise GraphError(f"node {v} outside [0, {self.num_nodes})")

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:  # immutable, so hashable
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
