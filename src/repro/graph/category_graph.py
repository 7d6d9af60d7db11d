"""The category graph ``G_C`` (Section 2.2, Fig. 1 of the paper).

Given a graph ``G`` and a partition of its nodes into categories, the
category graph has one node per category and, for each unordered pair of
distinct categories ``{A, B}`` with at least one cross edge, a weighted
edge. The canonical weight is Eq. (3):

    w(A, B) = |E_{A,B}| / (|A| * |B|)

— the probability that a uniformly chosen member of ``A`` is adjacent to
a uniformly chosen member of ``B``.

:class:`CategoryGraph` stores the full matrices (edge-cut counts and
weights) so both ground truth (from a fully observed graph, via
:func:`true_category_graph`) and estimates (from
:mod:`repro.core.category_graph_estimator`) share one representation.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import PartitionError
from repro.graph.adjacency import Graph
from repro.graph.partition import CategoryPartition

__all__ = ["CategoryGraph", "true_category_graph", "cut_matrix"]


class CategoryGraph:
    """Weighted graph over categories.

    Parameters
    ----------
    sizes:
        ``(C,)`` category sizes ``|A|`` (true or estimated; float for
        estimates).
    weights:
        ``(C, C)`` symmetric matrix of Eq. (3) weights; the diagonal is
        not part of the paper's definition (self-loops are excluded) and
        is stored as ``nan`` by convention.
    names:
        Optional category names.
    cuts:
        Optional ``(C, C)`` matrix of edge-cut sizes ``|E_{A,B}|``
        (exact integers for ground truth, floats for estimates).
    """

    __slots__ = ("_sizes", "_weights", "_names", "_cuts")

    def __init__(
        self,
        sizes: np.ndarray,
        weights: np.ndarray,
        names: tuple[str, ...] | None = None,
        cuts: np.ndarray | None = None,
    ):
        sizes = np.asarray(sizes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        c = len(sizes)
        if weights.shape != (c, c):
            raise PartitionError(
                f"weights must be ({c}, {c}) to match {c} categories; got {weights.shape}"
            )
        if not np.allclose(weights, weights.T, equal_nan=True):
            raise PartitionError("weights matrix must be symmetric")
        self._sizes = sizes
        self._weights = weights
        self._names = tuple(names) if names is not None else tuple(f"C{i}" for i in range(c))
        if len(self._names) != c:
            raise PartitionError(f"expected {c} names, got {len(self._names)}")
        if cuts is not None:
            cuts = np.asarray(cuts, dtype=float)
            if cuts.shape != (c, c):
                raise PartitionError(f"cuts must be ({c}, {c}); got {cuts.shape}")
        self._cuts = cuts

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        """Number of categories ``|C|``."""
        return len(self._sizes)

    @property
    def names(self) -> tuple[str, ...]:
        """Category names."""
        return self._names

    @property
    def sizes(self) -> np.ndarray:
        """Category sizes ``|A|`` (float when estimated)."""
        return self._sizes

    @property
    def weights(self) -> np.ndarray:
        """Full ``(C, C)`` weight matrix; diagonal is ``nan``."""
        return self._weights

    @property
    def cuts(self) -> np.ndarray | None:
        """Edge-cut matrix ``|E_{A,B}|`` when available, else ``None``."""
        return self._cuts

    def size(self, category: "int | str") -> float:
        """Size of one category (by index or name)."""
        return float(self._sizes[self._resolve(category)])

    def weight(self, a: "int | str", b: "int | str") -> float:
        """Eq. (3) weight ``w(A, B)`` for two distinct categories."""
        ia, ib = self._resolve(a), self._resolve(b)
        if ia == ib:
            raise PartitionError("w(A, A) is undefined: the category graph has no self-loops")
        return float(self._weights[ia, ib])

    def has_edge(self, a: "int | str", b: "int | str") -> bool:
        """True when ``w(A, B) > 0`` (i.e. the cut is non-empty)."""
        value = self.weight(a, b)
        return bool(np.isfinite(value) and value > 0)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate weighted edges ``(a, b, w)`` with ``a < b`` and ``w > 0``."""
        c = self.num_categories
        for a in range(c):
            for b in range(a + 1, c):
                w = self._weights[a, b]
                if np.isfinite(w) and w > 0:
                    yield (a, b, float(w))

    def num_edges(self) -> int:
        """Number of category-graph edges (pairs with positive weight)."""
        upper = np.triu(np.nan_to_num(self._weights, nan=0.0), k=1)
        return int(np.count_nonzero(upper > 0))

    def top_edges(self, k: int) -> list[tuple[str, str, float]]:
        """The ``k`` heaviest edges as ``(name_a, name_b, w)``, descending."""
        ranked = sorted(self.edges(), key=lambda e: -e[2])[: max(k, 0)]
        return [(self._names[a], self._names[b], w) for a, b, w in ranked]

    def _resolve(self, category: "int | str") -> int:
        if isinstance(category, str):
            try:
                return self._names.index(category)
            except ValueError:
                raise PartitionError(f"unknown category name: {category!r}") from None
        idx = int(category)
        if not 0 <= idx < self.num_categories:
            raise PartitionError(f"category {idx} outside [0, {self.num_categories})")
        return idx

    def __repr__(self) -> str:
        return (
            f"CategoryGraph(num_categories={self.num_categories}, "
            f"num_edges={self.num_edges()})"
        )


def cut_matrix(graph: Graph, partition: CategoryPartition) -> np.ndarray:
    """Exact edge-cut counts ``|E_{A,B}|`` for every category pair.

    Returns a symmetric ``(C, C)`` ``int64`` matrix. The diagonal holds
    the number of *intra*-category edges (not used by Eq. (3), which
    excludes self-loops, but cheap to compute and useful for modularity
    and the Facebook substrate).
    """
    c = partition.num_categories
    indptr, categories, counts = partition.neighbor_histogram(graph)
    # Row A sums the histograms of A's nodes; an intra-category edge is
    # seen from both of its endpoints, so the diagonal is halved.
    owners = np.repeat(partition.labels * c, np.diff(indptr))
    cuts = np.bincount(
        owners + categories, weights=counts, minlength=c * c
    ).astype(np.int64).reshape(c, c)
    cuts[np.diag_indices(c)] //= 2
    return cuts


def true_category_graph(graph: Graph, partition: CategoryPartition) -> CategoryGraph:
    """Ground-truth category graph via Eq. (3) from a fully known graph."""
    cuts = cut_matrix(graph, partition)
    sizes = partition.sizes().astype(float)
    denom = np.outer(sizes, sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(denom > 0, cuts / denom, np.nan)
    np.fill_diagonal(weights, np.nan)
    return CategoryGraph(sizes, weights, names=partition.names, cuts=cuts)
