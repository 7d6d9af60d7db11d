"""Category partitions of a node set (Section 2.2 of the paper).

A :class:`CategoryPartition` assigns every node of a graph to exactly one
category. Categories have stable integer indices ``0..C-1`` and optional
human-readable names (country codes, college names, ...). The partition
is the second half of the paper's input: together with a
:class:`~repro.graph.adjacency.Graph` it defines the category graph
``G_C`` whose weights the estimators target.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import PartitionError
from repro.graph.adjacency import Graph
from repro.rng import ensure_rng

__all__ = ["CategoryPartition"]

#: Serializes neighbor-histogram builds, so concurrent plan driver
#: threads observing through one partition build each histogram once.
_HISTOGRAM_LOCK = threading.Lock()


class CategoryPartition:
    """Immutable assignment of nodes to categories.

    Parameters
    ----------
    labels:
        ``int`` array of shape ``(num_nodes,)``; ``labels[v]`` is the
        category index of node ``v``. Indices must cover ``0..C-1``
        contiguously is *not* required — empty categories are allowed
        when ``num_categories`` is passed explicitly.
    names:
        Optional sequence of category names, one per category index.
    num_categories:
        Optional explicit category count (``>= labels.max() + 1``);
        inferred from the labels when omitted.
    """

    __slots__ = ("_labels", "_names", "_num_categories", "_sizes", "_histogram_cache")

    def __init__(
        self,
        labels: np.ndarray | Sequence[int],
        names: Sequence[str] | None = None,
        num_categories: int | None = None,
    ):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise PartitionError("labels must be a one-dimensional array")
        if len(labels) and labels.min() < 0:
            raise PartitionError("category labels must be non-negative")
        inferred = int(labels.max()) + 1 if len(labels) else 0
        if num_categories is None:
            num_categories = inferred
        elif num_categories < inferred:
            raise PartitionError(
                f"num_categories={num_categories} but labels reference "
                f"category {inferred - 1}"
            )
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != num_categories:
                raise PartitionError(
                    f"expected {num_categories} names, got {len(names)}"
                )
            if len(set(names)) != len(names):
                raise PartitionError("category names must be unique")
        self._labels = labels
        self._labels.flags.writeable = False
        self._names = names
        self._num_categories = int(num_categories)
        self._sizes = np.bincount(labels, minlength=num_categories).astype(np.int64)
        self._sizes.flags.writeable = False
        self._histogram_cache = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(
        cls, num_nodes: int, mapping: Mapping[int, str]
    ) -> "CategoryPartition":
        """Build from a ``{node: category_name}`` mapping.

        Every node in ``[0, num_nodes)`` must be present. Category
        indices are assigned in sorted name order (deterministic).
        """
        if set(mapping) != set(range(num_nodes)):
            raise PartitionError("mapping must cover exactly the nodes 0..num_nodes-1")
        names = sorted(set(mapping.values()))
        index = {name: i for i, name in enumerate(names)}
        labels = np.fromiter(
            (index[mapping[v]] for v in range(num_nodes)), dtype=np.int64, count=num_nodes
        )
        return cls(labels, names=names)

    @classmethod
    def single_category(cls, num_nodes: int, name: str = "all") -> "CategoryPartition":
        """The trivial partition placing every node in one category."""
        return cls(np.zeros(num_nodes, dtype=np.int64), names=[name])

    @classmethod
    def from_blocks(cls, sizes: Sequence[int], names: Sequence[str] | None = None) -> "CategoryPartition":
        """Contiguous blocks: first ``sizes[0]`` nodes are category 0, etc."""
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        if len(sizes_arr) and sizes_arr.min() < 0:
            raise PartitionError("block sizes must be non-negative")
        labels = np.repeat(np.arange(len(sizes_arr), dtype=np.int64), sizes_arr)
        return cls(labels, names=names, num_categories=len(sizes_arr))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        """Read-only label array (``labels[v]`` = category of node v)."""
        return self._labels

    @property
    def num_nodes(self) -> int:
        """Number of nodes covered by the partition."""
        return len(self._labels)

    @property
    def num_categories(self) -> int:
        """Number of categories ``|C|`` (including any empty ones)."""
        return self._num_categories

    @property
    def names(self) -> tuple[str, ...]:
        """Category names; synthesised ``C0..C{n-1}`` when none were given."""
        if self._names is not None:
            return self._names
        return tuple(f"C{i}" for i in range(self._num_categories))

    def neighbor_histogram(
        self, graph: Graph
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's neighbor-category histogram on ``graph``, as a CSR.

        ``(indptr, categories, counts)``: node ``v``'s neighbors fall in
        ``categories[indptr[v]:indptr[v+1]]`` (ascending) with
        multiplicities ``counts[...]``, in compact dtypes. Star
        observations and :func:`~repro.graph.category_graph.cut_matrix`
        gather its rows. Cached for the most recent graph; derived in
        node blocks by :mod:`repro.graph.planes`. Read-only.
        """
        self._check_graph(graph)
        with _HISTOGRAM_LOCK:
            cache = self._histogram_cache
            if cache is None or cache[0] is not graph:
                from repro.graph.planes import derived_neighbor_histogram

                planes = derived_neighbor_histogram(
                    self._labels, self._num_categories, graph.indptr, graph.indices
                )
                for plane in planes:
                    plane.flags.writeable = False
                cache = self._histogram_cache = (graph, planes)
        return cache[1]

    def category_of(self, v: int) -> int:
        """Category index of node ``v``."""
        if not 0 <= v < len(self._labels):
            raise PartitionError(f"node {v} outside [0, {len(self._labels)})")
        return int(self._labels[v])

    def index_of(self, name: str) -> int:
        """Category index for a category name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise PartitionError(f"unknown category name: {name!r}") from None

    def members(self, category: int) -> np.ndarray:
        """Node ids belonging to ``category`` (ascending)."""
        self._check_category(category)
        return np.flatnonzero(self._labels == category)

    def sizes(self) -> np.ndarray:
        """``|A|`` for every category, shape ``(C,)``."""
        return self._sizes

    def size(self, category: int) -> int:
        """``|A|`` for one category."""
        self._check_category(category)
        return int(self._sizes[category])

    def relative_sizes(self) -> np.ndarray:
        """``f_A = |A| / |V|`` for every category (Eq. 2)."""
        if self.num_nodes == 0:
            return np.zeros(self._num_categories)
        return self._sizes / self.num_nodes

    def volumes(self, graph: Graph) -> np.ndarray:
        """``vol(A)`` for every category (Eq. 1), shape ``(C,)``."""
        self._check_graph(graph)
        vols = np.zeros(self._num_categories, dtype=np.int64)
        np.add.at(vols, self._labels, graph.degrees())
        return vols

    def relative_volumes(self, graph: Graph) -> np.ndarray:
        """``f^vol_A = vol(A) / vol(V)`` for every category (Eq. 2)."""
        total = graph.volume()
        if total == 0:
            return np.zeros(self._num_categories)
        return self.volumes(graph) / total

    def mean_degrees(self, graph: Graph) -> np.ndarray:
        """``k_A`` (average degree inside each category, Section 4.1.2).

        Empty categories get ``nan``.
        """
        self._check_graph(graph)
        vols = self.volumes(graph).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self._sizes > 0, vols / self._sizes, np.nan)

    # ------------------------------------------------------------------
    # Transformations (all return new partitions)
    # ------------------------------------------------------------------
    def permute_fraction(
        self, alpha: float, rng: np.random.Generator | int | None = None
    ) -> "CategoryPartition":
        """Randomly permute the labels of a fraction ``alpha`` of nodes.

        This is the paper's community-tightness knob (Section 6.2.1):
        ``alpha=0`` keeps categories aligned with communities; ``alpha=1``
        decouples them entirely. Category sizes are preserved exactly
        because labels are *permuted*, not resampled.
        """
        if not 0.0 <= alpha <= 1.0:
            raise PartitionError(f"alpha must be in [0, 1], got {alpha}")
        gen = ensure_rng(rng)
        labels = self._labels.copy()
        count = int(round(alpha * len(labels)))
        if count >= 2:
            chosen = gen.choice(len(labels), size=count, replace=False)
            shuffled = gen.permutation(chosen)
            labels[chosen] = self._labels[shuffled]
        return CategoryPartition(labels, names=self._names, num_categories=self._num_categories)

    def merge(
        self, groups: Mapping[str, Iterable[int]] | Mapping[str, Iterable[str]]
    ) -> "CategoryPartition":
        """Merge categories into super-categories (e.g. regions → country).

        Parameters
        ----------
        groups:
            ``{new_name: iterable of old category indices or names}``.
            Every old category must appear in exactly one group.
        """
        assignment = np.full(self._num_categories, -1, dtype=np.int64)
        new_names = sorted(groups)
        for new_idx, new_name in enumerate(new_names):
            for old in groups[new_name]:
                old_idx = self.index_of(old) if isinstance(old, str) else int(old)
                self._check_category(old_idx)
                if assignment[old_idx] != -1:
                    raise PartitionError(
                        f"category {old_idx} assigned to two groups"
                    )
                assignment[old_idx] = new_idx
        if np.any(assignment == -1):
            missing = int(np.flatnonzero(assignment == -1)[0])
            raise PartitionError(f"category {missing} not assigned to any group")
        return CategoryPartition(
            assignment[self._labels], names=new_names, num_categories=len(new_names)
        )

    def keep_top(self, k: int, rest_name: str = "rest") -> "CategoryPartition":
        """Keep the ``k`` largest categories; lump the rest into one.

        Mirrors the paper's Section 6.3.1 construction (50 largest
        communities become categories; everything else becomes the 51st).
        Kept categories are re-indexed ``0..k-1`` by decreasing size; the
        lumped category, when non-empty, gets index ``k``.
        """
        if k <= 0:
            raise PartitionError(f"k must be positive, got {k}")
        order = np.argsort(-self._sizes, kind="stable")
        top = order[: min(k, self._num_categories)]
        mapping = np.full(self._num_categories, len(top), dtype=np.int64)
        mapping[top] = np.arange(len(top))
        has_rest = len(top) < self._num_categories and bool(
            np.any(self._sizes[order[len(top) :]] > 0)
        )
        names = [self.names[i] for i in top]
        if has_rest or len(top) < self._num_categories:
            names.append(rest_name)
            total = len(top) + 1
        else:
            total = len(top)
        return CategoryPartition(mapping[self._labels], names=names, num_categories=total)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def _check_category(self, c: int) -> None:
        if not 0 <= c < self._num_categories:
            raise PartitionError(f"category {c} outside [0, {self._num_categories})")

    def _check_graph(self, graph: Graph) -> None:
        if graph.num_nodes != self.num_nodes:
            raise PartitionError(
                f"partition covers {self.num_nodes} nodes but graph has "
                f"{graph.num_nodes}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CategoryPartition):
            return NotImplemented
        return (
            self._num_categories == other._num_categories
            and np.array_equal(self._labels, other._labels)
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash((self._labels.tobytes(), self._num_categories, self.names))

    def __repr__(self) -> str:
        return (
            f"CategoryPartition(num_nodes={self.num_nodes}, "
            f"num_categories={self._num_categories})"
        )
