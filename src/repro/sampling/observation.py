"""The two measurement scenarios of Section 3.2 (Fig. 2).

Sampling tells us *which* nodes we drew; measurement tells us *what we
learn* about each draw:

* **Induced subgraph sampling** — the categories of the sampled nodes,
  and the edges among sampled nodes, only.
* **Star sampling** — additionally, the categories of *all* neighbors
  of each sampled node (and hence its degree). Neighbor identities
  beyond their categories are not needed (labeled star sampling).

Estimators in :mod:`repro.core` consume these observation objects and
nothing else, so the information model of the paper is enforced by
construction: an induced observation physically lacks the data a star
estimator would need.

Both observations store the sample in *distinct-node compressed* form:
the draw list (with replacement, order preserved via
``draw_to_distinct``) references a table of distinct nodes with their
categories, sampling weights, and multiplicities. Estimator algebra over
the multiset reduces to multiplicity-weighted sums over the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.adjacency import Graph, gather_runs
from repro.graph.partition import CategoryPartition
from repro.graph.storage import DEFAULT_CHUNK_ARCS
from repro.sampling.base import NodeSample

__all__ = [
    "InducedObservation",
    "StarObservation",
    "observe_induced",
    "observe_star",
    "observe_both",
    "observation_planes",
]


@dataclass(frozen=True)
class _ObservationBase:
    """Data shared by both measurement scenarios."""

    #: Category names (defines the category indexing of the estimate).
    names: tuple[str, ...]
    #: Draw count ``|S|`` (with multiplicity).
    num_draws: int
    #: For each draw, the row in the distinct-node table.
    draw_to_distinct: np.ndarray
    #: Distinct node ids (for debugging/bootstrap only; estimators never
    #: dereference them into a graph).
    distinct_nodes: np.ndarray
    #: Category index of each distinct node.
    distinct_categories: np.ndarray
    #: Draw multiplicity of each distinct node.
    distinct_multiplicities: np.ndarray
    #: Sampling weight ``w(v)`` of each distinct node.
    distinct_weights: np.ndarray
    #: Whether the design was uniform (Section 4 vs Section 5 estimators).
    uniform: bool
    #: Producing design name.
    design: str

    @property
    def num_categories(self) -> int:
        """Number of categories ``|C|``."""
        return len(self.names)

    @property
    def num_distinct(self) -> int:
        """Number of distinct sampled nodes."""
        return len(self.distinct_nodes)

    def _memo(self, key, compute):
        """Cache a derived aggregate on this (immutable) observation.

        The four estimator families share several reductions per sweep
        rung (``reweighted_sizes`` alone is needed by all of them);
        memoizing keeps each O(distinct) pass single. Cached arrays are
        frozen read-only so sharing is safe.
        """
        cache = self.__dict__.get("_memo_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo_cache", cache)
        if key not in cache:
            value = compute()
            value.flags.writeable = False
            cache[key] = value
        return cache[key]

    def category_draw_counts(self) -> np.ndarray:
        """``|S_A|`` for every category (with multiplicity), shape (C,)."""
        return self._memo(
            "draw_counts",
            lambda: np.bincount(
                self.distinct_categories,
                weights=self.distinct_multiplicities,
                minlength=self.num_categories,
            ).astype(np.int64),
        )

    def reweighted_sizes(self) -> np.ndarray:
        """``w^{-1}(S_A) = sum_{v in S_A} 1 / w(v)`` per category (Sec. 5.1).

        Under a uniform design this equals ``|S_A|``.
        """
        return self._memo(
            "reweighted",
            lambda: np.bincount(
                self.distinct_categories,
                weights=self.distinct_multiplicities / self.distinct_weights,
                minlength=self.num_categories,
            ),
        )


@dataclass(frozen=True)
class InducedObservation(_ObservationBase):
    """Induced-subgraph measurement (Section 3.2.1).

    ``induced_edges`` lists the edges among *distinct* sampled nodes as
    pairs of rows into the distinct table; the multiset pair counts of
    Eq. (8)/(15) are recovered with multiplicity products.
    """

    induced_edges: np.ndarray = None  # (m, 2) distinct-row pairs

    def __post_init__(self) -> None:
        if self.induced_edges is None:
            object.__setattr__(
                self, "induced_edges", np.empty((0, 2), dtype=np.int64)
            )

    def subset_draws(self, draw_indices: np.ndarray) -> "InducedObservation":
        """Observation restricted to a subset/resample of draws.

        Used by bootstrap variance estimation and sample-size sweeps.
        ``draw_indices`` indexes the original draw list (repeats allowed).
        """
        return _subset(self, draw_indices, induced=True)


@dataclass(frozen=True)
class StarObservation(_ObservationBase):
    """Star measurement (Section 3.2.2).

    Per distinct node we store its degree and the category histogram of
    its neighborhood in CSR form: the neighbor categories of distinct
    node ``i`` are ``neighbor_categories[neighbor_indptr[i]:neighbor_indptr[i+1]]``
    with multiplicities ``neighbor_counts[...]``. ``|E_{a,B}|`` of
    Eq. (9)/(16) is a direct lookup.
    """

    distinct_degrees: np.ndarray = None
    neighbor_indptr: np.ndarray = None
    neighbor_categories: np.ndarray = None
    neighbor_counts: np.ndarray = None

    def __post_init__(self) -> None:
        for name in (
            "distinct_degrees",
            "neighbor_indptr",
            "neighbor_categories",
            "neighbor_counts",
        ):
            if getattr(self, name) is None:
                raise SamplingError(f"StarObservation requires {name}")

    def neighbor_category_matrix(self, weighted: bool) -> np.ndarray:
        """Aggregate ``M[A, B] = sum_{draws a in S_A} |E_{a,B}| (/w(a))``.

        The multiset sum over draws of the per-node neighbor histograms,
        optionally divided by the draw weight — the numerator machinery
        of Eqs. (7), (9), (13), (16).
        """

        def compute() -> np.ndarray:
            c = self.num_categories
            lengths = np.diff(self.neighbor_indptr)
            rows = np.repeat(self.distinct_categories, lengths)
            scale = self.distinct_multiplicities.astype(float)
            if weighted:
                scale = scale / self.distinct_weights
            per_entry = np.repeat(scale, lengths)
            return np.bincount(
                rows * np.int64(c) + self.neighbor_categories,
                weights=per_entry * self.neighbor_counts,
                minlength=c * c,
            ).reshape(c, c)

        return self._memo(("neighbor_matrix", weighted), compute)

    def degree_totals(self, weighted: bool) -> np.ndarray:
        """``sum_{v in S_A} deg(v) (/w(v))`` per category, shape (C,)."""

        def compute() -> np.ndarray:
            scale = self.distinct_multiplicities.astype(float)
            if weighted:
                scale = scale / self.distinct_weights
            return np.bincount(
                self.distinct_categories,
                weights=scale * self.distinct_degrees,
                minlength=self.num_categories,
            )

        return self._memo(("degree_totals", weighted), compute)

    def subset_draws(self, draw_indices: np.ndarray) -> "StarObservation":
        """Observation restricted to a subset/resample of draws."""
        return _subset(self, draw_indices, induced=False)


def observe_induced(
    graph: Graph, partition: CategoryPartition, sample: NodeSample
) -> InducedObservation:
    """Measure a sample under induced subgraph sampling."""
    return _observe(graph, partition, sample, star=False)[0]


def observe_star(
    graph: Graph, partition: CategoryPartition, sample: NodeSample
) -> StarObservation:
    """Measure a sample under (labeled) star sampling."""
    return _observe(graph, partition, sample, induced=False)[1]


def observe_both(
    graph: Graph, partition: CategoryPartition, sample: NodeSample
) -> tuple[InducedObservation, StarObservation]:
    """Both measurement scenarios of one sample (what every sweep ladder
    needs); identical to the two separate calls."""
    return _observe(graph, partition, sample)


def observation_planes(graph: Graph, partition: CategoryPartition) -> tuple:
    """The sample-independent planes every ``observe_*`` call gathers:
    ``graph.upper_edges`` and ``partition.neighbor_histogram(graph)``,
    each built on first use and cached."""
    return graph.upper_edges, partition.neighbor_histogram(graph)


def _observe(
    graph: Graph,
    partition: CategoryPartition,
    sample: NodeSample,
    induced: bool = True,
    star: bool = True,
) -> tuple["InducedObservation | None", "StarObservation | None"]:
    """Compress the draws, then gather the requested views from the planes.

    Distinct rows ascend with node id, so for two sampled nodes
    ``row(v) > row(u)`` exactly when ``v > u``: masking the upper-edge
    plane by membership lists the induced edges in the order a scan of
    the arcs would, and the histogram rows list categories ascending.
    ``induced_edges`` is column-major: each endpoint column is contiguous.
    """
    base, position = _compress(graph, partition, sample)
    distinct = base["distinct_nodes"]
    induced_obs = star_obs = None
    if induced:
        if position is None:
            position = np.full(graph.num_nodes, -1, dtype=np.int64)
            position[distinct] = np.arange(len(distinct))
        induced_obs = InducedObservation(
            induced_edges=_induced_edges(graph.upper_edges, position), **base
        )
    if star:
        hist_indptr, categories, counts = partition.neighbor_histogram(graph)
        nbr_indptr, entries = gather_runs(hist_indptr, distinct)
        indptr = graph.indptr
        star_obs = StarObservation(
            distinct_degrees=indptr[distinct + 1] - indptr[distinct],
            neighbor_indptr=nbr_indptr,
            neighbor_categories=categories[entries].astype(np.int64),
            neighbor_counts=counts[entries].astype(np.int64),
            **base,
        )
    return induced_obs, star_obs


def _induced_edges(upper: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Distinct-row pairs of the upper edges with both ends sampled, in
    plane (CSR) order, as an ``(m, 2)`` column-major array: bounded blocks
    of the plane are filtered, then gathered straight into the output."""
    member = position >= 0
    step = DEFAULT_CHUNK_ARCS
    blocks = [slice(lo, lo + step) for lo in range(0, upper.shape[1], step)]
    kept = [np.flatnonzero(member[upper[0, b]] & member[upper[1, b]]) for b in blocks]
    out = np.empty((2, sum(map(len, kept))), dtype=np.int64)
    at = 0
    for b, sel in zip(blocks, kept):
        for row in (0, 1):
            out[row, at : at + len(sel)] = position[upper[row, b].take(sel)]
        at += len(sel)
    return out.T


def _compress(
    graph: Graph, partition: CategoryPartition, sample: NodeSample
) -> tuple[dict, "np.ndarray | None"]:
    """Shared draw-list → distinct-table compression.

    Returns the observation base fields plus, when cheaply available,
    the node-id -> distinct-row map (-1 for unsampled nodes) for reuse
    by the induced-edge mask.
    """
    if partition.num_nodes != graph.num_nodes:
        raise SamplingError("partition node count does not match the graph")
    if sample.size == 0:
        raise SamplingError("cannot observe an empty sample")
    if sample.nodes.max() >= graph.num_nodes or sample.nodes.min() < 0:
        raise SamplingError("sample references nodes outside the graph")
    position = None
    if graph.num_nodes <= max(4 * sample.size, 1 << 20):
        # Dense histogram over the node space: O(n + N) and identical
        # output to np.unique (sorted distinct ids), skipping its sort.
        histogram = np.bincount(sample.nodes, minlength=graph.num_nodes)
        distinct = np.flatnonzero(histogram)
        multiplicities = histogram[distinct]
        # -1 for non-members, so the array doubles as the membership map
        # the induced-edge mask needs.
        position = np.full(graph.num_nodes, -1, dtype=np.int64)
        position[distinct] = np.arange(len(distinct))
        draw_to_distinct = position[sample.nodes]
    else:
        distinct, draw_to_distinct, multiplicities = np.unique(
            sample.nodes, return_inverse=True, return_counts=True
        )
    # Weights are per-node for every design in this library; verify that
    # repeated draws of a node agree, then keep one weight per distinct.
    weights = np.zeros(len(distinct))
    weights[draw_to_distinct] = sample.weights
    spread = weights[draw_to_distinct]
    # Exact equality is the overwhelmingly common case; only fall back
    # to the tolerance check when something actually differs.
    if not np.array_equal(spread, sample.weights) and not np.allclose(
        spread, sample.weights
    ):
        raise SamplingError(
            "sample weights differ across draws of the same node"
        )
    base = {
        "names": partition.names,
        "num_draws": sample.size,
        "draw_to_distinct": draw_to_distinct.astype(np.int64),
        "distinct_nodes": distinct.astype(np.int64),
        "distinct_categories": partition.labels[distinct],
        "distinct_multiplicities": multiplicities.astype(np.int64),
        "distinct_weights": weights,
        "uniform": sample.uniform,
        "design": sample.design,
    }
    return base, position


def _subset(observation, draw_indices: np.ndarray, induced: bool):
    """Restrict an observation to a resampled/truncated draw list."""
    draw_indices = np.asarray(draw_indices, dtype=np.int64)
    if len(draw_indices) == 0:
        raise SamplingError("subset must keep at least one draw")
    if draw_indices.min() < 0 or draw_indices.max() >= observation.num_draws:
        raise SamplingError("draw indices outside the original sample")
    old_rows = observation.draw_to_distinct[draw_indices]
    kept_rows, new_draw_to_distinct, multiplicities = np.unique(
        old_rows, return_inverse=True, return_counts=True
    )
    base = {
        "names": observation.names,
        "num_draws": len(draw_indices),
        "draw_to_distinct": new_draw_to_distinct.astype(np.int64),
        "distinct_nodes": observation.distinct_nodes[kept_rows],
        "distinct_categories": observation.distinct_categories[kept_rows],
        "distinct_multiplicities": multiplicities.astype(np.int64),
        "distinct_weights": observation.distinct_weights[kept_rows],
        "uniform": observation.uniform,
        "design": observation.design,
    }
    remap = np.full(observation.num_distinct, -1, dtype=np.int64)
    remap[kept_rows] = np.arange(len(kept_rows))
    if induced:
        rows_u, rows_v = remap[observation.induced_edges.T]
        kept = (rows_u >= 0) & (rows_v >= 0)
        return InducedObservation(
            induced_edges=np.column_stack((rows_u[kept], rows_v[kept])), **base
        )
    # Star: slice the neighbor CSR down to the kept rows.
    new_indptr, entries = gather_runs(observation.neighbor_indptr, kept_rows)
    return StarObservation(
        distinct_degrees=observation.distinct_degrees[kept_rows],
        neighbor_indptr=new_indptr,
        neighbor_categories=observation.neighbor_categories[entries],
        neighbor_counts=observation.neighbor_counts[entries],
        **base,
    )
