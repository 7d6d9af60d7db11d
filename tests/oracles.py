"""Reference twins: the seed algorithms the fast paths are pinned to.

Production sweeps (:func:`repro.stats.run_nrmse_sweep` and
:func:`~repro.stats.run_nrmse_sweep_from_samples`) draw every replicate
through the batched frontier kernels and step each replicate's ladder
through :class:`~repro.stats.prefix.IncrementalPrefixLadder`. This
module keeps the slow, obviously-correct twin of both phases:

* **sampling** — a fresh sampler per replicate, each calling
  ``sample(n, rng=stream)`` on its own stream from
  :func:`repro.rng.spawn_rngs`;
* **the ladder** — full ``observe_star``/``observe_induced``
  observations, re-subset at every rung via ``subset_draws`` and fed
  to :func:`reference_estimates`, the seed bodies of the four
  estimator families (Eqs. 4-16) frozen here. Production writes each
  formula once in :mod:`repro.core` and the ladder calls it, so only a
  copy kept apart from ``src/`` can tell a changed formula from an
  unchanged one.

Rows reuse the production ``_rung_rows``, so any divergence points at
sampling or at the ladder. The fast paths must match these sweeps bit
for bit (``tests/stats/test_golden_sweep.py``,
``tests/stats/test_prefix.py``, ``benchmarks/bench_walks.py``).
:func:`reference_prefix_observations` materialises a ladder's prefix
as observation objects, for the check that its fold state is the
``subset_draws`` prefix.

The reduction keeps its whole-sweep twin: :func:`reference_reduce_stacks`
fills ``(R, K, C[, C])`` stacks and reduces them once at the end, where
production streams each rung through
:class:`~repro.stats.replication.RungReducer`
(``tests/stats/test_rung_reducer.py``).

Observation keeps its arc-scan twin: :func:`reference_observe_both`
builds the star histogram and the induced edges from one pass over the
graph's arcs per sample, where production gathers rows of per-graph
planes (``tests/sampling/test_observation_planes.py``).

The substrate build keeps its seed twins here too: the ``np.unique`` +
``lexsort`` CSR build and the later one-sort-of-every-arc CSR build
(:func:`reference_sorted_csr`), the per-node BFS component labelling, and the
per-edge rejection loop that draws the planted model's inter-category
edges (``tests/graph/test_operations.py``,
``tests/graph/test_properties.py``,
``tests/generators/test_planted_sbm.py``).

Import as ``tests.oracles`` with the repository root on ``sys.path``
(``python -m pytest`` from the root).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.exceptions import EstimationError
from repro.graph.adjacency import gather_runs
from repro.graph.storage import unique_keys
from repro.graph.category_graph import true_category_graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling.base import Sampler
from repro.sampling.observation import (
    InducedObservation,
    StarObservation,
    _compress,
    observe_induced,
    observe_star,
)
from repro.stats.errors import nanmean_rows, nrmse_stack
from repro.stats.prefix import RungEstimates
from repro.stats.replication import KINDS, SweepResult, SweepSpec, _rung_rows

__all__ = [
    "reference_components",
    "reference_csr",
    "reference_sorted_csr",
    "reference_estimates",
    "reference_inter_category_edges",
    "reference_observe_both",
    "reference_prefix_observations",
    "reference_reduce_stacks",
    "reference_sweep",
    "reference_sweep_from_samples",
]


def reference_sweep(
    graph,
    partition,
    sampler_factory,
    sample_sizes,
    replications,
    rng=None,
    weight_size_plugin="star",
    mean_degree_model="per-category",
):
    """The seed twin of :func:`repro.stats.run_nrmse_sweep` (serial)."""
    spec = SweepSpec(sample_sizes, weight_size_plugin, mean_degree_model)
    n = int(spec.sizes[-1])
    samples = []
    for stream in spawn_rngs(ensure_rng(rng), replications):
        sampler = (
            sampler_factory
            if isinstance(sampler_factory, Sampler)
            else sampler_factory()
        )
        samples.append(sampler.sample(n, rng=stream))
    return _reference_ladders(graph, partition, samples, spec)


def reference_sweep_from_samples(
    graph,
    partition,
    samples,
    sample_sizes,
    weight_size_plugin="star",
    mean_degree_model="per-category",
    truth_mode="exact",
):
    """The seed twin of :func:`repro.stats.run_nrmse_sweep_from_samples`."""
    spec = SweepSpec(
        sample_sizes, weight_size_plugin, mean_degree_model, truth_mode
    )
    return _reference_ladders(graph, partition, list(samples), spec)


def _reference_ladders(graph, partition, samples, spec):
    truth = true_category_graph(graph, partition)
    n_pop = graph.num_nodes
    r, k, c = len(samples), len(spec.sizes), partition.num_categories
    size_stacks = {kind: np.full((r, k, c), np.nan) for kind in KINDS}
    weight_stacks = {kind: np.full((r, k, c, c), np.nan) for kind in KINDS}
    for rep, sample in enumerate(samples):
        star_full = observe_star(graph, partition, sample)
        induced_full = observe_induced(graph, partition, sample)
        for si, size in enumerate(spec.sizes):
            rung = _subset_rung(
                star_full, induced_full, size, n_pop, spec.mean_degree_model
            )
            rows = _rung_rows(rung, spec.weight_size_plugin, truth.sizes)
            size_stacks["induced"][rep, si] = rows[0]
            size_stacks["star"][rep, si] = rows[1]
            weight_stacks["induced"][rep, si] = rows[2]
            weight_stacks["star"][rep, si] = rows[3]
    return reference_reduce_stacks(
        spec.sizes, size_stacks, weight_stacks, truth, spec.truth_mode
    )


def reference_reduce_stacks(
    sizes, size_stacks, weight_stacks, truth, truth_mode
):
    """The seed reduction: whole ``(R, K, C[, C])`` stacks per kind,
    reduced to the NRMSE surfaces once every rung is filled in."""
    k = sizes.shape[0]
    c = truth.sizes.shape[0]
    size_nrmse, size_cov, weight_nrmse, weight_cov = {}, {}, {}, {}
    for kind in KINDS:
        if truth_mode == "cross-sample":
            size_truth = nanmean_rows(size_stacks[kind][:, -1])
            weight_truth = nanmean_rows(weight_stacks[kind][:, -1])
        else:
            size_truth = truth.sizes
            weight_truth = truth.weights
        per_size_vals = np.empty((k, c))
        per_size_cov = np.empty((k, c))
        per_pair_vals = np.empty((k, c, c))
        per_pair_cov = np.empty((k, c, c))
        for si in range(k):
            per_size_vals[si], per_size_cov[si] = nrmse_stack(
                size_stacks[kind][:, si], size_truth
            )
            per_pair_vals[si], per_pair_cov[si] = nrmse_stack(
                weight_stacks[kind][:, si], weight_truth
            )
        size_nrmse[kind] = per_size_vals
        size_cov[kind] = per_size_cov
        weight_nrmse[kind] = per_pair_vals
        weight_cov[kind] = per_pair_cov
    return SweepResult(
        sample_sizes=sizes,
        size_nrmse=size_nrmse,
        weight_nrmse=weight_nrmse,
        size_coverage=size_cov,
        weight_coverage=weight_cov,
        truth=truth,
    )


def _subset_rung(star_full, induced_full, size, n_pop, mean_degree_model):
    """One rung: re-subset the full observations to the first ``size``
    draws and run the four estimator families from scratch."""
    prefix = np.arange(int(size))
    return reference_estimates(
        induced_full.subset_draws(prefix),
        star_full.subset_draws(prefix),
        n_pop,
        mean_degree_model,
    )


def reference_estimates(induced_obs, star_obs, n_pop, mean_degree_model):
    """The four estimator families on one pair of observations, as the
    seed :mod:`repro.core` estimators computed them."""
    return RungEstimates(
        sizes_induced=_seed_sizes_induced(induced_obs, n_pop),
        sizes_star=_seed_sizes_star(star_obs, n_pop, mean_degree_model),
        weights_induced=_seed_weights_induced(induced_obs),
        weights_star=partial(_seed_weights_star, star_obs),
    )


def _seed_sizes_induced(observation, population_size):
    """Eq. (4)/(11)."""
    per_category = observation.reweighted_sizes()
    total = per_category.sum()
    if total <= 0:
        raise EstimationError("sample has no usable draws")
    return population_size * per_category / total


def _seed_sizes_star(observation, population_size, mean_degree_model):
    """Eq. (5)/(12)."""
    # Weighted degree totals: sum_{v in S_A} deg(v) / w(v), per category
    # (the numerators of Eq. 14), plus the reweighted draw counts.
    degree_totals = observation.degree_totals(weighted=True)
    reweighted = observation.reweighted_sizes()
    total_degree = degree_totals.sum()
    total_reweighted = reweighted.sum()
    if total_reweighted <= 0:
        raise EstimationError("sample has no usable draws")
    if total_degree <= 0:
        # Every sampled node is isolated: the volume-based estimator is
        # undefined (vol(S) = 0). Signal with nan rather than raising —
        # a real crawl cannot even reach this state.
        return np.full(observation.num_categories, np.nan)

    # Eq. (14): k_V and per-category k_A.
    k_global = total_degree / total_reweighted
    with np.errstate(invalid="ignore", divide="ignore"):
        k_per_category = np.where(
            reweighted > 0, degree_totals / reweighted, np.nan
        )

    # Eq. (13): f_vol(A) = [sum_s count_A(s)/w(s)] / [sum_s deg(s)/w(s)].
    neighbor_matrix = observation.neighbor_category_matrix(weighted=True)
    f_vol = neighbor_matrix.sum(axis=0) / total_degree

    if mean_degree_model == "per-category":
        k_a = k_per_category
    elif mean_degree_model == "global":
        k_a = np.full(observation.num_categories, k_global)
    else:
        raise EstimationError(
            f"unknown mean_degree_model {mean_degree_model!r}; "
            "use 'per-category' or 'global'"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        return population_size * f_vol * k_global / k_a


def _seed_weights_induced(observation):
    """Eq. (8)/(15)."""
    c = observation.num_categories
    numerator = np.zeros((c, c))
    edges = observation.induced_edges
    if len(edges):
        cats_i = observation.distinct_categories[edges[:, 0]]
        cats_j = observation.distinct_categories[edges[:, 1]]
        contributions = (
            observation.distinct_multiplicities[edges[:, 0]]
            / observation.distinct_weights[edges[:, 0]]
        ) * (
            observation.distinct_multiplicities[edges[:, 1]]
            / observation.distinct_weights[edges[:, 1]]
        )
        # One in-order histogram over both edge directions (bit-equal to
        # sequential scatter-add, ~10x faster than np.add.at).
        numerator = np.bincount(
            np.concatenate(
                (cats_i * np.int64(c) + cats_j, cats_j * np.int64(c) + cats_i)
            ),
            weights=np.concatenate((contributions, contributions)),
            minlength=c * c,
        ).reshape(c, c)
    reweighted = observation.reweighted_sizes()
    denominator = np.outer(reweighted, reweighted)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(denominator > 0, numerator / denominator, np.nan)
    np.fill_diagonal(weights, np.nan)
    return weights


def _seed_weights_star(observation, category_sizes):
    """Eq. (9)/(16)."""
    c = observation.num_categories
    category_sizes = np.asarray(category_sizes, dtype=float)
    if category_sizes.shape != (c,):
        raise EstimationError(
            f"category_sizes must have shape ({c},), got {category_sizes.shape}"
        )
    cross = observation.neighbor_category_matrix(weighted=True)
    numerator = cross + cross.T
    reweighted = observation.reweighted_sizes()
    denominator = np.outer(reweighted, category_sizes) + np.outer(
        category_sizes, reweighted
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(denominator > 0, numerator / denominator, np.nan)
    np.fill_diagonal(weights, np.nan)
    return weights


def reference_prefix_observations(ladder, size):
    """Fold ``ladder`` to ``size`` draws and materialise its prefix.

    Returns the ``(induced, star)`` observations its multiplicity state
    describes, field-for-field identical to
    ``observe_*(...).subset_draws(np.arange(size))``.
    """
    ladder._fold(size)
    induced_full, star = ladder._induced, ladder._star
    multiplicities = ladder._multiplicities
    kept = np.flatnonzero(multiplicities > 0)
    remap = np.full(star.num_distinct, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    base = {
        "names": star.names,
        "num_draws": size,
        "draw_to_distinct": remap[star.draw_to_distinct[:size]],
        "distinct_nodes": star.distinct_nodes[kept],
        "distinct_categories": star.distinct_categories[kept],
        "distinct_multiplicities": multiplicities[kept].copy(),
        "distinct_weights": star.distinct_weights[kept],
        "uniform": star.uniform,
        "design": star.design,
    }
    in_prefix = multiplicities > 0
    src = induced_full.induced_edges[:, 0]
    dst = induced_full.induced_edges[:, 1]
    mask = in_prefix[src] & in_prefix[dst]
    induced = InducedObservation(
        induced_edges=np.column_stack((remap[src[mask]], remap[dst[mask]])),
        **base,
    )
    new_indptr, entries = gather_runs(star.neighbor_indptr, kept)
    star_prefix = StarObservation(
        distinct_degrees=star.distinct_degrees[kept],
        neighbor_indptr=new_indptr,
        neighbor_categories=star.neighbor_categories[entries],
        neighbor_counts=star.neighbor_counts[entries],
        **base,
    )
    return induced, star_prefix


def reference_csr(num_nodes, edges):
    """``(indptr, indices)`` of the simple graph on ``edges``: canonical
    keys deduplicated with ``np.unique``, arcs ordered by ``lexsort``."""
    n = int(num_nodes)
    raw = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    unique_keys = np.unique(lo * np.int64(n) + hi)
    lo = unique_keys // n
    hi = unique_keys % n
    src = np.concatenate((lo, hi))
    dst = np.concatenate((hi, lo))
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    return np.cumsum(indptr), dst[order]


def reference_sorted_csr(num_nodes, chunks):
    """``(indptr, indices)`` from the concatenated ``(m, 2)`` chunks, as
    the sort-based build did before it filled keys per chunk: dedup the
    canonical keys, then sort the 2U ``src * n + dst`` arc keys."""
    n = int(num_nodes)
    raw = np.concatenate(chunks)
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    lo, hi = np.divmod(unique_keys(lo * np.int64(n) + hi), n)
    arcs = np.concatenate((lo * np.int64(n) + hi, hi * np.int64(n) + lo))
    arcs.sort()
    src, dst = np.divmod(arcs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def reference_components(graph):
    """Component id per node by iterative BFS from each unvisited node
    in id order (ids are ``0..num_components-1``)."""
    n = graph.num_nodes
    comp = np.full(n, -1, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    current = 0
    stack = []
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = current
        stack.append(start)
        while stack:
            v = stack.pop()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if comp[u] == -1:
                    comp[u] = current
                    stack.append(int(u))
        current += 1
    return comp


def reference_inter_category_edges(labels, count, gen):
    """``count`` distinct inter-label edges, accepted one draw at a time
    from the same ``gen.integers`` batches as the production face."""
    n = len(labels)
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    seen = set()
    out = np.empty((count, 2), dtype=np.int64)
    filled = 0
    while filled < count:
        batch = max(1024, 2 * (count - filled))
        us = gen.integers(0, n, size=batch)
        vs = gen.integers(0, n, size=batch)
        ok = labels[us] != labels[vs]
        for u, v in zip(us[ok], vs[ok]):
            key = (min(int(u), int(v)), max(int(u), int(v)))
            if key in seen:
                continue
            seen.add(key)
            out[filled] = key
            filled += 1
            if filled == count:
                break
    return out


def reference_observe_both(graph, partition, sample):
    """``(induced, star)`` observations from one scan of the arc list.

    The compressed draw table is production's; the star histogram keys
    every arc owned by a sampled node by ``(distinct row, neighbor
    category)`` and histograms the keys (densely, or with ``np.unique``
    once ``D * C`` outgrows the arcs), and the induced edges keep the
    arcs whose destination row exceeds their source row.
    """
    base, position = _compress(graph, partition, sample)
    distinct = base["distinct_nodes"]
    if position is None:
        position = np.full(graph.num_nodes, -1, dtype=np.int64)
        position[distinct] = np.arange(len(distinct))
    source_rows = position[graph.arc_sources]
    dest_rows = position[graph.indices]
    kept = np.flatnonzero((source_rows >= 0) & (dest_rows > source_rows))
    induced_edges = (
        np.column_stack((source_rows.take(kept), dest_rows.take(kept)))
        if len(graph.indices)
        else np.empty((0, 2), dtype=np.int64)
    )
    c = partition.num_categories
    num_distinct = len(distinct)
    indptr = graph.indptr
    degrees = (indptr[distinct + 1] - indptr[distinct]).astype(np.int64)
    nbr_indptr = np.zeros(num_distinct + 1, dtype=np.int64)
    if int(degrees.sum()):
        arc_keys = source_rows * np.int64(c) + partition.labels[graph.indices]
        key_space = num_distinct * c
        if key_space <= max(4 * int(degrees.sum()), 1 << 20):
            histogram = np.bincount(
                arc_keys + np.int64(c), minlength=key_space + c
            )[c:]
            unique_keys = np.flatnonzero(histogram)
            counts = histogram[unique_keys]
        else:
            unique_keys, counts = np.unique(
                arc_keys[source_rows >= 0], return_counts=True
            )
        nbr_cats = (unique_keys % c).astype(np.int64)
        np.add.at(nbr_indptr, unique_keys // c + 1, 1)
        np.cumsum(nbr_indptr, out=nbr_indptr)
    else:
        nbr_cats = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
    induced = InducedObservation(induced_edges=induced_edges, **base)
    star = StarObservation(
        distinct_degrees=degrees,
        neighbor_indptr=nbr_indptr,
        neighbor_categories=nbr_cats,
        neighbor_counts=counts.astype(np.int64),
        **base,
    )
    return induced, star
