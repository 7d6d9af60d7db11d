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
  to the :mod:`repro.core` estimator families.

Rows and reduction reuse the production ``_rung_rows`` and
``_reduce_stacks``, so any divergence points at sampling or at the
ladder. The fast paths must match these sweeps bit for bit
(``tests/stats/test_golden_sweep.py``, ``tests/stats/test_prefix.py``,
``benchmarks/bench_walks.py``).

Observation keeps its arc-scan twin: :func:`reference_observe_both`
builds the star histogram and the induced edges from one pass over the
graph's arcs per sample, where production gathers rows of per-graph
planes (``tests/sampling/test_observation_planes.py``).

The substrate build keeps its seed twins here too: the ``np.unique`` +
``lexsort`` CSR build, the per-node BFS component labelling, and the
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

from repro.core.category_size import estimate_sizes_induced, estimate_sizes_star
from repro.core.edge_weight import estimate_weights_induced, estimate_weights_star
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
from repro.stats.prefix import RungEstimates
from repro.stats.replication import (
    KINDS,
    SweepSpec,
    _reduce_stacks,
    _rung_rows,
)

__all__ = [
    "reference_components",
    "reference_csr",
    "reference_inter_category_edges",
    "reference_observe_both",
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
    return _reduce_stacks(
        spec.sizes, size_stacks, weight_stacks, truth, spec.truth_mode
    )


def _subset_rung(star_full, induced_full, size, n_pop, mean_degree_model):
    """One rung: re-subset the full observations to the first ``size``
    draws and run the four estimator families from scratch."""
    prefix = np.arange(int(size))
    star_obs = star_full.subset_draws(prefix)
    induced_obs = induced_full.subset_draws(prefix)
    return RungEstimates(
        sizes_induced=estimate_sizes_induced(induced_obs, n_pop),
        sizes_star=estimate_sizes_star(
            star_obs, n_pop, mean_degree_model=mean_degree_model
        ),
        weights_induced=estimate_weights_induced(induced_obs),
        weights_star=partial(estimate_weights_star, star_obs),
    )


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
