"""Reference sweeps: the seed algorithms the fast sweep paths are pinned to.

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
``benchmarks/bench_walks.py``). Import as ``tests.oracles`` with the
repository root on ``sys.path`` (``python -m pytest`` from the root).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.category_size import estimate_sizes_induced, estimate_sizes_star
from repro.core.edge_weight import estimate_weights_induced, estimate_weights_star
from repro.graph.category_graph import true_category_graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling.base import Sampler
from repro.sampling.observation import observe_induced, observe_star
from repro.stats.prefix import RungEstimates
from repro.stats.replication import (
    KINDS,
    SweepSpec,
    _reduce_stacks,
    _rung_rows,
)

__all__ = ["reference_sweep", "reference_sweep_from_samples"]


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
