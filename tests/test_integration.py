"""End-to-end integration grid.

Every sampling design x measurement scenario x estimator family, run on
one shared synthetic graph, must produce sane estimates. This is the
"does the whole pipeline hold together" net under the unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    estimate_category_graph,
    estimate_sizes_induced,
    estimate_sizes_star,
    estimate_weights_induced,
    estimate_weights_star,
)
from repro.generators import planted_category_graph
from repro.graph import true_category_graph
from repro.sampling import (
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
    WeightedIndependenceSampler,
    observe_induced,
    observe_star,
)

SAMPLE_SIZE = 15_000


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=10, alpha=0.5, scale=30, rng=0)
    truth = true_category_graph(graph, partition)
    return graph, partition, truth


def _samplers(graph, partition):
    return {
        "uis": UniformIndependenceSampler(graph),
        "wis": WeightedIndependenceSampler(graph),
        "rw": RandomWalkSampler(graph),
        "mhrw": MetropolisHastingsSampler(graph),
        "rwj": RandomWalkWithJumpsSampler(graph, alpha=5.0),
        "swrw": StratifiedWeightedWalkSampler(graph, partition),
    }


DESIGNS = ("uis", "wis", "rw", "mhrw", "rwj", "swrw")


@pytest.mark.parametrize("design", DESIGNS)
def test_size_estimation_grid(world, design):
    graph, partition, truth = world
    sampler = _samplers(graph, partition)[design]
    sample = sampler.sample(SAMPLE_SIZE, rng=1)
    n = graph.num_nodes
    induced = estimate_sizes_induced(
        observe_induced(graph, partition, sample), n
    )
    star = estimate_sizes_star(observe_star(graph, partition, sample), n)
    big = truth.sizes >= 0.02 * n  # relative error meaningful
    for estimates, kind in ((induced, "induced"), (star, "star")):
        finite = np.isfinite(estimates[big])
        assert finite.all(), (design, kind)
        rel = np.abs(estimates[big] - truth.sizes[big]) / truth.sizes[big]
        assert np.all(rel < 0.5), (design, kind, rel)


@pytest.mark.parametrize("design", DESIGNS)
def test_weight_estimation_grid(world, design):
    graph, partition, truth = world
    sampler = _samplers(graph, partition)[design]
    sample = sampler.sample(SAMPLE_SIZE, rng=2)
    w_induced = estimate_weights_induced(
        observe_induced(graph, partition, sample)
    )
    w_star = estimate_weights_star(
        observe_star(graph, partition, sample), truth.sizes
    )
    mask = np.isfinite(truth.weights) & (truth.weights > 0)
    # Median relative error across pairs must be bounded for star...
    rel_star = np.abs(w_star[mask] - truth.weights[mask]) / truth.weights[mask]
    assert np.nanmedian(rel_star) < 0.6, design
    # ...and induced must at least produce finite estimates on most pairs.
    finite_fraction = np.isfinite(w_induced[mask]).mean()
    assert finite_fraction > 0.9, design


@pytest.mark.parametrize("design", ("uis", "rw", "swrw"))
def test_full_pipeline_via_high_level_api(world, design):
    graph, partition, truth = world
    sampler = _samplers(graph, partition)[design]
    sample = sampler.sample(SAMPLE_SIZE, rng=3)
    obs = observe_star(graph, partition, sample)
    estimate = estimate_category_graph(obs, population_size=graph.num_nodes)
    assert estimate.names == truth.names
    # Size totals land near N (the induced path is a ratio estimator, the
    # star path nearly so).
    assert abs(np.nansum(estimate.sizes) - graph.num_nodes) < 0.25 * graph.num_nodes
    # The heaviest true edge must be detected among the top estimates.
    true_top = {frozenset((a, b)) for a, b, _ in truth.top_edges(5)}
    est_top = {frozenset((a, b)) for a, b, _ in estimate.top_edges(10)}
    assert true_top & est_top, design


def test_estimators_never_see_the_graph(world):
    """Estimator inputs are observations only — deleting the graph after
    observation must not affect estimation (no hidden references)."""
    graph, partition, truth = world
    sample = UniformIndependenceSampler(graph).sample(5000, rng=4)
    obs_star = observe_star(graph, partition, sample)
    obs_induced = observe_induced(graph, partition, sample)
    del graph
    sizes = estimate_sizes_star(obs_star, partition.num_nodes)
    weights = estimate_weights_induced(obs_induced)
    assert np.isfinite(sizes).any()
    assert np.isfinite(weights).any()


def test_thinned_walk_still_consistent(world):
    graph, partition, truth = world
    walk = RandomWalkSampler(graph).sample(40_000, rng=5).thin(4)
    obs = observe_star(graph, partition, walk)
    sizes = estimate_sizes_star(obs, graph.num_nodes)
    big = truth.sizes >= 0.02 * graph.num_nodes
    rel = np.abs(sizes[big] - truth.sizes[big]) / truth.sizes[big]
    assert np.all(rel < 0.5)


def test_combined_walks_reduce_error(world):
    """Concatenating independent walks must not hurt (usually helps)."""
    graph, partition, truth = world
    single = RandomWalkSampler(graph).sample(4000, rng=6)
    combined = single
    for seed in (7, 8, 9):
        combined = combined.concat(RandomWalkSampler(graph).sample(4000, rng=seed))
    big = int(np.argmax(truth.sizes))

    def error(sample):
        obs = observe_star(graph, partition, sample)
        est = estimate_sizes_star(obs, graph.num_nodes)
        return abs(est[big] - truth.sizes[big]) / truth.sizes[big]

    assert error(combined) <= error(single) * 1.5
