"""Incremental-vs-subset equivalence for the prefix ladder.

Two contracts from ``repro.stats.prefix``:

* ``IncrementalPrefixLadder.advance`` materializes observations whose
  every field equals ``observe_*(...).subset_draws(np.arange(size))``;
* ``IncrementalPrefixLadder.estimates`` (the sweep fast path) returns
  estimates bit-for-bit equal to the :mod:`repro.core` estimator
  families evaluated on those subset observations — for all four
  families, across designs.

``TestSweepEquivalence`` lifts the second contract to whole sweeps:
both entry points match the seed reference sweeps of
``tests/oracles.py`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.category_size import estimate_sizes_induced, estimate_sizes_star
from repro.core.edge_weight import estimate_weights_induced, estimate_weights_star
from repro.exceptions import EstimationError
from repro.generators import planted_category_graph
from repro.sampling import (
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    UniformIndependenceSampler,
    WeightedRandomWalkSampler,
    observe_both,
    observe_induced,
    observe_star,
)
from repro.stats import (
    IncrementalPrefixLadder,
    run_nrmse_sweep,
    run_nrmse_sweep_from_samples,
)
from tests.oracles import reference_sweep, reference_sweep_from_samples

LADDER = (37, 150, 600, 2000)


@pytest.fixture(scope="module")
def model():
    return planted_category_graph(k=8, scale=60, rng=0)


def _samples(model, n=2000):
    graph, partition = model
    arc_weights = np.abs(np.sin(np.arange(len(graph.indices)))) + 0.5
    return {
        "uis": UniformIndependenceSampler(graph).sample(n, rng=1),
        "rw": RandomWalkSampler(graph).sample(n, rng=2),
        "mhrw": MetropolisHastingsSampler(graph).sample(n, rng=3),
        "wrw": WeightedRandomWalkSampler(graph, arc_weights).sample(n, rng=4),
        "rwj": RandomWalkWithJumpsSampler(graph, alpha=5.0).sample(n, rng=5),
    }


def _eq(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        return np.array_equal(a, b, equal_nan=True)
    return np.array_equal(a, b)


class TestObservationTwins:
    @pytest.mark.parametrize("design", ["uis", "rw", "mhrw", "wrw", "rwj"])
    def test_advance_equals_subset_draws(self, model, design):
        graph, partition = model
        sample = _samples(model)[design]
        induced_full = observe_induced(graph, partition, sample)
        star_full = observe_star(graph, partition, sample)
        ladder = IncrementalPrefixLadder(graph, partition, sample)
        for size in LADDER:
            prefix = np.arange(size)
            induced_inc, star_inc = ladder.advance(size)
            induced_sub = induced_full.subset_draws(prefix)
            star_sub = star_full.subset_draws(prefix)
            for field in (
                "num_draws",
                "draw_to_distinct",
                "distinct_nodes",
                "distinct_categories",
                "distinct_multiplicities",
                "distinct_weights",
                "uniform",
                "design",
            ):
                assert _eq(
                    getattr(induced_inc, field), getattr(induced_sub, field)
                ), (design, size, field)
                assert _eq(getattr(star_inc, field), getattr(star_sub, field))
            assert _eq(induced_inc.induced_edges, induced_sub.induced_edges)
            for field in (
                "distinct_degrees",
                "neighbor_indptr",
                "neighbor_categories",
                "neighbor_counts",
            ):
                assert _eq(getattr(star_inc, field), getattr(star_sub, field))

    def test_observe_both_matches_separate_calls(self, model):
        graph, partition = model
        sample = _samples(model)["rw"]
        induced, star = observe_both(graph, partition, sample)
        induced_ref = observe_induced(graph, partition, sample)
        star_ref = observe_star(graph, partition, sample)
        assert _eq(induced.induced_edges, induced_ref.induced_edges)
        assert _eq(star.neighbor_counts, star_ref.neighbor_counts)
        assert _eq(star.neighbor_categories, star_ref.neighbor_categories)
        assert _eq(star.distinct_degrees, star_ref.distinct_degrees)


class TestEstimateEquivalence:
    @pytest.mark.parametrize("design", ["uis", "rw", "mhrw", "wrw", "rwj"])
    def test_all_four_families_bit_for_bit(self, model, design):
        """Property: incremental aggregates == subset_draws estimates."""
        graph, partition = model
        sample = _samples(model)[design]
        induced_full = observe_induced(graph, partition, sample)
        star_full = observe_star(graph, partition, sample)
        ladder = IncrementalPrefixLadder(graph, partition, sample)
        n_pop = graph.num_nodes
        for size in LADDER:
            prefix = np.arange(size)
            induced_obs = induced_full.subset_draws(prefix)
            star_obs = star_full.subset_draws(prefix)
            rung = ladder.estimates(size, n_pop)
            expected_sizes_induced = estimate_sizes_induced(induced_obs, n_pop)
            expected_sizes_star = estimate_sizes_star(star_obs, n_pop)
            assert _eq(rung.sizes_induced, expected_sizes_induced), (design, size)
            assert _eq(rung.sizes_star, expected_sizes_star), (design, size)
            assert _eq(
                rung.weights_induced, estimate_weights_induced(induced_obs)
            ), (design, size)
            plugin = np.where(
                np.isfinite(expected_sizes_star),
                expected_sizes_star,
                expected_sizes_induced,
            )
            assert _eq(
                rung.weights_star(plugin),
                estimate_weights_star(star_obs, plugin),
            ), (design, size)

    def test_global_mean_degree_model(self, model):
        graph, partition = model
        sample = _samples(model)["rw"]
        star_full = observe_star(graph, partition, sample)
        ladder = IncrementalPrefixLadder(graph, partition, sample)
        for size in LADDER:
            star_obs = star_full.subset_draws(np.arange(size))
            rung = ladder.estimates(
                size, graph.num_nodes, mean_degree_model="global"
            )
            assert _eq(
                rung.sizes_star,
                estimate_sizes_star(
                    star_obs, graph.num_nodes, mean_degree_model="global"
                ),
            )

    def test_unknown_mean_degree_model_rejected(self, model):
        graph, partition = model
        ladder = IncrementalPrefixLadder(
            graph, partition, _samples(model)["uis"]
        )
        with pytest.raises(EstimationError, match="mean_degree_model"):
            ladder.estimates(100, graph.num_nodes, mean_degree_model="banana")

    def test_prefix_sizes_must_increase(self, model):
        graph, partition = model
        ladder = IncrementalPrefixLadder(graph, partition, _samples(model)["uis"])
        ladder.estimates(100, graph.num_nodes)
        with pytest.raises(EstimationError, match="increase"):
            ladder.estimates(100, graph.num_nodes)
        with pytest.raises(EstimationError, match="increase"):
            ladder.estimates(50, graph.num_nodes)

    def test_prefix_beyond_sample_rejected(self, model):
        graph, partition = model
        ladder = IncrementalPrefixLadder(graph, partition, _samples(model)["uis"])
        with pytest.raises(EstimationError, match="outside"):
            ladder.estimates(10_000, graph.num_nodes)


class TestSweepEquivalence:
    def test_incremental_ladder_matches_subset_ladder(self, model):
        graph, partition = model
        walks = [
            RandomWalkSampler(graph).sample(2000, rng=seed) for seed in range(5)
        ]
        fast = run_nrmse_sweep_from_samples(graph, partition, walks, LADDER)
        reference = reference_sweep_from_samples(
            graph, partition, walks, LADDER
        )
        for kind in ("induced", "star"):
            assert _eq(fast.size_nrmse[kind], reference.size_nrmse[kind])
            assert _eq(fast.weight_nrmse[kind], reference.weight_nrmse[kind])
            assert _eq(fast.size_coverage[kind], reference.size_coverage[kind])
            assert _eq(
                fast.weight_coverage[kind], reference.weight_coverage[kind]
            )

    def test_batched_engine_matches_sequential(self, model):
        graph, partition = model
        fast = run_nrmse_sweep(
            graph,
            partition,
            lambda: RandomWalkSampler(graph),
            LADDER,
            replications=6,
            rng=0,
        )
        reference = reference_sweep(
            graph,
            partition,
            lambda: RandomWalkSampler(graph),
            LADDER,
            replications=6,
            rng=0,
        )
        for kind in ("induced", "star"):
            assert _eq(fast.size_nrmse[kind], reference.size_nrmse[kind])
            assert _eq(fast.weight_nrmse[kind], reference.weight_nrmse[kind])

    def test_sampler_instance_accepted(self, model):
        graph, partition = model
        by_instance = run_nrmse_sweep(
            graph, partition, RandomWalkSampler(graph), (200,),
            replications=3, rng=1,
        )
        by_factory = run_nrmse_sweep(
            graph, partition, lambda: RandomWalkSampler(graph), (200,),
            replications=3, rng=1,
        )
        assert _eq(
            by_instance.size_nrmse["star"], by_factory.size_nrmse["star"]
        )
