"""Incremental-vs-subset equivalence for the prefix ladder.

Two contracts from ``repro.stats.prefix``:

* the ladder's fold state is the ``subset_draws`` prefix:
  ``tests.oracles.reference_prefix_observations`` materialises it as
  observations whose every field equals
  ``observe_*(...).subset_draws(np.arange(size))``;
* ``IncrementalPrefixLadder.estimates`` (the sweep fast path) returns
  estimates bit-for-bit equal to the seed estimator bodies frozen in
  ``tests.oracles.reference_estimates``, evaluated on those subset
  observations — for all four families, across designs, both
  mean-degree models, and degenerate samples. The public
  :mod:`repro.core` estimators must equal the same oracle: ladder and
  ``core`` share one copy of each formula, so comparing them with each
  other would not catch a changed formula.

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
from repro.graph import CategoryPartition, Graph
from repro.sampling import (
    MetropolisHastingsSampler,
    NodeSample,
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
from tests.oracles import (
    reference_estimates,
    reference_prefix_observations,
    reference_sweep,
    reference_sweep_from_samples,
)

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
            induced_inc, star_inc = reference_prefix_observations(
                ladder, size
            )
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


def _degenerate_samples():
    """Three categories of three nodes; nodes 2, 5 and 8 are isolated."""
    graph = Graph.from_edges(9, [(0, 1), (0, 3), (1, 4), (3, 6), (4, 7)])
    partition = CategoryPartition.from_blocks([3, 3, 3])
    draws = {
        # Every draw isolated: vol(S) = 0, so the star sizes are NaN.
        "isolated": [2, 5, 2, 8],
        # Degrees > 0 but no two draws adjacent: no induced edges.
        "no-induced-edges": [0, 4, 6, 0],
        # Category 2 is never drawn, though node 3 has a neighbor in it.
        "empty-category": [0, 1, 3, 0, 4],
    }
    return graph, partition, {
        name: NodeSample(nodes, 1.0 + 0.25 * np.asarray(nodes), design=name)
        for name, nodes in draws.items()
    }


class TestEstimateEquivalence:
    """Ladder and public ``core`` estimators against the frozen seed bodies."""

    @staticmethod
    def _check_against_oracle(graph, partition, sample, ladder_sizes, model):
        induced_full = observe_induced(graph, partition, sample)
        star_full = observe_star(graph, partition, sample)
        ladder = IncrementalPrefixLadder(graph, partition, sample)
        n_pop = graph.num_nodes
        for size in ladder_sizes:
            prefix = np.arange(size)
            induced_obs = induced_full.subset_draws(prefix)
            star_obs = star_full.subset_draws(prefix)
            expected = reference_estimates(induced_obs, star_obs, n_pop, model)
            rung = ladder.estimates(size, n_pop, mean_degree_model=model)
            core_sizes_star = estimate_sizes_star(
                star_obs, n_pop, mean_degree_model=model
            )
            where = (sample.design, model, size)
            for got in (rung.sizes_induced, estimate_sizes_induced(induced_obs, n_pop)):
                assert _eq(got, expected.sizes_induced), where
            for got in (rung.sizes_star, core_sizes_star):
                assert _eq(got, expected.sizes_star), where
            for got in (rung.weights_induced, estimate_weights_induced(induced_obs)):
                assert _eq(got, expected.weights_induced), where
            plugin = np.where(
                np.isfinite(expected.sizes_star),
                expected.sizes_star,
                expected.sizes_induced,
            )
            for got in (
                rung.weights_star(plugin),
                estimate_weights_star(star_obs, plugin),
            ):
                assert _eq(got, expected.weights_star(plugin)), where

    @pytest.mark.parametrize("design", ["uis", "rw", "mhrw", "wrw", "rwj"])
    def test_all_four_families_bit_for_bit(self, model, design):
        """Property: incremental aggregates == seed estimators on subsets."""
        graph, partition = model
        self._check_against_oracle(
            graph, partition, _samples(model)[design], LADDER, "per-category"
        )

    def test_global_mean_degree_model(self, model):
        graph, partition = model
        for sample in _samples(model).values():
            self._check_against_oracle(
                graph, partition, sample, LADDER, "global"
            )

    @pytest.mark.parametrize("mean_degree_model", ["per-category", "global"])
    @pytest.mark.parametrize(
        "case", ["isolated", "no-induced-edges", "empty-category"]
    )
    def test_degenerate_samples_bit_for_bit(self, case, mean_degree_model):
        graph, partition, samples = _degenerate_samples()
        sample = samples[case]
        self._check_against_oracle(
            graph, partition, sample, range(1, sample.size + 1),
            mean_degree_model,
        )

    def test_degenerate_samples_hit_their_corner(self):
        """The degenerate cases reach the corners they are named for."""
        graph, partition, samples = _degenerate_samples()
        n = graph.num_nodes
        star = observe_star(graph, partition, samples["isolated"])
        assert np.isnan(estimate_sizes_star(star, n)).all()
        induced = observe_induced(graph, partition, samples["no-induced-edges"])
        assert len(induced.induced_edges) == 0
        star = observe_star(graph, partition, samples["empty-category"])
        sizes = estimate_sizes_star(star, n)
        assert star.reweighted_sizes()[2] == 0 and np.isnan(sizes[2])
        assert np.isfinite(
            estimate_sizes_star(star, n, mean_degree_model="global")[2]
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


class TestInducedNumerator:
    """The Eq. (8)/(15) numerator of the ladder and the public estimator:
    ``np.bincount`` over one edge direction, then ``np.add.at`` over the
    other, in place of one ``np.bincount`` over the doubled edge list."""

    @staticmethod
    def _doubled(induced, size, reverse=False):
        """``(numerator, reweighted)`` of the prefix from one bincount
        over both directions, first direction first unless ``reverse``."""
        c = induced.num_categories
        ratios = np.bincount(
            induced.draw_to_distinct[:size], minlength=induced.num_distinct
        ) / induced.distinct_weights
        src, dst = induced.induced_edges.T
        cats_i = induced.distinct_categories[src]
        cats_j = induced.distinct_categories[dst]
        keys = (cats_i * np.int64(c) + cats_j, cats_j * np.int64(c) + cats_i)
        contributions = ratios[src] * ratios[dst]
        numerator = np.bincount(
            np.concatenate(keys[::-1] if reverse else keys),
            weights=np.concatenate((contributions, contributions)),
            minlength=c * c,
        ).reshape(c, c)
        reweighted = np.bincount(
            induced.distinct_categories, weights=ratios, minlength=c
        )
        return numerator, reweighted

    @pytest.mark.parametrize("design", ["rw", "wrw"])
    def test_matches_doubled_bincount_bit_for_bit(self, model, design):
        """RW and WRW ratios are not small integers, so the summation
        order shows in the last bits (UIS would hide an order bug)."""
        from repro.core.edge_weight import induced_weights

        graph, partition = model
        sample = _samples(model)[design]
        induced = observe_induced(graph, partition, sample)
        ladder = IncrementalPrefixLadder(graph, partition, sample)
        order_shows = False
        for size in LADDER:
            numerator, reweighted = self._doubled(induced, size)
            rung = ladder.estimates(size, graph.num_nodes)
            expected = induced_weights(numerator, reweighted)
            assert rung.weights_induced.tobytes() == expected.tobytes(), size
            swapped, _ = self._doubled(induced, size, reverse=True)
            order_shows |= swapped.tobytes() != numerator.tobytes()
        assert order_shows, "no rung's numerator depends on summation order"

    @pytest.mark.parametrize("design", ["rw", "wrw"])
    def test_public_estimator_matches_doubled_bincount_bit_for_bit(
        self, model, design
    ):
        """``estimate_weights_induced`` counts through the ladder's
        helper, so it too equals the doubled bincount."""
        from repro.core.edge_weight import induced_weights

        graph, partition = model
        sample = _samples(model)[design]
        induced = observe_induced(graph, partition, sample)
        numerator, reweighted = self._doubled(induced, sample.size)
        expected = induced_weights(numerator, reweighted)
        assert estimate_weights_induced(induced).tobytes() == expected.tobytes()

    def test_endpoint_columns_are_views_of_induced_edges(self, model):
        graph, partition = model
        ladder = IncrementalPrefixLadder(
            graph, partition, _samples(model)["rw"]
        )
        edges = ladder._induced.induced_edges
        assert edges.flags.f_contiguous and len(edges)
        assert np.shares_memory(ladder._edge_src, edges)
        assert np.shares_memory(ladder._edge_dst, edges)


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
