"""Statistical and structural tests for the sampling designs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SamplingError
from repro.generators import gnm, planted_category_graph
from repro.graph import CategoryPartition, Graph
from repro.sampling import (
    BreadthFirstSampler,
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
    WeightedIndependenceSampler,
    WeightedRandomWalkSampler,
)


@pytest.fixture(scope="module")
def medium_graph() -> Graph:
    """A connected random graph for walk statistics."""
    g = gnm(300, 1800, rng=0)
    from repro.graph import is_connected

    assert is_connected(g)
    return g


class TestUis:
    def test_nodes_in_range_and_uniform_flag(self, medium_graph):
        s = UniformIndependenceSampler(medium_graph).sample(5000, rng=0)
        assert s.uniform
        assert s.nodes.min() >= 0
        assert s.nodes.max() < medium_graph.num_nodes
        assert np.all(s.weights == 1.0)

    def test_approximately_uniform(self, medium_graph):
        s = UniformIndependenceSampler(medium_graph).sample(60_000, rng=1)
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        expected = 60_000 / medium_graph.num_nodes
        # chi-square-ish sanity: all counts within 6 sigma
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_empty_graph_rejected(self):
        with pytest.raises(SamplingError):
            UniformIndependenceSampler(Graph.empty(0))

    def test_bad_size(self, medium_graph):
        with pytest.raises(SamplingError):
            UniformIndependenceSampler(medium_graph).sample(0)

    def test_reproducible(self, medium_graph):
        s1 = UniformIndependenceSampler(medium_graph).sample(100, rng=5)
        s2 = UniformIndependenceSampler(medium_graph).sample(100, rng=5)
        assert np.array_equal(s1.nodes, s2.nodes)


class TestWis:
    def test_degree_weighted_frequencies(self, medium_graph):
        s = WeightedIndependenceSampler(medium_graph).sample(100_000, rng=2)
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        degrees = medium_graph.degrees()
        expected = 100_000 * degrees / degrees.sum()
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected + 1))

    def test_weights_attached(self, medium_graph):
        s = WeightedIndependenceSampler(medium_graph).sample(50, rng=0)
        assert np.array_equal(s.weights, medium_graph.degrees()[s.nodes])

    def test_custom_weights(self, medium_graph):
        w = np.ones(medium_graph.num_nodes)
        w[:10] = 100.0
        s = WeightedIndependenceSampler(medium_graph, weights=w).sample(
            20_000, rng=3
        )
        fraction_low_ids = np.mean(s.nodes < 10)
        assert fraction_low_ids > 0.5  # 1000 vs 290 total weight

    def test_bad_weight_spec(self, medium_graph):
        with pytest.raises(SamplingError):
            WeightedIndependenceSampler(medium_graph, weights="banana")

    def test_wrong_shape_weights(self, medium_graph):
        with pytest.raises(SamplingError):
            WeightedIndependenceSampler(medium_graph, weights=np.ones(3))

    def test_nonpositive_weights(self, medium_graph):
        w = np.ones(medium_graph.num_nodes)
        w[0] = 0
        with pytest.raises(SamplingError):
            WeightedIndependenceSampler(medium_graph, weights=w)

    def test_isolated_node_degree_weights_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])  # node 2 isolated
        with pytest.raises(SamplingError, match="isolated"):
            WeightedIndependenceSampler(g)


class TestRandomWalk:
    def test_steps_follow_edges(self, medium_graph):
        s = RandomWalkSampler(medium_graph, start=0).sample(500, rng=0)
        previous = 0
        for node in s.nodes:
            assert medium_graph.has_edge(previous, int(node))
            previous = int(node)

    def test_degree_proportional_visits(self, medium_graph):
        s = RandomWalkSampler(medium_graph).sample(200_000, rng=4)
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        degrees = medium_graph.degrees()
        expected = 200_000 * degrees / degrees.sum()
        # Correlated draws: allow a loose 8-sigma band.
        assert np.all(np.abs(counts - expected) < 8 * np.sqrt(expected + 1))

    def test_weights_are_degrees(self, medium_graph):
        s = RandomWalkSampler(medium_graph).sample(100, rng=0)
        assert np.array_equal(s.weights, medium_graph.degrees()[s.nodes])

    def test_burn_in_discards(self, medium_graph):
        s = RandomWalkSampler(medium_graph, start=0, burn_in=10).sample(50, rng=0)
        assert s.size == 50

    def test_invalid_start(self, medium_graph):
        with pytest.raises(SamplingError):
            RandomWalkSampler(medium_graph, start=10_000)

    def test_negative_burn_in(self, medium_graph):
        with pytest.raises(SamplingError):
            RandomWalkSampler(medium_graph, burn_in=-1)

    def test_edgeless_graph_rejected(self):
        with pytest.raises(SamplingError):
            RandomWalkSampler(Graph.empty(5))


class TestMhrw:
    def test_uniform_flag_and_weights(self, medium_graph):
        s = MetropolisHastingsSampler(medium_graph).sample(100, rng=0)
        assert s.uniform
        assert np.all(s.weights == 1.0)

    def test_asymptotically_uniform(self, medium_graph):
        s = MetropolisHastingsSampler(medium_graph).sample(300_000, rng=5)
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        expected = 300_000 / medium_graph.num_nodes
        # MHRW mixes slowly; generous tolerance on the extremes.
        assert abs(counts.mean() - expected) < 1e-9
        assert counts.min() > 0.3 * expected
        assert counts.max() < 3.0 * expected

    def test_rejections_repeat_nodes(self, medium_graph):
        s = MetropolisHastingsSampler(medium_graph).sample(5000, rng=6)
        repeats = np.sum(s.nodes[1:] == s.nodes[:-1])
        assert repeats > 0  # rejections must occur on a non-regular graph


class TestWeightedWalk:
    def test_unit_weights_match_rw_distribution(self, medium_graph):
        arc_weights = np.ones(len(medium_graph.indices))
        s = WeightedRandomWalkSampler(medium_graph, arc_weights).sample(
            100_000, rng=7
        )
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        degrees = medium_graph.degrees()
        expected = 100_000 * degrees / degrees.sum()
        assert np.all(np.abs(counts - expected) < 8 * np.sqrt(expected + 1))

    def test_strength_weights_attached(self, medium_graph):
        arc_weights = np.full(len(medium_graph.indices), 2.0)
        sampler = WeightedRandomWalkSampler(medium_graph, arc_weights)
        s = sampler.sample(100, rng=0)
        assert np.allclose(s.weights, 2.0 * medium_graph.degrees()[s.nodes])

    def test_wrong_shape_rejected(self, medium_graph):
        with pytest.raises(SamplingError):
            WeightedRandomWalkSampler(medium_graph, np.ones(3))

    def test_nonpositive_arc_weights_rejected(self, medium_graph):
        w = np.ones(len(medium_graph.indices))
        w[0] = 0.0
        with pytest.raises(SamplingError):
            WeightedRandomWalkSampler(medium_graph, w)


class TestRwWithJumps:
    def test_stationary_degree_plus_alpha(self, medium_graph):
        alpha = 5.0
        s = RandomWalkWithJumpsSampler(medium_graph, alpha=alpha).sample(
            200_000, rng=8
        )
        counts = np.bincount(s.nodes, minlength=medium_graph.num_nodes)
        target = medium_graph.degrees() + alpha
        expected = 200_000 * target / target.sum()
        assert np.all(np.abs(counts - expected) < 8 * np.sqrt(expected))

    def test_weights(self, medium_graph):
        s = RandomWalkWithJumpsSampler(medium_graph, alpha=3.0).sample(100, rng=0)
        assert np.allclose(s.weights, medium_graph.degrees()[s.nodes] + 3.0)

    def test_escapes_components(self):
        # Two disconnected cliques: jumps must reach both.
        g = Graph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        s = RandomWalkWithJumpsSampler(g, alpha=2.0, start=0).sample(5000, rng=9)
        assert len(np.unique(s.nodes)) == 6

    def test_invalid_alpha(self, medium_graph):
        with pytest.raises(SamplingError):
            RandomWalkWithJumpsSampler(medium_graph, alpha=0.0)


class TestStratified:
    def test_oversamples_small_categories(self):
        g, p = planted_category_graph(k=8, scale=40, rng=0)
        uis_counts = _category_counts(
            UniformIndependenceSampler(g).sample(20_000, rng=1), p
        )
        swrw_counts = _category_counts(
            StratifiedWeightedWalkSampler(g, p).sample(20_000, rng=1), p
        )
        smallest = int(np.argmin(p.sizes()))
        largest = int(np.argmax(p.sizes()))
        # S-WRW must boost the smallest category relative to UIS...
        assert swrw_counts[smallest] > 3 * max(uis_counts[smallest], 1)
        # ...and shrink the share of the largest.
        assert swrw_counts[largest] < uis_counts[largest]

    def test_gamma_zero_degenerates_to_rw(self):
        g, p = planted_category_graph(k=8, scale=40, rng=0)
        sampler = StratifiedWeightedWalkSampler(g, p, gamma=0.0)
        s = sampler.sample(2000, rng=2)
        # omega == 1 for all nodes: strengths equal degrees.
        assert np.allclose(s.weights, g.degrees()[s.nodes])

    def test_design_name(self):
        g, p = planted_category_graph(k=8, scale=40, rng=0)
        s = StratifiedWeightedWalkSampler(g, p).sample(10, rng=0)
        assert s.design == "swrw"

    def test_partition_mismatch(self):
        g, _ = planted_category_graph(k=8, scale=40, rng=0)
        bad = CategoryPartition(np.array([0, 1]))
        with pytest.raises(SamplingError):
            StratifiedWeightedWalkSampler(g, bad)

    def test_invalid_gamma(self):
        g, p = planted_category_graph(k=8, scale=40, rng=0)
        with pytest.raises(SamplingError):
            StratifiedWeightedWalkSampler(g, p, gamma=2.0)

    def test_bad_category_weights(self):
        g, p = planted_category_graph(k=8, scale=40, rng=0)
        with pytest.raises(SamplingError):
            StratifiedWeightedWalkSampler(
                g, p, category_weights=np.zeros(p.num_categories)
            )


class TestTraversal:
    def test_bfs_distinct_and_local(self, medium_graph):
        s = BreadthFirstSampler(medium_graph, seed_node=0).sample(50, rng=0)
        assert s.num_distinct() == 50
        assert not s.uniform

    def test_bfs_order_is_breadth_first(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        s = BreadthFirstSampler(g, seed_node=0).sample(7, rng=0)
        depth = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 2}
        depths = [depth[int(v)] for v in s.nodes]
        assert depths == sorted(depths)

    def test_bfs_too_many_rejected(self, medium_graph):
        with pytest.raises(SamplingError):
            BreadthFirstSampler(medium_graph).sample(
                medium_graph.num_nodes + 1
            )

    def test_bfs_multi_seed_on_disconnected(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3)])
        s = BreadthFirstSampler(g, seed_node=0).sample(6, rng=0)
        assert s.num_distinct() == 6


def _category_counts(sample, partition) -> np.ndarray:
    counts = np.zeros(partition.num_categories, dtype=np.int64)
    np.add.at(counts, partition.labels[sample.nodes], 1)
    return counts
