"""Tests for the NRMSE sweep engine and percentile edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.generators import planted_category_graph
from repro.graph import CategoryPartition, Graph, true_category_graph
from repro.sampling import NodeSample, RandomWalkSampler, UniformIndependenceSampler
from repro.stats import (
    percentile_edge,
    positive_weight_pairs,
    run_nrmse_sweep,
    run_nrmse_sweep_from_samples,
)


@pytest.fixture(scope="module")
def model():
    graph, partition = planted_category_graph(k=8, scale=60, rng=0)
    return graph, partition


class TestPercentileEdges:
    def test_low_below_high(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        lo = percentile_edge(truth, 25)
        hi = percentile_edge(truth, 75)
        assert truth.weights[lo] <= truth.weights[hi]

    def test_extremes(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        pairs = positive_weight_pairs(truth)
        weights = truth.weights[pairs[:, 0], pairs[:, 1]]
        assert truth.weights[percentile_edge(truth, 0)] == weights.min()
        assert truth.weights[percentile_edge(truth, 100)] == weights.max()

    def test_invalid_percentile(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        with pytest.raises(EstimationError):
            percentile_edge(truth, 150)

    def test_positive_pairs_all_positive(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        pairs = positive_weight_pairs(truth)
        assert np.all(truth.weights[pairs[:, 0], pairs[:, 1]] > 0)


class TestSweep:
    def test_nrmse_decreases_with_sample_size(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (200, 2000, 20_000),
            replications=6,
            rng=0,
        )
        largest = int(np.argmax(sweep.truth.sizes))
        for kind in ("induced", "star"):
            curve = sweep.size_nrmse[kind][:, largest]
            assert curve[-1] < curve[0]

    def test_shapes(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (100, 500),
            replications=3,
            rng=1,
        )
        c = partition.num_categories
        assert sweep.size_nrmse["star"].shape == (2, c)
        assert sweep.weight_nrmse["induced"].shape == (2, c, c)
        assert sweep.size_coverage["induced"].shape == (2, c)

    def test_medians(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (500,),
            replications=3,
            rng=2,
        )
        med = sweep.median_size_nrmse("star")
        assert med.shape == (1,)
        assert np.isfinite(med[0])
        med_w = sweep.median_weight_nrmse("induced")
        assert med_w.shape == (1,)

    @pytest.mark.filterwarnings("error")
    def test_medians_are_silent_on_all_nan_rows(self):
        """An edgeless graph leaves every weight NRMSE NaN: the medians
        are NaN, with no all-NaN-slice warning."""
        graph = Graph.from_edges(12, np.empty((0, 2), dtype=np.int64))
        partition = CategoryPartition(np.arange(12) % 3)
        sweep = run_nrmse_sweep(
            graph,
            partition,
            UniformIndependenceSampler(graph),
            (4, 8),
            replications=3,
            rng=0,
        )
        for kind in ("induced", "star"):
            assert np.isnan(sweep.weight_nrmse[kind]).all()
            med = sweep.median_weight_nrmse(kind)
            assert med.shape == (2,) and np.isnan(med).all()
        assert np.isnan(sweep.median_size_nrmse("star")).all()

    def test_medians_keep_finite_rows_bytes(self, model):
        """Rows with any finite NRMSE get exactly ``np.nanmedian``'s bytes;
        only all-NaN rows are answered without it."""
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            UniformIndependenceSampler(graph),
            (50, 500),
            replications=3,
            rng=2,
        )
        sweep.size_nrmse["star"][0] = np.nan
        med = sweep.median_size_nrmse("star")
        assert np.isnan(med[0])
        want = np.nanmedian(sweep.size_nrmse["star"][1:], axis=1)
        assert med[1:].tobytes() == want.tobytes()
        pairs = np.array([[0, 1], [1, 2], [2, 3]])
        flat = sweep.weight_nrmse["star"][:, pairs[:, 0], pairs[:, 1]]
        assert (
            sweep.median_weight_nrmse("star", pairs=pairs).tobytes()
            == np.nanmedian(flat, axis=1).tobytes()
        )

    def test_from_walk_samples(self, model):
        graph, partition = model
        walks = [
            RandomWalkSampler(graph).sample(2000, rng=seed) for seed in range(4)
        ]
        sweep = run_nrmse_sweep_from_samples(
            graph, partition, walks, (200, 2000)
        )
        assert np.all(np.isfinite(sweep.median_size_nrmse("induced")))

    def test_short_samples_rejected(self, model):
        graph, partition = model
        walks = [RandomWalkSampler(graph).sample(100, rng=0)]
        with pytest.raises(EstimationError, match="at least"):
            run_nrmse_sweep_from_samples(graph, partition, walks, (200,))

    def test_empty_samples_rejected(self, model):
        graph, partition = model
        with pytest.raises(EstimationError):
            run_nrmse_sweep_from_samples(graph, partition, [], (100,))

    def test_bad_plugin_rejected(self, model):
        graph, partition = model
        walks = [UniformIndependenceSampler(graph).sample(200, rng=0)]
        with pytest.raises(EstimationError, match="plugin"):
            run_nrmse_sweep_from_samples(
                graph, partition, walks, (100,), weight_size_plugin="banana"
            )

    def test_true_plugin_beats_estimated(self, model):
        """Oracle sizes in Eq. (9) should not do worse than estimated."""
        graph, partition = model
        walks = [
            UniformIndependenceSampler(graph).sample(3000, rng=seed)
            for seed in range(6)
        ]
        with_truth = run_nrmse_sweep_from_samples(
            graph, partition, walks, (3000,), weight_size_plugin="true"
        )
        with_star = run_nrmse_sweep_from_samples(
            graph, partition, walks, (3000,), weight_size_plugin="star"
        )
        med_truth = with_truth.median_weight_nrmse("star")[0]
        med_star = with_star.median_weight_nrmse("star")[0]
        assert med_truth <= med_star * 1.35  # allow noise, forbid blowup

    def test_bad_sizes_rejected(self, model):
        graph, partition = model
        with pytest.raises(EstimationError):
            run_nrmse_sweep(
                graph,
                partition,
                lambda: UniformIndependenceSampler(graph),
                (),
                replications=2,
            )
