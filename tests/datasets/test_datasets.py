"""Tests for the Table 1 dataset stand-ins and worst-case categories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    TABLE1_DATASETS,
    dataset_names,
    load_dataset,
    worst_case_categories,
)
from repro.exceptions import GenerationError
from repro.graph import is_connected


class TestRegistry:
    def test_four_paper_datasets(self):
        assert set(dataset_names()) == {
            "facebook_texas",
            "facebook_new_orleans",
            "p2p",
            "epinions",
        }

    def test_paper_statistics_recorded(self):
        spec = TABLE1_DATASETS["facebook_texas"]
        assert spec.num_nodes == 36_364
        assert spec.num_edges == 1_590_651
        assert spec.mean_degree == pytest.approx(87.5)

    def test_mean_degree_consistency(self):
        # Published k_V must match 2|E|/|V| within rounding.
        for spec in TABLE1_DATASETS.values():
            implied = 2 * spec.num_edges / spec.num_nodes
            assert abs(implied - spec.mean_degree) < 0.1


class TestLoadDataset:
    @pytest.mark.parametrize("name", dataset_names())
    def test_scaled_statistics_match(self, name):
        graph, spec = load_dataset(name, scale=30, rng=0)
        assert graph.num_nodes > 0
        # Mean degree within 25% of the published value (erased
        # configuration model + giant component trimming lose a little).
        assert abs(graph.mean_degree() - spec.mean_degree) / spec.mean_degree < 0.25

    def test_connected_by_default(self):
        graph, _ = load_dataset("p2p", scale=30, rng=1)
        assert is_connected(graph)

    def test_degree_skew_present(self):
        graph, _ = load_dataset("epinions", scale=20, rng=2)
        degrees = graph.degrees()
        assert degrees.max() > 8 * np.median(degrees)

    def test_texas_denser_than_new_orleans(self):
        texas, _ = load_dataset("facebook_texas", scale=30, rng=3)
        nola, _ = load_dataset("facebook_new_orleans", scale=30, rng=3)
        assert texas.mean_degree() > 2 * nola.mean_degree()

    def test_unknown_name_rejected(self):
        with pytest.raises(GenerationError, match="unknown dataset"):
            load_dataset("orkut")

    def test_bad_scale_rejected(self):
        with pytest.raises(GenerationError):
            load_dataset("p2p", scale=0)

    def test_reproducible(self):
        a, _ = load_dataset("p2p", scale=40, rng=7)
        b, _ = load_dataset("p2p", scale=40, rng=7)
        assert a == b


class TestWorstCaseCategories:
    @pytest.fixture(scope="class")
    def graph(self):
        graph, _ = load_dataset("p2p", scale=40, rng=0)
        return graph

    def test_top_plus_rest(self, graph):
        partition = worst_case_categories(graph, top=10, rng=0)
        assert partition.num_categories <= 11
        assert partition.num_nodes == graph.num_nodes

    def test_rest_category_named(self, graph):
        partition = worst_case_categories(graph, top=5, rng=0)
        if partition.num_categories == 6:
            assert partition.names[-1] == "rest"

    def test_unknown_method_rejected(self, graph):
        # The leading-eigenvector finder is the only community method;
        # there is no switch to pass another one through.
        with pytest.raises(TypeError):
            worst_case_categories(graph, method="label-propagation")

    def test_categories_align_with_structure(self, graph):
        """The top categories must be denser inside than across."""
        from repro.graph import cut_matrix

        partition = worst_case_categories(graph, top=10, rng=0)
        cuts = cut_matrix(graph, partition)
        intra = np.trace(cuts)
        inter = np.triu(cuts, k=1).sum()
        assert intra > inter  # communities, not random labels
