"""Tests for community detection and modularity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.community import leading_eigenvector_communities, modularity
from repro.exceptions import GraphError
from repro.generators import planted_partition_graph
from repro.graph import CategoryPartition, Graph


@pytest.fixture(scope="module")
def two_cliques() -> Graph:
    """Two 6-cliques joined by a single edge — unambiguous communities."""
    edges = []
    for base in (0, 6):
        for i in range(6):
            for j in range(i + 1, 6):
                edges.append((base + i, base + j))
    edges.append((0, 6))
    return Graph.from_edges(12, edges)


class TestModularity:
    def test_perfect_split(self, two_cliques):
        partition = CategoryPartition(np.array([0] * 6 + [1] * 6))
        q = modularity(two_cliques, partition)
        assert 0.4 < q < 0.5

    def test_single_community_is_zero(self, two_cliques):
        partition = CategoryPartition.single_category(12)
        assert modularity(two_cliques, partition) == pytest.approx(0.0)

    def test_bad_split_is_negative_or_small(self, two_cliques):
        # Alternating labels cut through both cliques.
        partition = CategoryPartition(np.arange(12) % 2)
        good = CategoryPartition(np.array([0] * 6 + [1] * 6))
        assert modularity(two_cliques, partition) < modularity(two_cliques, good)

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            modularity(Graph.empty(3), CategoryPartition(np.zeros(3, dtype=int)))


class TestLeadingEigenvector:
    def test_separates_cliques(self, two_cliques):
        partition = leading_eigenvector_communities(two_cliques)
        labels = partition.labels
        # Each clique must be monochromatic.
        assert len(set(labels[:6].tolist())) == 1
        assert len(set(labels[6:].tolist())) == 1
        assert labels[0] != labels[6]

    def test_planted_partition_recovered_well(self):
        graph, truth = planted_partition_graph(4, 60, p_in=0.3, p_out=0.01, rng=0)
        found = leading_eigenvector_communities(graph)
        q_found = modularity(graph, found)
        q_truth = modularity(graph, truth)
        assert q_found > 0.8 * q_truth

    def test_max_communities_respected(self):
        graph, _ = planted_partition_graph(6, 40, p_in=0.3, p_out=0.01, rng=1)
        found = leading_eigenvector_communities(graph, max_communities=3)
        # Isolated nodes aside (none here), at most 3 communities.
        assert found.num_categories <= 3

    def test_er_graph_yields_few_splits(self):
        from repro.generators import gnm

        graph = gnm(100, 400, rng=2)
        found = leading_eigenvector_communities(graph)
        # Random graphs have weak community structure; Q stays modest
        # and nothing crashes.
        assert found.num_categories >= 1
        assert modularity(graph, found) < 0.6

    def test_edgeless_graph_singletons(self):
        partition = leading_eigenvector_communities(Graph.empty(4))
        assert partition.num_categories == 4

    def test_isolated_nodes_own_community(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0)])  # 3, 4 isolated
        partition = leading_eigenvector_communities(g)
        assert partition.labels[3] != partition.labels[4]
        assert partition.labels[3] != partition.labels[0]

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            leading_eigenvector_communities(Graph.empty(0))

    def test_deterministic_given_seed(self, two_cliques):
        a = leading_eigenvector_communities(two_cliques, rng=3)
        b = leading_eigenvector_communities(two_cliques, rng=3)
        assert np.array_equal(a.labels, b.labels)
