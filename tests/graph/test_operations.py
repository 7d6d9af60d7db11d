"""Unit tests for graph operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import (
    Graph,
    connected_components,
    degree_histogram,
    degree_stats,
    induced_subgraph,
    is_connected,
    largest_component,
)
from repro.graph.operations import bridge_components, bridge_edges
from tests.oracles import reference_components


def _relabelled(n, edges, perm):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return Graph.from_edges(n, perm[edges] if len(edges) else edges)


@st.composite
def component_graphs(draw):
    """Random graphs: sparse ones with isolated nodes, unions of many
    small cliques, and paths, each under a random node relabelling."""
    kind = draw(st.sampled_from(["sparse", "cliques", "path"]))
    if kind == "sparse":
        n = draw(st.integers(min_value=0, max_value=40))
        node = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        edges = [(u, v) for u, v in pairs if u != v]
    elif kind == "cliques":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=15))
        n = sum(sizes)
        edges = []
        start = 0
        for size in sizes:
            edges += [
                (start + i, start + j) for i in range(size) for j in range(i + 1, size)
            ]
            start += size
    else:
        n = draw(st.integers(min_value=1, max_value=60))
        edges = [(i, i + 1) for i in range(n - 1)]
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    return _relabelled(n, edges, perm)


@given(component_graphs())
@settings(max_examples=120, deadline=None)
def test_components_match_bfs_reference(graph):
    np.testing.assert_array_equal(
        connected_components(graph), reference_components(graph)
    )


class TestComponents:
    def test_connected_graph(self, triangle_pair):
        assert is_connected(triangle_pair)
        comp = connected_components(triangle_pair)
        assert int(comp.max()) == 0

    def test_disconnected(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert len({int(comp[0]), int(comp[2]), int(comp[4])}) == 3
        assert not is_connected(g)

    def test_empty_graph_is_connected(self):
        assert is_connected(Graph.empty(0))

    def test_single_node(self):
        assert is_connected(Graph.empty(1))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_graphs_match_reference(self, n):
        g = Graph.empty(n)
        comp = connected_components(g)
        assert comp.dtype == np.int64
        np.testing.assert_array_equal(comp, reference_components(g))

    def test_long_shuffled_path_matches_reference(self):
        n = 2_000
        perm = np.random.default_rng(0).permutation(n)
        g = _relabelled(n, [(i, i + 1) for i in range(n - 1)], perm)
        np.testing.assert_array_equal(
            connected_components(g), reference_components(g)
        )

    def test_ids_follow_smallest_node(self):
        g = Graph.from_edges(6, [(5, 1), (4, 0), (2, 3)])
        assert list(connected_components(g)) == [0, 1, 2, 2, 0, 1]

    def test_largest_component(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        sub, ids = largest_component(g)
        assert sub.num_nodes == 3
        assert list(ids) == [0, 1, 2]
        assert sub.num_edges == 2

    def test_largest_component_of_empty(self):
        sub, ids = largest_component(Graph.empty(0))
        assert sub.num_nodes == 0
        assert len(ids) == 0


class TestBridging:
    def test_connected_graph_needs_no_bridge(self, triangle_pair):
        gen = np.random.default_rng(0)
        assert bridge_edges(triangle_pair, gen).shape == (0, 2)
        assert bridge_components(triangle_pair, gen) is triangle_pair

    def test_one_edge_per_stray_component(self):
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (4, 5), (7, 8)])
        extra = bridge_edges(g, np.random.default_rng(3))
        comp = connected_components(g)
        assert len(extra) == 3  # components {4, 5}, {6}, {7, 8}
        assert sorted(comp[extra[:, 0]].tolist()) == [1, 2, 3]
        assert set(extra[:, 1].tolist()) <= {0, 1, 2, 3}
        bridged = bridge_components(g, np.random.default_rng(3))
        assert is_connected(bridged)
        assert bridged.num_edges == g.num_edges + 3


class TestInducedSubgraph:
    def test_basic(self, triangle_pair):
        sub = induced_subgraph(triangle_pair, np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 3  # the left triangle

    def test_cross_edges_dropped(self, triangle_pair):
        sub = induced_subgraph(triangle_pair, np.array([0, 4]))
        assert sub.num_edges == 0

    def test_relabelling_follows_input_order(self, triangle_pair):
        sub = induced_subgraph(triangle_pair, np.array([3, 0]))
        # nodes 3 and 0 are adjacent via the bridge; new ids 0 and 1
        assert sub.has_edge(0, 1)

    def test_duplicate_ids_rejected(self, triangle_pair):
        with pytest.raises(GraphError, match="unique"):
            induced_subgraph(triangle_pair, np.array([0, 0]))

    def test_out_of_range_rejected(self, triangle_pair):
        with pytest.raises(GraphError):
            induced_subgraph(triangle_pair, np.array([99]))

    def test_empty_selection(self, triangle_pair):
        sub = induced_subgraph(triangle_pair, np.array([], dtype=np.int64))
        assert sub.num_nodes == 0


class TestDegreeStats:
    def test_histogram(self, path_graph):
        hist = degree_histogram(path_graph)
        assert list(hist) == [0, 2, 3]  # two endpoints, three middles

    def test_histogram_empty(self):
        assert list(degree_histogram(Graph.empty(0))) == [0]

    def test_stats(self, path_graph):
        stats = degree_stats(path_graph)
        assert stats.minimum == 1
        assert stats.maximum == 2
        assert stats.mean == pytest.approx(8 / 5)
        assert "degree mean" in str(stats)

    def test_stats_empty_rejected(self):
        with pytest.raises(GraphError):
            degree_stats(Graph.empty(0))
