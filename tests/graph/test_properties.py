"""Property-based tests (hypothesis) for the graph substrate invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    CategoryPartition,
    Graph,
    GraphBuilder,
    cut_matrix,
    true_category_graph,
)
from repro.graph.storage import unique_keys
from tests.oracles import reference_csr, reference_sorted_csr


@st.composite
def edge_lists(draw, max_nodes: int = 25, max_edges: int = 60):
    """Random (num_nodes, edges) pairs with valid, loop-free endpoints."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return n, edges


@st.composite
def graphs_with_partitions(draw):
    """A random graph together with a random category partition."""
    n, edges = draw(edge_lists())
    num_categories = draw(st.integers(min_value=1, max_value=4))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_categories - 1),
            min_size=n,
            max_size=n,
        )
    )
    graph = Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    partition = CategoryPartition(
        np.asarray(labels, dtype=np.int64), num_categories=num_categories
    )
    return graph, partition


@given(edge_lists())
@settings(max_examples=60)
def test_degree_sum_is_twice_edge_count(case):
    n, edges = case
    g = Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert int(g.degrees().sum()) == 2 * g.num_edges


@given(edge_lists())
@settings(max_examples=60)
def test_adjacency_runs_sorted_and_symmetric(case):
    n, edges = case
    g = Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    for v in range(n):
        nbrs = g.neighbors(v)
        assert np.all(np.diff(nbrs) > 0)  # strictly sorted => no duplicates
        for u in nbrs:
            assert v in g.neighbors(int(u))  # symmetry


@given(edge_lists())
@settings(max_examples=60)
def test_has_edge_agrees_with_edge_array(case):
    n, edges = case
    g = Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    in_array = {tuple(e) for e in g.edge_array()}
    for u, v in {(min(a, b), max(a, b)) for a, b in edges}:
        assert g.has_edge(u, v)
        assert (u, v) in in_array


@given(edge_lists())
@settings(max_examples=40)
def test_builder_incremental_equals_batch(case):
    n, edges = case
    batch = Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    assert builder.build() == batch


@given(edge_lists(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_builder_matches_unique_lexsort_reference(case, chunks):
    """Duplicate and reversed edges, added in several chunks, build the
    same CSR bytes as the np.unique + lexsort reference."""
    n, edges = case
    raw = edges + [(v, u) for u, v in edges[::2]] + edges[:3]
    builder = GraphBuilder(n)
    for chunk in np.array_split(np.asarray(raw, dtype=np.int64).reshape(-1, 2), chunks):
        builder.add_edges(chunk)
    graph = builder.build()
    indptr, indices = reference_csr(n, raw)
    assert (graph.indptr.dtype, graph.indices.dtype) == (indptr.dtype, indices.dtype)
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)


@given(
    st.integers(min_value=2, max_value=60),
    st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=120),
    st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
)
@settings(max_examples=80)
def test_builder_matches_sort_build_reference(n, pairs, chunk_sizes):
    """Chunks of uneven size, with duplicates and reversed pairs and
    nodes left isolated, build the bytes of the sort-based build."""
    raw = np.asarray(
        [(u % n, v % n) for u, v in pairs if u % n != v % n], dtype=np.int64
    ).reshape(-1, 2)
    raw = np.concatenate((raw, raw[::-3, ::-1], raw[:4]))
    chunks = np.split(raw, np.cumsum(chunk_sizes)[np.cumsum(chunk_sizes) < len(raw)])
    builder = GraphBuilder(n)
    for chunk in chunks:
        builder.add_edges(chunk)
    graph = builder.build()
    indptr, indices = reference_sorted_csr(n, chunks)
    assert (graph.indptr.dtype, graph.indices.dtype) == (indptr.dtype, indices.dtype)
    np.testing.assert_array_equal(graph.indptr, indptr)
    np.testing.assert_array_equal(graph.indices, indices)
    # A second build reads the same kept keys.
    assert builder.build() == graph


@given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=80))
@settings(max_examples=60)
def test_unique_keys_matches_np_unique(values):
    keys = np.asarray(values, dtype=np.int64)
    np.testing.assert_array_equal(unique_keys(keys.copy()), np.unique(keys))


@given(graphs_with_partitions())
@settings(max_examples=50)
def test_partition_sizes_sum_to_node_count(case):
    graph, partition = case
    assert int(partition.sizes().sum()) == graph.num_nodes
    expected = 1.0 if graph.num_nodes else 0.0
    assert abs(partition.relative_sizes().sum() - expected) < 1e-12


@given(graphs_with_partitions())
@settings(max_examples=50)
def test_partition_volumes_sum_to_graph_volume(case):
    graph, partition = case
    assert int(partition.volumes(graph).sum()) == graph.volume()


@given(graphs_with_partitions())
@settings(max_examples=40)
def test_cut_matrix_matches_brute_force(case):
    graph, partition = case
    cuts = cut_matrix(graph, partition)
    c = partition.num_categories
    brute = np.zeros((c, c), dtype=np.int64)
    for u, v in graph.edges():
        a, b = partition.category_of(u), partition.category_of(v)
        if a == b:
            brute[a, a] += 1
        else:
            brute[a, b] += 1
            brute[b, a] += 1
    assert np.array_equal(cuts, brute)


@given(graphs_with_partitions())
@settings(max_examples=40)
def test_true_weights_are_probabilities(case):
    graph, partition = case
    cg = true_category_graph(graph, partition)
    w = cg.weights
    off_diag = w[~np.eye(len(w), dtype=bool)]
    finite = off_diag[np.isfinite(off_diag)]
    assert np.all(finite >= 0.0)
    assert np.all(finite <= 1.0)


@given(graphs_with_partitions())
@settings(max_examples=40)
def test_cut_totals_match_edge_count(case):
    graph, partition = case
    cuts = cut_matrix(graph, partition)
    inter = np.triu(cuts, k=1).sum()
    intra = np.trace(cuts)
    assert inter + intra == graph.num_edges


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_permute_fraction_preserves_sizes(n, alpha, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    partition = CategoryPartition(labels, num_categories=3)
    permuted = partition.permute_fraction(alpha, rng=rng)
    assert np.array_equal(partition.sizes(), permuted.sizes())
