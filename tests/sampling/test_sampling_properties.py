"""Property-based tests (hypothesis) for samplers and observations."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CategoryPartition, Graph
from repro.sampling import (
    BatchNodeSample,
    BreadthFirstSampler,
    MetropolisHastingsSampler,
    NodeSample,
    RandomWalkSampler,
    UniformIndependenceSampler,
    observe_induced,
    observe_star,
)


@st.composite
def connected_graphs(draw, max_nodes: int = 25):
    """Small connected graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]  # tree
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(n, np.asarray(edges, dtype=np.int64))


@st.composite
def graph_with_partition(draw):
    graph = draw(connected_graphs())
    k = draw(st.integers(min_value=1, max_value=4))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=graph.num_nodes,
            max_size=graph.num_nodes,
        )
    )
    return graph, CategoryPartition(np.asarray(labels), num_categories=k)


@given(connected_graphs(), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_uis_draws_valid_nodes(graph, n, seed):
    sample = UniformIndependenceSampler(graph).sample(n, rng=seed)
    assert sample.size == n
    assert sample.nodes.min() >= 0
    assert sample.nodes.max() < graph.num_nodes
    assert np.all(sample.weights == 1.0)


@given(connected_graphs(), st.integers(min_value=2, max_value=200),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rw_steps_follow_edges(graph, n, seed):
    sample = RandomWalkSampler(graph, start=0).sample(n, rng=seed)
    previous = 0
    for node in sample.nodes:
        assert graph.has_edge(previous, int(node))
        previous = int(node)
    assert np.array_equal(sample.weights, graph.degrees()[sample.nodes])


@given(connected_graphs(), st.integers(min_value=2, max_value=200),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mhrw_moves_along_edges_or_stays(graph, n, seed):
    sample = MetropolisHastingsSampler(graph, start=0).sample(n, rng=seed)
    previous = 0
    for node in sample.nodes:
        node = int(node)
        assert node == previous or graph.has_edge(previous, node)
        previous = node


@given(connected_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_bfs_collects_distinct_nodes(graph, seed):
    n = graph.num_nodes
    sample = BreadthFirstSampler(graph).sample(n, rng=seed)
    assert sorted(sample.nodes.tolist()) == list(range(n))


@given(graph_with_partition(), st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_observation_bookkeeping_consistent(case, n, seed):
    graph, partition = case
    sample = UniformIndependenceSampler(graph).sample(n, rng=seed)
    induced = observe_induced(graph, partition, sample)
    star = observe_star(graph, partition, sample)
    # Draw counts agree between scenarios and with the sample.
    assert induced.num_draws == star.num_draws == n
    assert int(induced.distinct_multiplicities.sum()) == n
    assert np.array_equal(induced.distinct_nodes, star.distinct_nodes)
    # Category draw counts sum to n.
    assert int(induced.category_draw_counts().sum()) == n
    # Star degree bookkeeping matches the graph.
    assert np.array_equal(
        star.distinct_degrees, graph.degrees()[star.distinct_nodes]
    )
    # Neighbor histogram row sums equal degrees.
    for i in range(star.num_distinct):
        row_total = star.neighbor_counts[
            star.neighbor_indptr[i] : star.neighbor_indptr[i + 1]
        ].sum()
        assert row_total == star.distinct_degrees[i]


@given(graph_with_partition(), st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_induced_edges_are_real_edges(case, n, seed):
    graph, partition = case
    sample = UniformIndependenceSampler(graph).sample(n, rng=seed)
    obs = observe_induced(graph, partition, sample)
    for i, j in obs.induced_edges:
        u = int(obs.distinct_nodes[i])
        v = int(obs.distinct_nodes[j])
        assert graph.has_edge(u, v)
    # Completeness: every graph edge with both endpoints sampled appears.
    sampled = set(obs.distinct_nodes.tolist())
    expected = sum(
        1 for u, v in graph.edges() if u in sampled and v in sampled
    )
    assert len(obs.induced_edges) == expected


@given(graph_with_partition(), st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_subset_of_all_draws_is_identity(case, n, seed):
    graph, partition = case
    sample = UniformIndependenceSampler(graph).sample(n, rng=seed)
    for observe in (observe_induced, observe_star):
        obs = observe(graph, partition, sample)
        same = obs.subset_draws(np.arange(n))
        assert same.num_draws == obs.num_draws
        assert np.array_equal(same.distinct_nodes, obs.distinct_nodes)
        assert np.array_equal(
            same.distinct_multiplicities, obs.distinct_multiplicities
        )


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_thin_then_size(n, period):
    sample = NodeSample(np.arange(n), np.ones(n), design="uis", uniform=True)
    thinned = sample.thin(period)
    assert thinned.size == len(range(0, n, period))


# ----------------------------------------------------------------------
# BatchNodeSample view invariants
# ----------------------------------------------------------------------
@st.composite
def batches(draw):
    r = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, 100, size=(r, n), dtype=np.int64)
    weights = rng.random((r, n)) + 0.5
    return BatchNodeSample(nodes, weights, design="test", uniform=False)


@given(batches())
@settings(max_examples=40, deadline=None)
def test_batch_replicate_slicing_round_trips(batch):
    # Restacking the per-replicate views reproduces the matrices bit
    # for bit, and every view aliases (not copies) the batch storage.
    reps = batch.replicates()
    assert len(reps) == batch.num_replicates == len(batch)
    assert np.array_equal(np.stack([s.nodes for s in reps]), batch.nodes)
    assert np.array_equal(np.stack([s.weights for s in reps]), batch.weights)
    for r, rep in enumerate(batch):
        assert rep.size == batch.draws_per_replicate
        assert np.shares_memory(rep.nodes, batch.nodes)
        assert np.shares_memory(rep.weights, batch.weights)
        assert np.array_equal(rep.nodes, batch.nodes[r])


@given(batches())
@settings(max_examples=40, deadline=None)
def test_batch_shape_invariants(batch):
    assert batch.nodes.shape == batch.weights.shape
    assert batch.nodes.shape == (
        batch.num_replicates,
        batch.draws_per_replicate,
    )
    assert batch.nodes.dtype == np.int64
    assert batch.weights.dtype == float
    # Rows are C-contiguous so replicate views cost O(1) memory.
    assert batch.nodes[0].flags.c_contiguous
    assert all(s.design == batch.design for s in batch)

