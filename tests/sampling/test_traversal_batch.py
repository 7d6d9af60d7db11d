"""The batched BFS kernel vs its sequential twin.

The cross-design harness in ``test_equivalence.py`` already holds the
kernel to replicate-wise bit-equality on a well-connected world; this
module pins the awkward corners — disconnected substrates (restart
cascades, early frontier exhaustion, full-graph budgets), fixed BFS
seeds, variate-window independence — and
adds the without-replacement property tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling import BreadthFirstSampler
from repro.sampling.batch import sample_streams


def _assert_batched_matches_twins(sampler, n, replications, seed):
    streams = spawn_rngs(ensure_rng(seed), replications)
    batched = sample_streams(sampler, n, streams)
    twins = spawn_rngs(ensure_rng(seed), replications)
    for r, stream in enumerate(twins):
        reference = sampler.sample(n, rng=stream)
        assert np.array_equal(batched.nodes[r], reference.nodes), (
            f"{sampler.design}: replicate {r} diverged from its twin"
        )
    return batched


def _disconnected_graph() -> Graph:
    """Four components: a triangle, a path, one edge, an isolated node."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7)]
    return Graph.from_edges(9, edges)


DESIGNS = {
    "bfs": lambda g: BreadthFirstSampler(g),
}


# ----------------------------------------------------------------------
# Early budget exhaustion on disconnected substrates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DESIGNS))
@pytest.mark.parametrize("n", [1, 3, 5, 9])
def test_disconnected_substrate_restarts_identically(name, n):
    """Every frontier death must replay the twin's restart draws.

    On a disconnected graph the frontier empties before the budget —
    repeatedly, and at n == num_nodes every replicate walks every
    component. The batched path must emit the same truncated/restarted
    draw sequence as the sequential twin, including the final restart
    that lands exactly on the budget.
    """
    graph = _disconnected_graph()
    sampler = DESIGNS[name](graph)
    for seed in (0, 1, 2026):
        batched = _assert_batched_matches_twins(sampler, n, 8, seed)
        if n == graph.num_nodes:
            # Full exhaustion: each replicate is a permutation of V.
            for r in range(8):
                assert len(np.unique(batched.nodes[r])) == n


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_overfull_budget_rejected(name):
    graph = _disconnected_graph()
    from repro.exceptions import SamplingError

    with pytest.raises(SamplingError):
        DESIGNS[name](graph).sample_many(graph.num_nodes + 1, 2, rng=0)


# ----------------------------------------------------------------------
# Seeds, storage planes, and engine knobs
# ----------------------------------------------------------------------
def test_bfs_fixed_seed_node_matches_twin():
    graph = _disconnected_graph()
    sampler = BreadthFirstSampler(graph, seed_node=3)
    batched = _assert_batched_matches_twins(sampler, 6, 6, seed=7)
    assert np.all(batched.nodes[:, 0] == 3)


def test_variate_window_does_not_affect_traversals(monkeypatch):
    """The BFS kernel draws per-stream scalars, not windowed variates.

    ``REPRO_VARIATE_WINDOW`` reshapes the walk kernels' variate
    chunking; the traversal design must be byte-stable under any
    setting of it (its draw order is fixed by the twin's protocol).
    """
    graph = _disconnected_graph()
    for name, factory in DESIGNS.items():
        sampler = factory(graph)
        baseline = sampler.sample_many(9, 4, rng=5)
        for window in ("1", "7", "100000"):
            monkeypatch.setenv("REPRO_VARIATE_WINDOW", window)
            again = sampler.sample_many(9, 4, rng=5)
            assert np.array_equal(baseline.nodes, again.nodes), (
                name,
                window,
            )
        monkeypatch.delenv("REPRO_VARIATE_WINDOW")


# ----------------------------------------------------------------------
# Without-replacement properties (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def arbitrary_graphs(draw, max_nodes: int = 18):
    """Small graphs, connected or not — isolated nodes included."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_edges = draw(st.integers(min_value=0, max_value=2 * num_nodes))
    edges = [
        (u, v)
        for u, v in zip(
            rng.integers(0, num_nodes, size=num_edges),
            rng.integers(0, num_nodes, size=num_edges),
        )
        if u != v
    ]
    if not edges:
        return Graph.empty(num_nodes)
    return Graph.from_edges(num_nodes, np.asarray(edges, dtype=np.int64))


@given(
    arbitrary_graphs(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(sorted(DESIGNS)),
)
@settings(max_examples=60, deadline=None)
def test_traversals_never_revisit_and_grow_monotonically(graph, seed, name):
    """Without-replacement invariant, batched and sequential alike.

    No replicate ever revisits a node, and the visited count grows by
    exactly one per draw (monotone, no gaps) — equivalently every
    output prefix is duplicate-free.
    """
    sampler = DESIGNS[name](graph)
    n = graph.num_nodes
    batched = _assert_batched_matches_twins(sampler, n, 3, seed)
    for r in range(3):
        row = batched.nodes[r]
        assert len(np.unique(row)) == n, f"replicate {r} revisited a node"
        # visited-count monotonicity: k distinct nodes after k draws
        seen = np.zeros(graph.num_nodes, dtype=bool)
        for k, node in enumerate(row):
            assert not seen[node]
            seen[node] = True
            assert int(seen.sum()) == k + 1
