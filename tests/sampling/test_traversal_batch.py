"""Batched traversal kernels (BFS / Forest Fire) vs their sequential twins.

The cross-design harness in ``test_equivalence.py`` already holds both
kernels to replicate-wise bit-equality on a well-connected world; this
module pins the awkward corners — disconnected substrates (restart
cascades, early frontier exhaustion, full-graph budgets), fixed BFS
seeds, memmap-backed visited bitmaps, variate-window independence — and
adds the without-replacement property tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.graph.storage import graph_storage
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling import BreadthFirstSampler, ForestFireSampler
from repro.sampling.batch import sample_streams
from repro.sampling.traversal import _FF_DRAW_HORIZON


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
    "forest_fire": lambda g: ForestFireSampler(g),
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


def test_disconnected_forest_fire_golden_trajectory():
    """Literal pin: twin and kernel may only drift *together* on purpose.

    PCG64 output is part of numpy's compatibility contract, so this
    sequence is stable; it guards the restart/burn draw order against
    both implementations changing in lockstep by accident.
    """
    graph = _disconnected_graph()
    sampler = ForestFireSampler(graph, forward_prob=0.7)
    batched = sampler.sample_many(9, 2, rng=12345)
    expected = GOLDEN_FF_DISCONNECTED
    assert np.array_equal(batched.nodes, np.asarray(expected)), batched.nodes


GOLDEN_FF_DISCONNECTED = [
    [3, 4, 5, 6, 7, 1, 0, 2, 8],
    [7, 6, 3, 4, 5, 0, 2, 1, 8],
]


# ----------------------------------------------------------------------
# Seeds, storage planes, and engine knobs
# ----------------------------------------------------------------------
def test_bfs_fixed_seed_node_matches_twin():
    graph = _disconnected_graph()
    sampler = BreadthFirstSampler(graph, seed_node=3)
    batched = _assert_batched_matches_twins(sampler, 6, 6, seed=7)
    assert np.all(batched.nodes[:, 0] == 3)


def test_memmap_visited_bitmaps_are_bit_identical(tmp_path):
    """REPRO_SCALE=web routes visited state through memmap bitmaps.

    The storage plane must be invisible to the trajectories: the same
    seed yields the same bytes whether visited bitmaps live in RAM or
    in an unlinked file under the storage root.
    """
    graph = _disconnected_graph()
    for name, factory in DESIGNS.items():
        sampler = factory(graph)
        in_ram = sampler.sample_many(9, 4, rng=99)
        with graph_storage("memmap", directory=tmp_path):
            mapped = sampler.sample_many(9, 4, rng=99)
        assert np.array_equal(in_ram.nodes, mapped.nodes), name


def test_variate_window_does_not_affect_traversals(monkeypatch):
    """Traversal kernels pre-draw per-pop blocks, not windowed variates.

    ``REPRO_VARIATE_WINDOW`` reshapes the walk kernels' variate
    chunking; the traversal designs must be byte-stable under any
    setting of it (their draw order is fixed by the twins' protocol).
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


def test_forest_fire_draw_horizon_is_not_load_bearing(monkeypatch):
    """Any refill horizon must yield the twins' stream order."""
    import repro.sampling.traversal as traversal

    graph = _disconnected_graph()
    sampler = ForestFireSampler(graph, forward_prob=0.6)
    baseline = sampler.sample_many(9, 4, rng=17)
    assert _FF_DRAW_HORIZON > 1
    for horizon in (1, 2, 3):
        monkeypatch.setattr(traversal, "_FF_DRAW_HORIZON", horizon)
        again = sampler.sample_many(9, 4, rng=17)
        assert np.array_equal(baseline.nodes, again.nodes), horizon


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
    st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_traversals_never_revisit_and_grow_monotonically(
    graph, seed, name, forward_prob
):
    """Without-replacement invariant, batched and sequential alike.

    No replicate ever revisits a node, and the visited count grows by
    exactly one per draw (monotone, no gaps) — equivalently every
    output prefix is duplicate-free.
    """
    if name == "forest_fire":
        sampler = ForestFireSampler(graph, forward_prob=forward_prob)
    else:
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
