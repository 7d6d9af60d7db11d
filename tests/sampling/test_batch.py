"""Batched-vs-sequential equivalence for the multi-walker engine.

The contract under test (see ``repro.sampling.batch``): replicate ``r``
of ``sample_many(n, R, rng)`` is bit-for-bit identical to
``sampler.sample(n, rng=spawn_rngs(rng, R)[r])`` — same trajectory,
same weights — for every design, including burn-in and fixed starts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SamplingError
from repro.generators import gnm, planted_category_graph
from repro.graph import Graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling import (
    BatchNodeSample,
    MetropolisHastingsSampler,
    NodeSample,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
    WeightedRandomWalkSampler,
    sample_many,
)
from repro.sampling import walks
from repro.sampling.walks import _arc_search_key, _segmented_cumsum


@pytest.fixture(scope="module")
def medium_graph() -> Graph:
    return gnm(300, 1800, rng=0)


@pytest.fixture(scope="module")
def planted():
    return planted_category_graph(k=8, scale=40, rng=0)


def _arc_weights(graph: Graph) -> np.ndarray:
    return np.abs(np.sin(np.arange(len(graph.indices)))) + 0.5


def _assert_batch_equals_sequential(sampler, n, replications, seed):
    batch = sampler.sample_many(n, replications, rng=seed)
    assert isinstance(batch, BatchNodeSample)
    assert batch.num_replicates == replications
    assert batch.draws_per_replicate == n
    streams = spawn_rngs(ensure_rng(seed), replications)
    for r, stream in enumerate(streams):
        sequential = sampler.sample(n, rng=stream)
        replicate = batch.replicate(r)
        assert isinstance(replicate, NodeSample)
        assert np.array_equal(sequential.nodes, replicate.nodes), (
            f"trajectory mismatch in replicate {r}"
        )
        assert np.array_equal(sequential.weights, replicate.weights), (
            f"weight mismatch in replicate {r}"
        )
        assert sequential.design == replicate.design
        assert sequential.uniform == replicate.uniform


class TestTrajectoryEquivalence:
    def test_rw(self, medium_graph):
        _assert_batch_equals_sequential(
            RandomWalkSampler(medium_graph), 500, 8, seed=1
        )

    def test_mhrw(self, medium_graph):
        _assert_batch_equals_sequential(
            MetropolisHastingsSampler(medium_graph), 500, 8, seed=2
        )

    def test_wrw(self, medium_graph):
        sampler = WeightedRandomWalkSampler(
            medium_graph, _arc_weights(medium_graph)
        )
        _assert_batch_equals_sequential(sampler, 500, 8, seed=3)

    def test_rwj(self, medium_graph):
        _assert_batch_equals_sequential(
            RandomWalkWithJumpsSampler(medium_graph, alpha=4.0), 500, 8, seed=4
        )

    def test_swrw_subclass_uses_wrw_kernel(self, planted):
        graph, partition = planted
        sampler = StratifiedWeightedWalkSampler(graph, partition)
        _assert_batch_equals_sequential(sampler, 400, 6, seed=5)

    def test_burn_in(self, medium_graph):
        _assert_batch_equals_sequential(
            RandomWalkSampler(medium_graph, burn_in=17), 300, 5, seed=6
        )

    def test_fixed_start(self, medium_graph):
        _assert_batch_equals_sequential(
            RandomWalkSampler(medium_graph, start=7), 300, 5, seed=7
        )

    def test_fallback_design(self, medium_graph):
        # Non-walk designs go through the sequential fallback but keep
        # the same per-stream contract.
        _assert_batch_equals_sequential(
            UniformIndependenceSampler(medium_graph), 200, 4, seed=8
        )

    def test_module_level_entry_point(self, medium_graph):
        sampler = RandomWalkSampler(medium_graph)
        a = sample_many(sampler, 100, 3, rng=9)
        b = sampler.sample_many(100, 3, rng=9)
        assert np.array_equal(a.nodes, b.nodes)

    def test_deterministic_given_seed(self, medium_graph):
        sampler = MetropolisHastingsSampler(medium_graph)
        a = sampler.sample_many(200, 4, rng=11)
        b = sampler.sample_many(200, 4, rng=11)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)


class TestBatchNodeSample:
    def test_replicates_are_views(self, medium_graph):
        batch = RandomWalkSampler(medium_graph).sample_many(100, 4, rng=0)
        rep = batch.replicate(2)
        assert np.shares_memory(rep.nodes, batch.nodes)
        assert np.shares_memory(rep.weights, batch.weights)

    def test_iteration_and_len(self, medium_graph):
        batch = RandomWalkSampler(medium_graph).sample_many(50, 3, rng=0)
        reps = list(batch)
        assert len(batch) == 3
        assert len(reps) == 3
        assert all(r.size == 50 for r in reps)
        assert [r.nodes.tolist() for r in reps] == [
            r.nodes.tolist() for r in batch.replicates()
        ]

    def test_replicate_out_of_range(self, medium_graph):
        batch = RandomWalkSampler(medium_graph).sample_many(50, 3, rng=0)
        with pytest.raises(SamplingError):
            batch.replicate(3)
        with pytest.raises(SamplingError):
            batch.replicate(-1)

    def test_shape_validation(self):
        with pytest.raises(SamplingError):
            BatchNodeSample(np.zeros(3, dtype=np.int64), np.ones(3))
        with pytest.raises(SamplingError):
            BatchNodeSample(
                np.zeros((2, 3), dtype=np.int64), np.ones((2, 4))
            )

    def test_bad_replications(self, medium_graph):
        sampler = RandomWalkSampler(medium_graph)
        with pytest.raises(SamplingError):
            sampler.sample_many(10, 0)
        with pytest.raises(SamplingError):
            sampler.sample_many(0, 4)


class TestIsolatedNodeHandling:
    """The kernels' per-step dead-walker check runs off a precomputed
    isolated-node mask (no per-step degree gather) — and is skipped
    entirely on graphs with no isolated nodes."""

    @pytest.fixture()
    def graph_with_isolate(self) -> Graph:
        # Node 4 is isolated; 0..3 form a cycle.
        return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_isolated_mask_helper(self):
        from repro.sampling.batch import _isolated_mask

        assert _isolated_mask(np.array([1, 2, 3])) is None
        mask = _isolated_mask(np.array([1, 0, 2, 0]))
        assert mask.tolist() == [False, True, False, True]

    def test_batch_raises_on_isolated_start(self, graph_with_isolate):
        sampler = RandomWalkSampler(graph_with_isolate, start=4)
        with pytest.raises(SamplingError, match="isolated node 4"):
            sampler.sample(5, rng=0)
        with pytest.raises(SamplingError, match="isolated node 4"):
            sampler.sample_many(5, 3, rng=0)

    def test_wrw_batch_raises_on_isolated_start(self, graph_with_isolate):
        weights = np.ones(len(graph_with_isolate.indices))
        for next_hop in ("search", "alias"):
            sampler = WeightedRandomWalkSampler(
                graph_with_isolate, weights, start=4, next_hop=next_hop
            )
            with pytest.raises(SamplingError, match="isolated node 4"):
                sampler.sample_many(5, 3, rng=0)

    def test_random_starts_avoid_isolates_and_stay_bit_equal(
        self, graph_with_isolate
    ):
        # Exercises the active mask-check branch on every step.
        _assert_batch_equals_sequential(
            RandomWalkSampler(graph_with_isolate), 50, 6, seed=13
        )
        _assert_batch_equals_sequential(
            MetropolisHastingsSampler(graph_with_isolate), 50, 6, seed=14
        )


class TestWrwLocalCumsum:
    def test_huge_foreign_weights_do_not_break_selection(self):
        """Per-run local sums stay exact under extreme weight skew.

        With one global cumulative sum, a 2**53 weight on an unrelated
        edge absorbs the +1.0-sized increments of later runs, collapsing
        their inverse-CDF lookup onto a single neighbor. Local sums are
        immune.
        """
        graph = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4)])
        arc_weights = np.ones(len(graph.indices))
        src = graph.arc_sources
        for i in range(len(arc_weights)):
            u, v = int(src[i]), int(graph.indices[i])
            if {u, v} == {0, 1}:
                arc_weights[i] = 2.0**53
        sampler = WeightedRandomWalkSampler(graph, arc_weights, start=2)
        sample = sampler.sample(2000, rng=0)
        visited = set(int(v) for v in sample.nodes)
        # From node 2 both equal-weight neighbors must be reachable.
        assert {3, 4} <= visited

    def test_local_cumulative_matches_per_run_cumsum(self):
        graph = gnm(50, 200, rng=1)
        weights = np.abs(np.cos(np.arange(len(graph.indices)))) + 0.25
        sampler = WeightedRandomWalkSampler(graph, weights)
        indptr = graph.indptr
        for v in range(graph.num_nodes):
            lo, hi = indptr[v], indptr[v + 1]
            if hi > lo:
                np.testing.assert_allclose(
                    sampler._local_cumulative[lo:hi],
                    np.cumsum(weights[lo:hi]),
                    rtol=1e-12,
                )

    def test_skewed_run_stays_sorted(self):
        # The doubling scan rounds this run's last prefix below the one
        # before it; the running-max pass keeps the run sorted.
        weights = np.array([9.6e7, 0.034, 0.0076, 1e-9])
        cumulative = _segmented_cumsum(weights, np.array([0, len(weights)]))
        assert np.all(np.diff(cumulative) >= 0)
        assert cumulative[-1] == pytest.approx(weights.sum(), rel=1e-15)

    def test_non_positive_or_nan_weights_rejected(self):
        graph = gnm(10, 20, rng=6)
        for bad in (0.0, -1.0, np.nan):
            weights = np.ones(len(graph.indices))
            weights[3] = bad
            with pytest.raises(SamplingError, match="strictly positive"):
                WeightedRandomWalkSampler(graph, weights)

    def test_strengths_equal_run_totals(self):
        graph = gnm(40, 120, rng=2)
        weights = np.full(len(graph.indices), 3.0)
        sampler = WeightedRandomWalkSampler(graph, weights)
        assert np.allclose(sampler.strengths, 3.0 * graph.degrees())


@st.composite
def _weighted_csr(draw):
    """CSR offsets plus per-arc weights skewed across 1e-12..1e12.

    Zero degrees leave isolated nodes between runs; degree-1 runs and
    long skewed runs (whose small weights vanish behind a large local
    prefix) both occur.
    """
    degrees = draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30)
    )
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    exponents = draw(
        st.lists(
            st.floats(min_value=-12.0, max_value=12.0),
            min_size=int(indptr[-1]),
            max_size=int(indptr[-1]),
        )
    )
    return indptr, 10.0 ** np.asarray(exponents, dtype=float)


class TestKeyedSearch:
    """The batched search kernel's keyed lookup is the sequential rule.

    For every node ``v`` with run ``[lo, hi)`` and every target ``t``,
    ``min(searchsorted(key, v + 1j*t, "right"), hi - 1)`` must equal
    ``lo + min(searchsorted(cum[lo:hi], t, "right"), d - 1)`` — the
    per-run lookup of the sequential ``sample()`` twin.
    """

    @given(csr=_weighted_csr(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_keyed_lookup_equals_per_run_searchsorted(self, csr, seed):
        indptr, weights = csr
        cumulative = _segmented_cumsum(weights, indptr)
        sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        key = _arc_search_key(sources, cumulative)
        # Sorted even where skew makes the doubling scan round a prefix
        # below its predecessor.
        assert np.all(key[:-1] <= key[1:])
        gen = np.random.default_rng(seed)
        nodes, targets = [], []
        for v in np.flatnonzero(np.diff(indptr) > 0):
            lo, hi = indptr[v], indptr[v + 1]
            run = cumulative[lo:hi]
            strength = run[-1]
            # t = 0, t = strength (u * s rounding up to the run total),
            # exact ties with every cumulative value, their float
            # neighbours, and ordinary u * s draws.
            candidates = np.concatenate(
                (
                    [0.0, strength],
                    run,
                    np.nextafter(run, -np.inf),
                    np.nextafter(run, np.inf),
                    gen.random(4) * strength,
                )
            )
            nodes.extend([v] * len(candidates))
            targets.extend(candidates)
        if not nodes:
            return
        nodes = np.asarray(nodes, dtype=np.int64)
        targets = np.asarray(targets)
        query = np.empty(len(nodes), dtype=np.complex128)
        query.real = nodes
        query.imag = targets
        keyed = np.minimum(
            np.searchsorted(key, query, side="right"), indptr[nodes + 1] - 1
        )
        for v, t, arc in zip(nodes, targets, keyed):
            lo, hi = indptr[v], indptr[v + 1]
            pos = np.searchsorted(cumulative[lo:hi], t, side="right")
            assert arc == lo + min(pos, hi - lo - 1), (v, t)

    def test_skewed_weights_batch_equals_sequential(self):
        graph = gnm(120, 500, rng=3)
        exponents = np.random.default_rng(4).uniform(
            -12.0, 12.0, size=len(graph.indices)
        )
        sampler = WeightedRandomWalkSampler(graph, 10.0**exponents)
        _assert_batch_equals_sequential(sampler, 300, 6, seed=21)

    def test_search_key_layout(self, planted):
        graph, partition = planted
        sampler = StratifiedWeightedWalkSampler(graph, partition)
        key = sampler._search_key
        assert key.dtype == np.complex128
        assert np.array_equal(key.real, graph.arc_sources)
        assert np.array_equal(key.imag, sampler._local_cumulative)
        assert np.all(key[:-1] <= key[1:])
        alias = StratifiedWeightedWalkSampler(graph, partition, next_hop="alias")
        assert alias._search_key is None

    def test_node_ids_past_float64_exactness_rejected(self, monkeypatch):
        graph = gnm(10, 20, rng=5)
        weights = np.ones(len(graph.indices))
        monkeypatch.setattr(walks, "_KEY_EXACT_NODES", graph.num_nodes)
        with pytest.raises(SamplingError, match="2\\*\\*53"):
            WeightedRandomWalkSampler(graph, weights)
        # The alias engine builds no key and is unaffected.
        WeightedRandomWalkSampler(graph, weights, next_hop="alias")


class TestVariateWindows:
    """Chunked step-window draws preserve the bit-equality contract.

    The kernels no longer pre-draw the full (blocks, total, R) variate
    cube; they hold a (blocks, window, R) buffer refilled from
    per-stream cursors. Chunked ``Generator.random`` calls yield the
    identical value stream, so any window size must reproduce the
    sequential trajectories exactly — including for the two-block
    kernels (MHRW, RWJ) whose later blocks replay past the earlier
    blocks' draws.
    """

    @pytest.mark.parametrize("window", ["1", "7", "100000"])
    def test_any_window_is_bit_equal_to_sequential(
        self, medium_graph, monkeypatch, window
    ):
        monkeypatch.setenv("REPRO_VARIATE_WINDOW", window)
        for sampler in (
            RandomWalkSampler(medium_graph),
            MetropolisHastingsSampler(medium_graph),  # two variate blocks
            RandomWalkWithJumpsSampler(medium_graph, alpha=4.0),
            WeightedRandomWalkSampler(medium_graph, _arc_weights(medium_graph)),
        ):
            _assert_batch_equals_sequential(sampler, 120, 4, seed=23)

    def test_window_sizes_agree_with_each_other(self, medium_graph, monkeypatch):
        sampler = MetropolisHastingsSampler(medium_graph)
        monkeypatch.setenv("REPRO_VARIATE_WINDOW", "13")
        small = sample_many(sampler, 200, 3, rng=5)
        monkeypatch.setenv("REPRO_VARIATE_WINDOW", "1000000")
        large = sample_many(sampler, 200, 3, rng=5)
        assert np.array_equal(small.nodes, large.nodes)
        assert np.array_equal(small.weights, large.weights)

    def test_variate_memory_is_window_bounded(self):
        from repro.sampling.batch import _FrontierVariates

        streams = spawn_rngs(0, 8)
        total, window = 5_000, 256
        variates = _FrontierVariates(streams, 2, total, window=window)
        assert variates._buf.shape == (2, window, 8)  # O(R x window), not O(R x n)
        reference = spawn_rngs(0, 8)
        expected = np.stack([
            [stream.random(total), stream.random(total)] for stream in reference
        ])  # (R, blocks, total) — the old cube, for comparison only
        for i in range(total):  # kernels advance the frontier step by step
            np.testing.assert_array_equal(
                variates.step(i), expected[:, :, i].T
            )

    def test_bad_window_rejected(self, medium_graph, monkeypatch):
        monkeypatch.setenv("REPRO_VARIATE_WINDOW", "0")
        with pytest.raises(SamplingError, match="variate window"):
            sample_many(RandomWalkSampler(medium_graph), 50, 2, rng=0)
        monkeypatch.setenv("REPRO_VARIATE_WINDOW", "not-a-number")
        with pytest.raises(SamplingError, match="REPRO_VARIATE_WINDOW"):
            sample_many(RandomWalkSampler(medium_graph), 50, 2, rng=0)
