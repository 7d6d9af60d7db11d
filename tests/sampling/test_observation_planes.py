"""Plane-gathered observations equal the arc-scan oracle, byte for byte.

``observe_induced``, ``observe_star`` and ``observe_both`` gather rows
of two per-(graph, partition) planes: the graph's upper-edge list and
the partition's neighbor-category histogram. The arc-scan construction
they replaced lives on as :func:`tests.oracles.reference_observe_both`;
every field of every observation must match it in dtype, shape and
bytes, also when several threads observe through one partition on
different graphs. Concurrent first
use builds a partition's histogram once.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CategoryPartition, Graph, planes
from repro.graph.planes import derived_neighbor_histogram
from repro.sampling import NodeSample, observe_both, observe_induced, observe_star
from tests.conftest import random_test_graph
from tests.oracles import reference_observe_both


def _assert_same(actual, expected) -> None:
    assert type(actual) is type(expected)
    for field in dataclasses.fields(expected):
        got, want = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name


def _assert_matches_oracle(graph, partition, sample) -> None:
    induced, star = reference_observe_both(graph, partition, sample)
    both = observe_both(graph, partition, sample)
    _assert_same(both[0], induced)
    _assert_same(both[1], star)
    _assert_same(observe_induced(graph, partition, sample), induced)
    _assert_same(observe_star(graph, partition, sample), star)


def _sample(gen, num_nodes, draws, uniform) -> NodeSample:
    nodes = gen.integers(0, num_nodes, size=draws)
    if uniform:
        return NodeSample(nodes, np.ones(draws), design="uis", uniform=True)
    node_weights = gen.random(num_nodes) + 0.1
    return NodeSample(nodes, node_weights[nodes], design="rw", uniform=False)


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(1, 40),
    # 0 is an edgeless graph; sparse graphs leave nodes isolated.
    edge_prob=st.sampled_from([0.0, 0.04, 0.3]),
    num_categories=st.integers(1, 5),
    draws=st.integers(1, 80),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_observations_match_arc_scan_oracle(
    num_nodes, edge_prob, num_categories, draws, uniform, seed
):
    gen = np.random.default_rng(seed)
    graph = random_test_graph(gen, num_nodes, edge_prob)
    # Labels may leave categories empty.
    partition = CategoryPartition(
        gen.integers(0, num_categories, size=num_nodes),
        num_categories=num_categories,
    )
    _assert_matches_oracle(
        graph, partition, _sample(gen, num_nodes, draws, uniform)
    )


@pytest.mark.parametrize("block", [1, 5, 64])
def test_induced_edges_across_plane_blocks(monkeypatch, block):
    """Gathered in blocks of ``block`` upper edges, the induced edges are
    the oracle's, column-major with contiguous endpoint columns."""
    from repro.sampling import observation

    monkeypatch.setattr(observation, "DEFAULT_CHUNK_ARCS", block)
    gen = np.random.default_rng(block)
    graph = random_test_graph(gen, 50, 0.15)
    partition = CategoryPartition(gen.integers(0, 3, size=50))
    sample = _sample(gen, 50, 30, uniform=False)
    _assert_matches_oracle(graph, partition, sample)
    edges = observe_induced(graph, partition, sample).induced_edges
    assert len(edges) and edges.flags.f_contiguous


def test_histogram_key_space_above_dense_threshold():
    # D * C = 1200 * 1000 outgrows both 4 * (arcs) and 2**20, so the
    # oracle histograms with np.unique rather than a dense bincount.
    gen = np.random.default_rng(3)
    graph = random_test_graph(gen, 1200, 0.002)
    partition = CategoryPartition(
        gen.integers(0, 1000, size=1200), num_categories=1000
    )
    nodes = np.concatenate((np.arange(1200), gen.integers(0, 1200, size=300)))
    sample = NodeSample(nodes, np.ones(len(nodes)), design="uis", uniform=True)
    _assert_matches_oracle(graph, partition, sample)


def test_sparse_sample_of_large_node_space():
    # N > max(4 * draws, 2**20): the draw table compresses through
    # np.unique and the induced mask builds its own membership map.
    n = (1 << 20) + 7
    graph = Graph.from_edges(n, [(0, 5), (5, n - 1), (2, 3), (3, n - 1)])
    partition = CategoryPartition(np.arange(n) % 3)
    nodes = np.array([n - 1, 5, 0, 3, 5, 42])
    sample = NodeSample(nodes, np.ones(6), design="uis", uniform=True)
    _assert_matches_oracle(graph, partition, sample)


def test_threads_sharing_a_partition_across_two_graphs():
    # The partition caches the histogram of its most recent graph; four
    # threads alternating between two graphs must never read one
    # graph's histogram for the other.
    gen = np.random.default_rng(11)
    graphs = [random_test_graph(gen, 60, p) for p in (0.1, 0.3)]
    partition = CategoryPartition(gen.integers(0, 4, size=60))
    samples = [_sample(gen, 60, 50, uniform=False) for _ in range(4)]
    expected = {
        (g, s): reference_observe_both(graphs[g], partition, samples[s])
        for g in range(2)
        for s in range(4)
    }
    errors: list[Exception] = []
    start = threading.Barrier(4)

    def observe(worker: int) -> None:
        try:
            start.wait()
            for step in range(40):
                g, s = (worker + step) % 2, (worker + step) % 4
                induced, star = observe_both(graphs[g], partition, samples[s])
                _assert_same(induced, expected[g, s][0])
                _assert_same(star, expected[g, s][1])
        except Exception as error:  # surfaced in the main thread
            errors.append(error)

    _run_threads(observe)
    assert not errors, errors


def test_concurrent_first_use_builds_the_histogram_once(monkeypatch):
    # Slow builds make four threads arrive while the first one builds;
    # the lock turns the other three into cache hits.
    gen = np.random.default_rng(5)
    graph = random_test_graph(gen, 50, 0.2)
    partition = CategoryPartition(gen.integers(0, 3, size=50))
    sample = _sample(gen, 50, 40, uniform=True)
    builds = []

    def slow_build(*args, **kwargs):
        builds.append(threading.get_ident())
        time.sleep(0.05)
        return derived_neighbor_histogram(*args, **kwargs)

    monkeypatch.setattr(planes, "derived_neighbor_histogram", slow_build)
    expected = reference_observe_both(graph, partition, sample)[1]
    stars = []
    _run_threads(lambda worker: stars.append(observe_star(graph, partition, sample)))
    assert len(builds) == 1
    assert len(stars) == 4
    for star in stars:
        _assert_same(star, expected)


def _run_threads(target, count: int = 4) -> None:
    """Run ``target(worker)`` on ``count`` threads (more than the cores
    CI has) with a short switch interval, so threads interleave often."""
    threads = [threading.Thread(target=target, args=(w,)) for w in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
