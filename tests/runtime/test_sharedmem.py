"""Shared-memory plane publication round trips.

The pool must (a) publish each distinct large array exactly once no
matter how many objects reference it, (b) reproduce every array
bit-for-bit as a read-only view, and (c) actually retire its blocks on
close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import gnm, planted_category_graph
from repro.runtime import SharedArrayPool, sharedmem
from repro.sampling import StratifiedWeightedWalkSampler


@pytest.fixture()
def world():
    graph, partition = planted_category_graph(k=5, scale=40, rng=3)
    relation = gnm(graph.num_nodes, max(graph.num_edges // 3, 1), rng=4)
    return graph, partition, relation


def test_graph_round_trip_is_exact_and_read_only(world):
    graph, partition, relation = world
    with SharedArrayPool(threshold=1024) as pool:
        payload = sharedmem.dumps({"graph": graph}, pool)
        assert pool.num_published >= 2  # indptr + indices at least
        clone = sharedmem.loads(payload)["graph"]
        assert clone.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(clone.indptr, graph.indptr)
        np.testing.assert_array_equal(clone.indices, graph.indices)
        with pytest.raises(ValueError):
            clone.indptr.base[0] = 1  # the shared view is read-only


def test_shared_arrays_are_published_once(world):
    graph, partition, relation = world
    samplers = [
        StratifiedWeightedWalkSampler(graph, partition) for _ in range(3)
    ]
    with SharedArrayPool(threshold=1024) as pool:
        sharedmem.dumps({"graph": graph, "samplers": samplers}, pool)
        first = pool.num_published
        # The same object graph again: everything is already published.
        sharedmem.dumps({"graph": graph, "samplers": samplers}, pool)
        assert pool.num_published == first


def test_small_arrays_ride_the_pickle_stream(world):
    graph, partition, relation = world
    with SharedArrayPool(threshold=10**9) as pool:
        payload = sharedmem.dumps({"graph": graph}, pool)
        assert pool.num_published == 0
        clone = sharedmem.loads(payload)["graph"]
        np.testing.assert_array_equal(clone.indices, graph.indices)


def test_sampler_round_trip_samples_identically(world):
    graph, partition, relation = world
    sampler = StratifiedWeightedWalkSampler(graph, partition)
    with SharedArrayPool(threshold=1024) as pool:
        payload = sharedmem.dumps({"sampler": sampler}, pool)
        # The graph's CSR plus the walk's own per-arc planes (weights,
        # local cumulatives, search key) all cross as shared blocks.
        assert pool.num_published > 2
        clone = sharedmem.loads(payload)["sampler"]
        original = sampler.sample(200, rng=9)
        copied = clone.sample(200, rng=9)
        np.testing.assert_array_equal(original.nodes, copied.nodes)
        np.testing.assert_array_equal(original.weights, copied.weights)


def test_shared_pool_scope_is_ambient_and_deduplicates(world):
    """A plan-scoped pool is visible to executors and publishes once."""
    graph, partition, relation = world
    assert sharedmem.active_pool() is None
    with sharedmem.shared_pool(threshold=1024) as pool:
        assert sharedmem.active_pool() is pool
        # Two "cells" referencing the same substrate publish it once.
        sharedmem.dumps({"graph": graph, "partition": partition}, pool)
        first = pool.num_published
        sharedmem.dumps(
            {"graph": graph, "partition": partition, "relation": relation},
            pool,
        )
        assert pool.num_published >= first  # relation may add planes...
        before = pool.num_published
        sharedmem.dumps({"again": graph, "same": partition}, pool)
        assert pool.num_published == before  # ...re-published substrate never
        token = pool.publish(np.arange(5000, dtype=np.int64))
        name = token[1]
    assert sharedmem.active_pool() is None
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):  # exit closed + unlinked
        shared_memory.SharedMemory(name=name)


def test_pool_chain_reuses_primary_tokens_and_overlays_new_arrays(world):
    """Cell runs reuse plan-published arrays; new arrays stay cell-local."""
    graph, partition, relation = world
    with SharedArrayPool(threshold=1024) as primary:
        sharedmem.dumps({"graph": graph}, primary)  # plan-resource publish
        plan_wide = primary.num_published
        with SharedArrayPool(threshold=1024) as overlay:
            chain = sharedmem.PoolChain(primary, overlay)
            payload = sharedmem.dumps(
                {"graph": graph, "relation": relation}, chain
            )
            # The graph resolved to primary tokens; only the relation's
            # planes landed in the (cell-local) overlay.
            assert primary.num_published == plan_wide
            assert 0 < overlay.num_published
            clone = sharedmem.loads(payload)
            np.testing.assert_array_equal(clone["graph"].indices, graph.indices)
            np.testing.assert_array_equal(
                clone["relation"].indices, relation.indices
            )


def test_close_unlinks_blocks(world):
    graph, partition, relation = world
    pool = SharedArrayPool(threshold=1024)
    token = pool.publish(np.arange(10_000, dtype=np.int64))
    name = token[1]
    pool.close()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
