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


# ----------------------------------------------------------------------
# Memmap-backed planes: the zero-copy mmap token path
# ----------------------------------------------------------------------
@pytest.fixture()
def mapped_graph(tmp_path):
    from repro.graph.storage import graph_storage

    with graph_storage("memmap", directory=tmp_path):
        graph, partition = planted_category_graph(k=5, scale=40, rng=3)
    return graph, partition


def test_memmap_planes_tokenize_without_copying(mapped_graph):
    graph, partition = mapped_graph
    with SharedArrayPool(threshold=1024) as pool:
        payload = sharedmem.dumps({"graph": graph}, pool)
        # File-backed planes never copy into POSIX shared memory.
        assert pool.num_published == 0
        assert any(name.startswith("mmap:") for name in pool.block_names)
        clone = sharedmem.loads(payload)["graph"]
        np.testing.assert_array_equal(clone.indptr, graph.indptr)
        np.testing.assert_array_equal(clone.indices, graph.indices)
        assert not clone.indptr.base.flags.writeable
    sharedmem.release(pool.block_names)


def test_memmap_release_ignores_refcount_pin(mapped_graph):
    """The shm pin heuristic must not apply to mmap tokens.

    A live consumer view keeps an shm block pinned (detaching would
    invalidate its buffer), but an mmap entry is just a mapping of an
    on-disk file — dropping it is always safe, and the file stays.
    """
    graph, partition = mapped_graph
    with SharedArrayPool(threshold=1024) as pool:
        payload = sharedmem.dumps({"graph": graph}, pool)
        names = pool.block_names
        clone = sharedmem.loads(payload)["graph"]
        live_view = clone.indptr  # would pin an shm block
        sharedmem.release(names)
        # Every mmap entry is gone from the attach cache — no pinning.
        assert not any(name in sharedmem._ATTACHED for name in names)
        # The dropped mapping's data survives: the view still reads.
        np.testing.assert_array_equal(live_view, graph.indptr)


def test_pool_close_leaves_memmap_files(mapped_graph, tmp_path):
    graph, partition = mapped_graph
    pool = SharedArrayPool(threshold=1024)
    sharedmem.dumps({"graph": graph}, pool)
    assert pool.block_names
    pool.close()
    # close() unlinks shm blocks but never the on-disk planes.
    graph2, _ = mapped_graph
    np.testing.assert_array_equal(np.asarray(graph.indptr), np.asarray(graph2.indptr))


def test_ram_and_memmap_tokens_coexist(mapped_graph, world):
    mapped, _ = mapped_graph
    ram_graph, partition, relation = world
    with SharedArrayPool(threshold=1024) as pool:
        payload = sharedmem.dumps({"ram": ram_graph, "mapped": mapped}, pool)
        assert pool.num_published >= 2  # the RAM graph's planes
        assert any(name.startswith("mmap:") for name in pool.block_names)
        clones = sharedmem.loads(payload)
        np.testing.assert_array_equal(clones["ram"].indices, ram_graph.indices)
        np.testing.assert_array_equal(clones["mapped"].indices, mapped.indices)
    sharedmem.release(pool.block_names)
