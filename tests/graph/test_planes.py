"""Derived-plane store (:mod:`repro.graph.planes`).

Three contracts are pinned here:

* **Bit identity** — every chunked out-of-core builder (arc_sources,
  upper edges, neighbor histograms, alias tables, walk cumsums, walk
  search keys) produces the exact bytes of its one-shot in-RAM twin at any
  chunk size, and a sweep over store-backed derivations equals the RAM
  sweep cold, warm, and through the process executor.
* **Content addressing** — keys follow source *bytes* (not identity,
  paths, or mtimes), so a rebuilt bit-identical substrate hits the
  cache across store instances (the cross-run reuse the telemetry
  ``planes.hit`` counter measures).
* **Fault tolerance** — a torn or tampered derived manifest (the
  ``corrupt-manifest:file=derived`` directive) quarantines the
  directory and rebuilds from sources instead of crashing.
"""

from __future__ import annotations

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.generators import planted_category_graph
from repro.graph.adjacency import Graph
from repro.graph.planes import (
    DerivedPlaneStore,
    PlaneWriter,
    build_arc_sources,
    build_neighbor_histogram,
    build_upper_edges,
    clear_plane_memo,
    node_blocks,
    plane_store_for,
    source_fingerprint,
)
from repro.graph.storage import graph_storage, save_csr
from repro.runtime import faults, telemetry_scope
from repro.runtime.sharedmem import _MMAP_TOKEN_KIND, SharedArrayPool
from repro.sampling import StratifiedWeightedWalkSampler
from repro.sampling.alias import build_alias_planes, build_alias_tables
from repro.sampling.walks import (
    _arc_search_key,
    _segmented_cumsum,
    build_search_key,
    build_segmented_cumsum,
)
from repro.stats import run_nrmse_sweep

#: Chunk sizes every builder equivalence test sweeps — tiny (every run
#: its own block), awkward (runs straddle candidates), and huge (one
#: block, the one-shot layout).
CHUNKS = (1, 2, 3, 7, 64, 1 << 20)


class _RamWriter:
    """In-RAM stand-in for :class:`PlaneWriter` (builder unit tests)."""

    def __init__(self):
        self.planes: dict[str, np.ndarray] = {}

    def create(self, name, dtype, shape):
        array = np.zeros(shape, dtype=dtype)
        self.planes[name] = array
        return array


def _random_edges(n, m, seed):
    gen = np.random.default_rng(seed)
    edges = gen.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]].astype(np.int64)


@st.composite
def _csr_indptr(draw):
    degrees = draw(
        st.lists(st.integers(min_value=0, max_value=17), min_size=0, max_size=40)
    )
    return np.concatenate(
        ([0], np.cumsum(np.asarray(degrees, dtype=np.int64)))
    ).astype(np.int64)


# ----------------------------------------------------------------------
# Store mechanics: build, hit, keying, fingerprints
# ----------------------------------------------------------------------
def test_store_builds_once_then_hits(tmp_path):
    store = DerivedPlaneStore(tmp_path)
    source = np.arange(64, dtype=np.int64)
    calls = []

    def build(writer):
        calls.append(1)
        out = writer.create("doubled", np.int64, (64,))
        out[:] = source * 2

    planes = store.get_or_build("double", sources=(source,), build=build)
    assert np.array_equal(planes["doubled"], source * 2)
    assert not planes["doubled"].flags.writeable
    assert calls == [1]
    # In-process memo: same object back, no rebuild.
    again = store.get_or_build("double", sources=(source,), build=build)
    assert again["doubled"] is planes["doubled"]
    assert calls == [1]

    def boom(writer):
        raise AssertionError("a committed key must never rebuild")

    # A fresh store instance (a "second run") opens the committed
    # directory without calling build at all.
    fresh = DerivedPlaneStore(tmp_path)
    reopened = fresh.get_or_build("double", sources=(source,), build=boom)
    assert np.array_equal(reopened["doubled"], source * 2)


def test_store_counters(tmp_path):
    store = DerivedPlaneStore(tmp_path)
    source = np.arange(512, dtype=np.int64)

    def build(writer):
        writer.create("x", np.int64, (512,))[:] = source

    metrics = tmp_path / "metrics.json"
    with telemetry_scope(metrics=metrics):
        store.get_or_build("id", sources=(source,), build=build)
        store.clear_memo()
        store.get_or_build("id", sources=(source,), build=build)
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["planes.built"] == 1
    assert counters["planes.hit"] == 1
    assert counters["planes.built_bytes"] == 512 * 8
    assert counters["planes.hit_bytes"] == 512 * 8
    assert counters["planes.quarantined"] == 0


def test_key_tracks_content_params_and_version(tmp_path):
    store = DerivedPlaneStore(tmp_path)
    a = np.arange(10, dtype=np.int64)
    key = store.key_of("d", sources=(a,))
    # Content, not identity: an equal copy keys the same.
    assert store.key_of("d", sources=(a.copy(),)) == key
    assert store.key_of("d", sources=(a + 1,)) != key
    assert store.key_of("d", sources=(a.astype(np.int32),)) != key
    assert store.key_of("e", sources=(a,)) != key
    assert store.key_of("d", sources=(a,), version=2) != key
    assert store.key_of("d", sources=(a,), params={"x": 1}) != key


def test_fingerprints_stable_across_rebuilt_substrates(tmp_path):
    """Two separate on-disk builds of the same planes key identically.

    This is the cross-run reuse property: run 2 streams the substrate
    into a *different* directory, but bit-identical planes carry the
    same manifest SHA-256, so every derivation over them is a cache hit.
    """
    graph = Graph.from_edges(40, _random_edges(40, 160, 3))
    csr_a = save_csr(tmp_path / "a", graph.indptr, graph.indices)
    csr_b = save_csr(tmp_path / "b", graph.indptr, graph.indices)
    fp_a = source_fingerprint(csr_a.indptr)
    fp_b = source_fingerprint(csr_b.indptr)
    assert fp_a == fp_b
    assert fp_a["kind"] == "plane"  # resolved from the manifest, no read
    # A RAM copy of the same bytes hashes by content instead — still
    # deterministic, just a different (self-consistent) fingerprint.
    ram = source_fingerprint(np.asarray(csr_a.indptr).copy())
    assert ram["kind"] == "content"
    assert ram == source_fingerprint(np.asarray(csr_b.indptr).copy())
    # A window into a plane is NOT the plane the manifest hashed.
    assert source_fingerprint(csr_a.indices[1:])["kind"] == "content"


# ----------------------------------------------------------------------
# Fault tolerance: torn + tampered manifests
# ----------------------------------------------------------------------
def test_corrupt_manifest_fault_quarantines_and_rebuilds(tmp_path):
    store = DerivedPlaneStore(tmp_path)
    source = np.arange(128, dtype=np.int64)

    def build(writer):
        writer.create("x", np.int64, (128,))[:] = source + 7

    metrics = tmp_path / "metrics.json"
    with faults.inject("corrupt-manifest:file=derived") as plan:
        with telemetry_scope(metrics=metrics):
            planes = store.get_or_build("plus7", sources=(source,), build=build)
        assert plan.pending("corrupt-manifest") == 0
    assert np.array_equal(planes["x"], source + 7)
    counters = json.loads(metrics.read_text())["counters"]
    assert counters["planes.quarantined"] == 1
    assert counters["planes.built"] == 1
    quarantined = list((tmp_path / "plus7").glob("*.corrupt*"))
    assert quarantined, "the torn directory should be renamed aside"
    # The recovered commit is clean: a fresh store hits without building.
    fresh = DerivedPlaneStore(tmp_path)

    def boom(writer):
        raise AssertionError("recovered key must reopen, not rebuild")

    assert np.array_equal(
        fresh.get_or_build("plus7", sources=(source,), build=boom)["x"],
        source + 7,
    )


def test_tampered_manifest_quarantines_and_rebuilds(tmp_path):
    store = DerivedPlaneStore(tmp_path)
    source = np.arange(100, dtype=np.float64)
    calls = []

    def build(writer):
        calls.append(1)
        writer.create("x", np.float64, (100,))[:] = source * 0.5

    store.get_or_build("half", sources=(source,), build=build)
    (key_dir,) = [
        d for d in (tmp_path / "half").iterdir() if not d.name.startswith(".")
    ]
    (key_dir / "manifest.json").write_text("{ not json")
    fresh = DerivedPlaneStore(tmp_path)
    planes = fresh.get_or_build("half", sources=(source,), build=build)
    assert np.array_equal(planes["x"], source * 0.5)
    assert calls == [1, 1]
    assert list((tmp_path / "half").glob("*.corrupt*"))


def test_fault_file_param_targets_one_store(tmp_path):
    """``file=derived`` must never tear a base-CSR manifest."""
    graph = Graph.from_edges(12, _random_edges(12, 30, 2))
    with faults.inject("corrupt-manifest:file=derived") as plan:
        save_csr(tmp_path, graph.indptr, graph.indices)
        assert plan.pending("corrupt-manifest") == 1  # untouched budget


def test_writer_rejects_duplicate_and_bad_names(tmp_path):
    writer = PlaneWriter(tmp_path)
    writer.create("x", np.int64, 4)
    with pytest.raises(StorageError, match="already created"):
        writer.create("x", np.int64, 4)
    with pytest.raises(StorageError, match="invalid plane name"):
        writer.create("../escape", np.int64, 4)


# ----------------------------------------------------------------------
# Chunked builders == one-shot twins, at every chunk size
# ----------------------------------------------------------------------
def test_node_blocks_cover_whole_runs():
    indptr = np.array([0, 3, 3, 10, 11, 20], dtype=np.int64)
    for chunk in CHUNKS:
        blocks = list(node_blocks(indptr, chunk))
        # Contiguous, exhaustive, and at least one node per block.
        assert blocks[0][0] == 0 and blocks[-1][1] == 5
        for (a, b, lo, hi), (a2, _, lo2, _) in zip(blocks, blocks[1:]):
            assert b == a2 and hi == lo2
        for a, b, lo, hi in blocks:
            assert b > a
            assert lo == int(indptr[a]) and hi == int(indptr[b])


@given(indptr=_csr_indptr())
@settings(max_examples=30, deadline=None)
def test_chunked_arc_sources_matches_one_shot(indptr):
    expected = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    for chunk in CHUNKS:
        writer = _RamWriter()
        build_arc_sources(writer, indptr, chunk)
        assert np.array_equal(writer.planes["arc_sources"], expected)


@given(indptr=_csr_indptr(), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_chunked_cumsum_bit_identical(indptr, seed):
    gen = np.random.default_rng(seed)
    values = gen.uniform(0.1, 3.0, size=int(indptr[-1]))
    expected = _segmented_cumsum(values, indptr)
    for chunk in CHUNKS:
        writer = _RamWriter()
        build_segmented_cumsum(writer, values, indptr, chunk)
        assert np.array_equal(writer.planes["cumsum"], expected)


@given(indptr=_csr_indptr(), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_chunked_search_key_bit_identical(indptr, seed):
    gen = np.random.default_rng(seed)
    values = gen.uniform(0.1, 3.0, size=int(indptr[-1]))
    cumulative = _segmented_cumsum(values, indptr)
    sources = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
    expected = _arc_search_key(sources, cumulative)
    for chunk in CHUNKS:
        writer = _RamWriter()
        build_search_key(writer, sources, cumulative, chunk)
        assert np.array_equal(writer.planes["key"], expected)


@given(indptr=_csr_indptr(), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_chunked_alias_bit_identical(indptr, seed):
    gen = np.random.default_rng(seed)
    weights = gen.uniform(0.1, 5.0, size=int(indptr[-1]))
    # Strengths exactly as the weighted walk computes them.
    cumulative = _segmented_cumsum(weights, indptr)
    degrees = np.diff(indptr)
    if len(weights):
        run_ends = np.maximum(indptr[1:] - 1, 0)
        strengths = np.where(degrees > 0, cumulative[run_ends], 0.0)
    else:
        strengths = np.zeros(len(indptr) - 1)
    for provided in (None, strengths):
        one_shot = build_alias_tables(indptr, weights, provided)
        for chunk in CHUNKS:
            writer = _RamWriter()
            build_alias_planes(writer, indptr, weights, provided, chunk)
            assert np.array_equal(writer.planes["prob"], one_shot.prob)
            assert np.array_equal(writer.planes["alias"], one_shot.alias)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_chunked_observation_planes_match_one_shot(chunk):
    # Isolated nodes (the edges reach 40 of 48) and a hub whose run is a
    # block of its own at small chunks.
    edges = _random_edges(40, 90, 9)
    edges = np.concatenate((edges, [[0, v] for v in range(1, 30)]))
    graph = Graph.from_edges(48, edges)
    labels = np.random.default_rng(9).integers(0, 6, size=48)
    keys = graph.arc_sources * 6 + labels[graph.indices]
    unique, counts = np.unique(keys, return_counts=True)
    writer = _RamWriter()
    build_upper_edges(writer, graph.indptr, graph.indices, chunk)
    build_neighbor_histogram(writer, labels, 6, graph.indptr, graph.indices, chunk)
    planes = writer.planes
    assert np.array_equal(planes["upper_edges"], graph.edge_array().T)
    assert np.array_equal(
        planes["indptr"], np.searchsorted(unique // 6, np.arange(49))
    )
    assert np.array_equal(planes["categories"], unique % 6)
    assert np.array_equal(planes["counts"], counts)
    # Compact dtypes follow the values, never the chunking.
    assert {name: plane.dtype.str for name, plane in planes.items()} == {
        "upper_edges": "<i4",
        "indptr": "<i4",
        "categories": "|u1",
        "counts": "|u1",
    }


# ----------------------------------------------------------------------
# End-to-end under the memmap storage plane
# ----------------------------------------------------------------------
def _file_base(array):
    base = array
    while base is not None and not isinstance(base, np.memmap):
        base = base.base
    return base


def _world(rng=5):
    return planted_category_graph(k=5, scale=60, rng=rng)


def test_derivations_spill_and_match_ram(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    ram_graph, ram_part = _world()
    ram_sampler = StratifiedWeightedWalkSampler(ram_graph, ram_part, next_hop="alias")
    with graph_storage("memmap", directory=tmp_path):
        graph, part = _world()
        # Every derivation family: bit-identical AND file-backed.
        derived = {
            "arc_sources": graph.arc_sources,
            "upper_edges": graph.upper_edges,
        }
        for name, plane in zip(
            ("indptr", "categories", "counts"), part.neighbor_histogram(graph)
        ):
            derived[f"histogram_{name}"] = plane
        sampler = StratifiedWeightedWalkSampler(graph, part, next_hop="alias")
        derived["cumsum"] = sampler._local_cumulative
        derived["prob"] = sampler._alias_tables.prob
        derived["alias"] = sampler._alias_tables.alias
        expected = {
            "arc_sources": ram_graph.arc_sources,
            "upper_edges": ram_graph.upper_edges,
            **{
                f"histogram_{name}": plane
                for name, plane in zip(
                    ("indptr", "categories", "counts"),
                    ram_part.neighbor_histogram(ram_graph),
                )
            },
            "cumsum": ram_sampler._local_cumulative,
            "prob": ram_sampler._alias_tables.prob,
            "alias": ram_sampler._alias_tables.alias,
        }
        for name, array in derived.items():
            assert np.array_equal(np.asarray(array), np.asarray(expected[name])), name
            assert np.asarray(array).dtype == np.asarray(expected[name]).dtype, name
            base = _file_base(array)
            assert base is not None and str(base.filename).startswith(
                str(tmp_path)
            ), f"{name} is not file-backed"


def test_warm_store_skips_derivation(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    metrics_cold = tmp_path / "cold.json"
    metrics_warm = tmp_path / "warm.json"
    with graph_storage("memmap", directory=tmp_path / "store"):
        graph, part = _world()
        with telemetry_scope(metrics=metrics_cold):
            StratifiedWeightedWalkSampler(graph, part, next_hop="alias")
        clear_plane_memo()  # forget the open handles, keep the disk cache
        with telemetry_scope(metrics=metrics_warm):
            warm = StratifiedWeightedWalkSampler(graph, part, next_hop="alias")
    cold_counters = json.loads(metrics_cold.read_text())["counters"]
    warm_counters = json.loads(metrics_warm.read_text())["counters"]
    assert cold_counters["planes.built"] >= 2  # cumsum + alias tables
    assert warm_counters["planes.built"] == 0
    assert warm_counters["planes.hit"] >= 2
    assert warm_counters["planes.hit_bytes"] > 0
    assert _file_base(warm._local_cumulative) is not None


def test_search_key_plane_cold_build_then_warm_hit(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    # The RAM baseline needs RAM mode even when the suite forces memmap.
    monkeypatch.delenv("REPRO_GRAPH_STORAGE", raising=False)
    ram_graph, ram_part = _world()
    ram_key = StratifiedWeightedWalkSampler(ram_graph, ram_part)._search_key
    assert _file_base(ram_key) is None
    metrics_cold = tmp_path / "cold.json"
    metrics_warm = tmp_path / "warm.json"
    store = tmp_path / "store"
    with graph_storage("memmap", directory=store):
        graph, part = _world()
        with telemetry_scope(metrics=metrics_cold):
            cold = StratifiedWeightedWalkSampler(graph, part)
        assert list(store.rglob("walk-search-key/*/key.npy"))
        clear_plane_memo()
        with telemetry_scope(metrics=metrics_warm):
            warm = StratifiedWeightedWalkSampler(graph, part)
    cold_counters = json.loads(metrics_cold.read_text())["counters"]
    warm_counters = json.loads(metrics_warm.read_text())["counters"]
    assert cold_counters["planes.built"] >= 2  # cumsum + search key
    assert warm_counters["planes.built"] == 0
    assert warm_counters["planes.hit"] >= 2
    for sampler in (cold, warm):
        assert _file_base(sampler._search_key) is not None
        assert np.array_equal(sampler._search_key, ram_key)


LADDER = (30, 90)
REPLICATIONS = 4
SEED = 77


def _alias_sweep(graph, partition, **kwargs):
    return run_nrmse_sweep(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition, next_hop="alias"),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        **kwargs,
    )


def _sweeps_equal(a, b):
    if not np.array_equal(a.sample_sizes, b.sample_sizes):
        return False
    for kind in ("induced", "star"):
        for attr in ("size_nrmse", "weight_nrmse", "size_coverage"):
            if not np.array_equal(
                getattr(a, attr)[kind], getattr(b, attr)[kind], equal_nan=True
            ):
                return False
    return True


def test_alias_sweep_bit_identical_cold_warm_and_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    ram_graph, ram_part = _world()
    reference = _alias_sweep(ram_graph, ram_part, executor="serial")
    with graph_storage("memmap", directory=tmp_path):
        graph, part = _world()
        cold = _alias_sweep(graph, part, executor="serial")
        clear_plane_memo()
        warm = _alias_sweep(graph, part, executor="serial")
        for workers in (1, 2):
            parallel = _alias_sweep(
                graph, part, executor="process", workers=workers
            )
            assert _sweeps_equal(parallel, reference), f"workers={workers}"
    assert _sweeps_equal(cold, reference)
    assert _sweeps_equal(warm, reference)


def test_derived_planes_ship_as_mmap_tokens(tmp_path, monkeypatch):
    """Workers map derived planes from disk: zero publish bytes."""
    from repro.runtime import sharedmem

    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    with graph_storage("memmap", directory=tmp_path):
        graph, part = _world()
        sampler = StratifiedWeightedWalkSampler(graph, part, next_hop="alias")
    with SharedArrayPool(threshold=1) as pool:
        payload = sharedmem.dumps({"sampler": sampler}, pool)
        for plane in (
            sampler._local_cumulative,
            sampler._alias_tables.prob,
            sampler._alias_tables.alias,
            graph.arc_sources,
        ):
            # mmap tokens name the file — nothing copied into /dev/shm.
            assert pool.publish(plane)[0] == _MMAP_TOKEN_KIND
        clone = sharedmem.loads(payload)["sampler"]
        assert np.array_equal(
            clone._local_cumulative, sampler._local_cumulative
        )
        assert np.array_equal(
            clone._alias_tables.prob, sampler._alias_tables.prob
        )
        # This load ran in-process: drop the attachment cache before the
        # pool unlinks, or the dead mappings outlive the test (and get
        # fork-inherited by any worker spawned later).
        names = pool.block_names
        del clone
        sharedmem.release(names)


def test_raw_memmap_planes_tokenize(tmp_path):
    """The pickler ships bare np.memmap planes by token, not by copy."""
    from repro.runtime import sharedmem

    graph = Graph.from_edges(30, _random_edges(30, 120, 4))
    csr = save_csr(tmp_path, graph.indptr, graph.indices)
    raw = csr._planes["indices"]
    assert isinstance(raw, np.memmap)
    with SharedArrayPool(threshold=1) as pool:
        payload = sharedmem.dumps({"plane": raw}, pool)
        assert pool.publish(raw)[0] == _MMAP_TOKEN_KIND
        clone = sharedmem.loads(payload)["plane"]
        assert np.array_equal(clone, np.asarray(raw))
        names = pool.block_names
        del clone
        sharedmem.release(names)


def test_chunked_build_peak_memory_bounded(tmp_path):
    """Peak traced RAM during construction follows the chunk, not the plane."""
    n, degree = 120_000, 16
    chunk = 1 << 14
    indptr = np.arange(0, (n + 1) * degree, degree, dtype=np.int64)
    gen = np.random.default_rng(0)
    weights = gen.uniform(0.5, 2.0, size=n * degree)
    plane_bytes = weights.nbytes  # 15 MiB per output plane
    writer = PlaneWriter(tmp_path)
    tracemalloc.start()
    try:
        build_segmented_cumsum(writer, weights, indptr, chunk)
        build_alias_planes(writer, indptr, weights, None, chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Outputs are w+ memmaps (untracked OS pages); the builders' Python
    # allocations are block temporaries — a small multiple of the chunk.
    assert peak < plane_bytes // 3, f"peak {peak} vs plane {plane_bytes}"
    assert peak < 64 * chunk * 8, f"peak {peak} not bounded by chunk {chunk}"


def test_planes_counters_always_in_metrics(tmp_path):
    metrics = tmp_path / "metrics.json"
    with telemetry_scope(metrics=metrics):
        pass
    counters = json.loads(metrics.read_text())["counters"]
    for key in (
        "planes.built",
        "planes.built_bytes",
        "planes.hit",
        "planes.hit_bytes",
        "planes.quarantined",
    ):
        assert key in counters and counters[key] == 0


def test_ram_mode_stays_in_ram(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", "0")
    monkeypatch.delenv("REPRO_GRAPH_STORAGE", raising=False)
    graph, part = _world()
    assert plane_store_for(graph.indptr, nbytes=10**9) is None
    assert _file_base(graph.arc_sources) is None
    sampler = StratifiedWeightedWalkSampler(graph, part, next_hop="alias")
    assert _file_base(sampler._local_cumulative) is None


def test_threshold_keeps_micro_planes_in_ram(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLANE_THRESHOLD", str(1 << 16))
    with graph_storage("memmap", directory=tmp_path):
        assert plane_store_for(np.arange(4), nbytes=1024) is None
        assert plane_store_for(np.arange(4), nbytes=1 << 20) is not None
