"""Out-of-core CSR storage plane (:mod:`repro.graph.storage`).

The plane's one contract is byte identity: a graph streamed to
memmap-backed planes on disk must equal the in-RAM build bit for bit —
same indptr, same indices — whatever the chunk size, and a sweep run
against the mapped graph must reproduce the RAM sweep at every worker
count. These tests pin that contract, plus the failure modes of the
on-disk format (missing/torn/corrupt manifests, checksum mismatches).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.generators import gnm, planted_category_graph
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.storage import (
    MANIFEST_NAME,
    MemmapCSR,
    StreamingCSRBuilder,
    active_storage_mode,
    chunk_edges,
    edge_chunks,
    graph_storage,
    open_csr,
    save_csr,
    stream_graph,
)
from repro.runtime import faults
from repro.sampling import RandomWalkSampler
from repro.stats import run_nrmse_sweep


def _random_edges(n, m, seed):
    gen = np.random.default_rng(seed)
    edges = gen.integers(0, n, size=(m, 2))
    return edges[edges[:, 0] != edges[:, 1]].astype(np.int64)


def _graphs_equal(a, b):
    return np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr)) and (
        np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
    )


# ----------------------------------------------------------------------
# save_csr / open_csr round trips
# ----------------------------------------------------------------------
def test_save_open_round_trip(tmp_path):
    graph = Graph.from_edges(30, _random_edges(30, 120, 0))
    csr = save_csr(tmp_path, graph.indptr, graph.indices)
    assert csr.num_nodes == 30
    assert csr.num_arcs == len(graph.indices)
    reopened = open_csr(tmp_path, verify=True)
    assert _graphs_equal(reopened.graph(), graph)
    reopened.close()
    csr.close()


def test_weights_plane_round_trip(tmp_path):
    graph = Graph.from_edges(10, _random_edges(10, 40, 1))
    weights = np.arange(len(graph.indices), dtype=np.float64)
    save_csr(tmp_path, graph.indptr, graph.indices, weights=weights)
    csr = open_csr(tmp_path, verify=True)
    assert np.array_equal(np.asarray(csr.weights), weights)


def test_open_missing_manifest(tmp_path):
    with pytest.raises(StorageError, match="manifest"):
        open_csr(tmp_path / "nowhere")


def test_open_torn_manifest(tmp_path):
    graph = Graph.from_edges(12, _random_edges(12, 30, 2))
    save_csr(tmp_path, graph.indptr, graph.indices)
    manifest = tmp_path / MANIFEST_NAME
    raw = manifest.read_bytes()
    manifest.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(StorageError, match="torn or corrupt"):
        open_csr(tmp_path)


def test_open_manifest_missing_planes(tmp_path):
    graph = Graph.from_edges(12, _random_edges(12, 30, 3))
    save_csr(tmp_path, graph.indptr, graph.indices)
    manifest = tmp_path / MANIFEST_NAME
    payload = json.loads(manifest.read_text())
    del payload["planes"]["indices"]
    manifest.write_text(json.dumps(payload))
    with pytest.raises(StorageError, match="missing plane"):
        open_csr(tmp_path)


def test_checksum_mismatch_detected_on_verify(tmp_path):
    graph = Graph.from_edges(12, _random_edges(12, 30, 4))
    save_csr(tmp_path, graph.indptr, graph.indices)
    plane = tmp_path / "indices.npy"
    data = bytearray(plane.read_bytes())
    data[-1] ^= 0xFF
    plane.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="SHA-256"):
        open_csr(tmp_path, verify=True)
    # Without verify the plane still maps (checksums are opt-in).
    open_csr(tmp_path).close()


def test_corrupt_manifest_fault_directive(tmp_path):
    """The chaos path: a torn manifest injected right after the write.

    ``save_csr`` reopens the store it just wrote, so the tear surfaces
    immediately as a :class:`StorageError` — the same error a reader
    would hit after a mid-write crash. Rebuilding recovers the store.
    """
    graph = Graph.from_edges(12, _random_edges(12, 30, 5))
    with faults.inject("corrupt-manifest") as plan:
        with pytest.raises(StorageError, match="torn or corrupt"):
            save_csr(tmp_path, graph.indptr, graph.indices)
        assert plan.pending("corrupt-manifest") == 0
    with pytest.raises(StorageError, match="torn or corrupt"):
        open_csr(tmp_path)
    # Rebuilding over the torn directory recovers it.
    save_csr(tmp_path, graph.indptr, graph.indices)
    assert _graphs_equal(open_csr(tmp_path, verify=True).graph(), graph)


# ----------------------------------------------------------------------
# Streaming builder == one-shot builder, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_arcs", [7, 64, 1 << 20])
def test_streaming_build_matches_one_shot(tmp_path, chunk_arcs):
    for seed in range(4):
        n = 60 + 10 * seed
        edges = _random_edges(n, 50 * (seed + 2), seed)
        one_shot = Graph.from_edges(n, edges)
        builder = StreamingCSRBuilder(n, chunk_arcs=chunk_arcs)
        for chunk in chunk_edges(edges, max(chunk_arcs // 2, 3)):
            builder.add_edges(chunk)
        csr = builder.build(tmp_path / f"g{chunk_arcs}-{seed}")
        assert _graphs_equal(csr.graph(), one_shot)


def test_stream_graph_helper(tmp_path):
    edges = _random_edges(40, 200, 9)
    expected = Graph.from_edges(40, edges)
    csr = stream_graph(chunk_edges(edges, 17), 40, directory=tmp_path / "g")
    assert _graphs_equal(csr.graph(), expected)


def test_streaming_build_empty_graph(tmp_path):
    csr = StreamingCSRBuilder(5).build(tmp_path / "empty")
    graph = csr.graph()
    assert graph.num_nodes == 5
    assert graph.num_edges == 0
    assert _graphs_equal(open_csr(tmp_path / "empty", verify=True).graph(), graph)


def test_edge_chunks_round_trip(tmp_path):
    edges = _random_edges(50, 300, 10)
    graph = Graph.from_edges(50, edges)
    rebuilt = Graph.from_edges(
        50, np.concatenate(list(edge_chunks(graph, chunk_size=13)))
    )
    assert _graphs_equal(rebuilt, graph)


# ----------------------------------------------------------------------
# The GraphBuilder seam: ambient storage mode
# ----------------------------------------------------------------------
def test_graph_storage_scope_builds_memmap_backed_graph(tmp_path, monkeypatch):
    # The scope must restore RAM mode, even when the suite forces memmap.
    monkeypatch.delenv("REPRO_GRAPH_STORAGE", raising=False)
    edges = _random_edges(40, 150, 11)
    ram = Graph.from_edges(40, edges)
    with graph_storage("memmap", directory=tmp_path):
        assert active_storage_mode() == "memmap"
        mapped = Graph.from_edges(40, edges)
    assert active_storage_mode() == "ram"
    assert _graphs_equal(mapped, ram)
    # The mapped graph's planes really live on disk.
    base = np.asarray(mapped.indptr)
    while getattr(base, "base", None) is not None and not isinstance(
        base, np.memmap
    ):
        base = base.base
    assert isinstance(base, np.memmap)


def test_env_knob_selects_memmap(monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_STORAGE", "memmap")
    assert active_storage_mode() == "memmap"
    # An explicit scope overrides the environment.
    with graph_storage("ram"):
        assert active_storage_mode() == "ram"


def test_env_knob_rejects_unknown_mode(monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_STORAGE", "floppy")
    with pytest.raises(StorageError, match="floppy"):
        active_storage_mode()


def test_builder_streams_under_memmap_scope(tmp_path):
    """add_edges chunks fed under the scope spill through the streaming path."""
    edges = _random_edges(80, 500, 12)
    expected = Graph.from_edges(80, edges)
    with graph_storage("memmap", directory=tmp_path):
        builder = GraphBuilder(80)
        for chunk in chunk_edges(edges, 37):
            builder.add_edges(chunk)
        mapped = builder.build()
    assert _graphs_equal(mapped, expected)


# ----------------------------------------------------------------------
# End-to-end: memmap-backed sweep bit-identical to in-RAM sweep
# ----------------------------------------------------------------------
LADDER = (30, 90)
REPLICATIONS = 4
SEED = 77


@pytest.fixture(scope="module")
def sweep_world():
    graph, partition = planted_category_graph(k=6, scale=120, rng=5)
    return graph, partition


def _sweep(graph, partition, **kwargs):
    return run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
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


@pytest.mark.parametrize("workers", [1, 2])
def test_memmap_sweep_bit_identical_to_ram(sweep_world, tmp_path, workers):
    ram_graph, partition = sweep_world
    with graph_storage("memmap", directory=tmp_path):
        mapped_graph, mapped_partition = planted_category_graph(
            k=6, scale=120, rng=5
        )
    assert _graphs_equal(mapped_graph, ram_graph)
    assert np.array_equal(mapped_partition.labels, partition.labels)
    reference = _sweep(ram_graph, partition, executor="serial")
    mapped = _sweep(
        mapped_graph, mapped_partition, executor="process", workers=workers
    )
    assert _sweeps_equal(mapped, reference)
