"""Chunked ``emit_*_arcs`` faces vs their one-shot generators.

Every generator's streaming face shares its sampling core with the
one-shot face, so for the same seed the two must describe the same
edge set — the graph assembled from the emitted chunks is bit-identical
to the one-shot build, at any chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.generators import (
    barabasi_albert_graph,
    configuration_model_graph,
    emit_ba_arcs,
    emit_configuration_arcs,
    emit_gnm_arcs,
    emit_gnp_arcs,
    gnm,
    gnp,
    power_law_degree_sequence,
)
from repro.graph.builder import GraphBuilder

CHUNK_SIZES = (7, 128, 1 << 20)

_DEGREES = power_law_degree_sequence(300, 2.5, 6.0, rng=42)

#: name -> (one-shot build, emit face, node count).
GENERATORS = {
    "gnp": (
        lambda seed: gnp(150, 0.06, rng=seed),
        lambda seed, cs: emit_gnp_arcs(150, 0.06, chunk_size=cs, rng=seed),
        150,
    ),
    "gnp-dense": (
        lambda seed: gnp(25, 1.0, rng=seed),
        lambda seed, cs: emit_gnp_arcs(25, 1.0, chunk_size=cs, rng=seed),
        25,
    ),
    "gnm": (
        lambda seed: gnm(120, 700, rng=seed),
        lambda seed, cs: emit_gnm_arcs(120, 700, chunk_size=cs, rng=seed),
        120,
    ),
    "ba": (
        lambda seed: barabasi_albert_graph(250, 3, rng=seed),
        lambda seed, cs: emit_ba_arcs(250, 3, chunk_size=cs, rng=seed),
        250,
    ),
    "configuration": (
        lambda seed: configuration_model_graph(_DEGREES, rng=seed),
        lambda seed, cs: emit_configuration_arcs(_DEGREES, chunk_size=cs, rng=seed),
        len(_DEGREES),
    ),
}


def _from_chunks(num_nodes, chunks):
    builder = GraphBuilder(num_nodes)
    for chunk in chunks:
        assert chunk.ndim == 2 and chunk.shape[1] == 2
        builder.add_edges(chunk)
    return builder.build()


def _graphs_equal(a, b):
    return np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr)) and (
        np.array_equal(np.asarray(a.indices), np.asarray(b.indices))
    )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_chunked_emit_matches_one_shot(name, chunk_size):
    one_shot, emit, num_nodes = GENERATORS[name]
    expected = one_shot(9)
    streamed = _from_chunks(num_nodes, emit(9, chunk_size))
    assert _graphs_equal(streamed, expected), name


@pytest.mark.parametrize(
    "emit",
    [
        lambda: emit_gnp_arcs(10, 0.5, chunk_size=0, rng=0),
        lambda: emit_gnm_arcs(10, 5, chunk_size=0, rng=0),
        lambda: emit_ba_arcs(10, 2, chunk_size=0, rng=0),
        lambda: emit_configuration_arcs(
            np.array([2, 2], dtype=np.int64), chunk_size=0, rng=0
        ),
    ],
)
def test_emit_rejects_bad_chunk_size(emit):
    with pytest.raises(GenerationError, match="chunk_size"):
        emit()


def test_emit_validates_eagerly():
    """Bad parameters raise at call time, not at first iteration."""
    with pytest.raises(GenerationError):
        emit_gnp_arcs(10, 1.5, rng=0)
    with pytest.raises(GenerationError):
        emit_gnm_arcs(5, 100, rng=0)
    with pytest.raises(GenerationError):
        emit_ba_arcs(3, 5, rng=0)
