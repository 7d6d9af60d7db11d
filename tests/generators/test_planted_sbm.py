"""Tests for the paper's planted model (Section 6.2.1) and the SBM."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.generators import (
    PAPER_CATEGORY_SIZES,
    PlantedModelConfig,
    planted_category_graph,
    planted_partition_graph,
    stochastic_block_model,
)
from repro.generators.planted import _inter_category_edges
from repro.graph import cut_matrix, is_connected
from tests.oracles import reference_inter_category_edges


class TestPaperConstants:
    def test_sizes_sum_to_paper_n(self):
        assert sum(PAPER_CATEGORY_SIZES) == 88_850

    def test_size_range(self):
        assert min(PAPER_CATEGORY_SIZES) == 50
        assert max(PAPER_CATEGORY_SIZES) == 50_000


class TestPlantedModel:
    def test_edge_budget(self):
        # |E| = 0.6 * N * k exactly (0.5 intra + 0.1 inter), when connected
        # without needing bridges.
        g, p = planted_category_graph(k=10, alpha=0.0, scale=20, rng=0)
        n = g.num_nodes
        assert g.num_edges == int(0.5 * n * 10) + int(round(n * 10 * 0.1))

    def test_partition_matches_scaled_sizes(self):
        config = PlantedModelConfig(k=10, scale=20)
        g, p = planted_category_graph(config, rng=0)
        assert p.num_categories == 10
        assert np.array_equal(np.sort(p.sizes()), np.sort(config.effective_sizes()))

    def test_connected(self):
        g, _ = planted_category_graph(k=6, scale=50, rng=1)
        assert is_connected(g)

    def test_alpha_zero_keeps_block_labels(self):
        g, p = planted_category_graph(k=6, alpha=0.0, scale=50, rng=0)
        sizes = p.sizes()
        # With alpha=0 labels are contiguous blocks.
        expected = np.repeat(np.arange(10), sizes)
        assert np.array_equal(p.labels, expected)

    def test_alpha_one_decouples(self):
        g, p0 = planted_category_graph(k=6, alpha=0.0, scale=50, rng=0)
        _, p1 = planted_category_graph(k=6, alpha=1.0, scale=50, rng=0)
        assert not np.array_equal(p0.labels, p1.labels)
        assert np.array_equal(np.sort(p0.sizes()), np.sort(p1.sizes()))

    def test_community_structure_strength(self):
        # At alpha=0 intra-category edges dominate each category's cut row.
        g, p = planted_category_graph(k=10, alpha=0.0, scale=20, rng=2)
        cuts = cut_matrix(g, p)
        intra = np.trace(cuts)
        inter = np.triu(cuts, k=1).sum()
        assert intra > 4 * inter  # 0.5 Nk intra vs 0.1 Nk inter

    def test_inter_edges_connect_different_categories(self):
        config = PlantedModelConfig(k=4, alpha=0.0, scale=100, connect=False)
        g, p = planted_category_graph(config, rng=3)
        cuts = cut_matrix(g, p)
        inter = int(np.triu(cuts, k=1).sum())
        n = g.num_nodes
        assert inter == int(round(n * 4 * 0.1))

    def test_invalid_alpha(self):
        with pytest.raises(GenerationError):
            planted_category_graph(k=4, alpha=1.5, scale=100, rng=0)

    def test_invalid_k(self):
        with pytest.raises(GenerationError):
            planted_category_graph(k=0, scale=100, rng=0)

    def test_invalid_scale(self):
        with pytest.raises(GenerationError):
            PlantedModelConfig(scale=0).effective_sizes()

    def test_scale_clamps_to_k_plus_one(self):
        config = PlantedModelConfig(k=20, scale=10_000)
        sizes = config.effective_sizes()
        assert all(s >= 21 for s in sizes)
        assert all((s * 20) % 2 == 0 for s in sizes)

    def test_reproducible(self):
        a = planted_category_graph(k=6, scale=50, rng=9)
        b = planted_category_graph(k=6, scale=50, rng=9)
        assert a[0] == b[0]
        assert np.array_equal(a[1].labels, b[1].labels)


#: sha256 over the little-endian int64 bytes of (indptr, indices,
#: partition labels), keyed by (k, alpha, scale, seed). The last two
#: configs bridge stray components (2 and 711 of them before bridging).
PLANTED_DIGESTS = [
    ((5, 0.5, 200, 0), "a7d7a4c2bc8a515e2c537271e649938c37ba3fdbeb67c23b453b7882918685ab"),
    ((10, 0.3, 50, 7), "bae27488b52178ab92b09e3afa932b9695421c90272a3d567cf0473b7ee9fc26"),
    ((49, 1.0, 200, 0), "725f6cdb09ee3c11ee9bf5bd7d09bafc2e9dce68d5e0b4343665da8ece73408e"),
    ((20, 0.5, 10, 0), "ce6e3e5862969b69191e24d3566854f1177aacf12dada86e421df4e7cbb1e507"),
    ((3, 0.5, 100, 0), "7f452f910aa988c2da7d24ad2c3910e903eda2e1fab90ac6440dd4c1069f6f5a"),
    ((1, 0.5, 50, 0), "d087ececc65e8487fcc8af5b00231f098a1bf79762cfbe69c64c8055e94960c3"),
]


class TestPlantedPins:
    """Absolute anchors: the planted model's bytes for fixed seeds, so a
    change in any generator's RNG consumption cannot drift silently."""

    @pytest.mark.parametrize(("config", "digest"), PLANTED_DIGESTS)
    def test_planted_bytes_pinned(self, config, digest):
        k, alpha, scale, seed = config
        graph, partition = planted_category_graph(
            k=k, alpha=alpha, scale=scale, rng=seed
        )
        h = hashlib.sha256()
        for arr in (graph.indptr, graph.indices, partition.labels):
            h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        ("sizes", "count", "seed"),
        [
            ((20, 20, 20), 1000, 0),
            ((5, 300), 40, 1),
            ((50, 50), 0, 2),
            ((3, 7, 90), 900, 3),
        ],
    )
    def test_inter_category_edges_match_reference(self, sizes, count, seed):
        """Same accepted edges, in the same order, and the same RNG
        state afterwards as the per-edge rejection loop."""
        labels = np.repeat(np.arange(len(sizes)), sizes)
        fast_gen = np.random.default_rng(seed)
        ref_gen = np.random.default_rng(seed)
        fast = _inter_category_edges(labels, count, fast_gen)
        ref = reference_inter_category_edges(labels, count, ref_gen)
        np.testing.assert_array_equal(fast, ref)
        assert fast.dtype == ref.dtype and fast.shape == (count, 2)
        assert fast_gen.integers(1 << 62) == ref_gen.integers(1 << 62)


class TestSbm:
    def test_block_structure(self):
        g, p = stochastic_block_model(
            [100, 100], np.array([[0.2, 0.01], [0.01, 0.2]]), rng=0
        )
        cuts = cut_matrix(g, p)
        assert cuts[0, 0] > cuts[0, 1]
        assert cuts[1, 1] > cuts[0, 1]

    def test_edge_counts_near_expectation(self):
        g, p = stochastic_block_model(
            [200, 200], np.array([[0.1, 0.02], [0.02, 0.1]]), rng=1
        )
        cuts = cut_matrix(g, p)
        intra_expect = 0.1 * 200 * 199 / 2
        inter_expect = 0.02 * 200 * 200
        assert abs(cuts[0, 0] - intra_expect) < 5 * np.sqrt(intra_expect)
        assert abs(cuts[0, 1] - inter_expect) < 5 * np.sqrt(inter_expect)

    def test_names_passed_through(self):
        g, p = stochastic_block_model(
            [10, 10], np.eye(2) * 0.5, rng=0, names=["x", "y"]
        )
        assert p.names == ("x", "y")

    def test_asymmetric_rejected(self):
        with pytest.raises(GenerationError, match="symmetric"):
            stochastic_block_model([5, 5], np.array([[0.5, 0.1], [0.2, 0.5]]))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(GenerationError):
            stochastic_block_model([5, 5], np.array([[1.5, 0.1], [0.1, 0.5]]))

    def test_bad_sizes_rejected(self):
        with pytest.raises(GenerationError):
            stochastic_block_model([0, 5], np.eye(2))

    def test_planted_partition_helper(self):
        g, p = planted_partition_graph(4, 50, p_in=0.3, p_out=0.01, rng=0)
        assert g.num_nodes == 200
        assert p.num_categories == 4
        cuts = cut_matrix(g, p)
        assert np.trace(cuts) > np.triu(cuts, k=1).sum()

    def test_planted_partition_invalid(self):
        with pytest.raises(GenerationError):
            planted_partition_graph(0, 10, 0.5, 0.1)
