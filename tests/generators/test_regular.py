"""Tests for the random k-regular generator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.generators import random_regular_graph
from repro.generators.regular import random_regular_edges
from repro.graph import is_connected


class TestRandomRegular:
    @pytest.mark.parametrize("n,k", [(10, 3), (20, 4), (51, 6), (100, 49)])
    def test_all_degrees_equal_k(self, n, k):
        g = random_regular_graph(n, k, rng=0)
        assert set(g.degrees().tolist()) == {k}
        assert g.num_edges == n * k // 2

    def test_zero_degree(self):
        g = random_regular_graph(5, 0, rng=0)
        assert g.num_edges == 0

    def test_complete_graph_case(self):
        g = random_regular_graph(8, 7, rng=0)
        assert g.num_edges == 28

    def test_odd_nk_rejected(self):
        with pytest.raises(GenerationError, match="even"):
            random_regular_graph(5, 3, rng=0)

    def test_k_geq_n_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, 5, rng=0)

    def test_negative_k_rejected(self):
        with pytest.raises(GenerationError):
            random_regular_graph(5, -1, rng=0)

    def test_different_seeds_differ(self):
        a = random_regular_graph(30, 4, rng=1)
        b = random_regular_graph(30, 4, rng=2)
        assert a != b

    def test_same_seed_reproducible(self):
        a = random_regular_graph(30, 4, rng=7)
        b = random_regular_graph(30, 4, rng=7)
        assert a == b

    def test_moderate_k_usually_connected(self):
        # Random k-regular graphs with k >= 3 are connected w.h.p.
        g = random_regular_graph(200, 5, rng=3)
        assert is_connected(g)

    def test_simple_no_self_loops(self):
        g = random_regular_graph(40, 6, rng=4)
        for v in range(40):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert len(np.unique(nbrs)) == len(nbrs)


#: sha256 of the little-endian int64 edge array, keyed by (n, k, seed).
#: Dense configs need many repair swaps, so these pin the repair loop's
#: RNG consumption and its "already present" rule.
REGULAR_DIGESTS = [
    ((20, 15, 0), "2e7bc0e5bf18c75feac4a6b662e7c1e8c70d52e01e8b0cf3beffdcf714fc4933"),
    ((31, 24, 1), "01993e006743749d81fb313e2677c747ae3df6cb05a223b6b1995fbb35d6e81f"),
    ((50, 40, 2), "f79bfcf858cb562672f56dfe5bc4e22348e3b00f4750fd7e9229dfad72e9bb3e"),
    ((1000, 49, 3), "3ec94125b22d846c16882c0bcd4839521aae56e002c9f56ecc5f41af63a8ff2d"),
]


@pytest.mark.parametrize(("config", "digest"), REGULAR_DIGESTS)
def test_regular_edges_pinned(config, digest):
    n, k, seed = config
    edges = np.ascontiguousarray(random_regular_edges(n, k, rng=seed), dtype="<i8")
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest
