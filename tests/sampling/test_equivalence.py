"""Cross-design equivalence harness for the batched sampling engine.

Every exported sampler design runs through both ``sample()`` and
``sample_many()`` on shared fixtures, asserting the contract its
next-hop machinery promises:

* **bit-equality** — replicate ``r`` of ``sample_many(n, R, rng)``
  equals ``sample(n, rng=spawn_rngs(rng, R)[r])`` exactly. This holds
  for *every* design: registered kernels guarantee it by construction,
  and the sequential fallback trivially so. New kernels registered via
  ``register_kernel`` are covered automatically once their design is
  added to ``DESIGNS`` below.
* **distributional equality** — the alias next-hop engine consumes its
  uniform variate differently than the binary search, so alias walks
  are compared statistically: exact reconstruction of the encoded
  per-arc probabilities, plus a chi-square test on sampled next-hop
  frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.generators import planted_category_graph
from repro.graph import CategoryPartition, Graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling import (
    BreadthFirstSampler,
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    Sampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
    WeightedIndependenceSampler,
    WeightedRandomWalkSampler,
    is_registered,
    register_kernel,
    registered_kernel,
)
from repro.sampling import batch as batch_module


@dataclass(frozen=True)
class World:
    """Shared fixtures every design samples from."""

    graph: Graph
    partition: CategoryPartition
    arc_weights: np.ndarray


@pytest.fixture(scope="module")
def world() -> World:
    graph, partition = planted_category_graph(k=8, scale=40, rng=0)
    arc_weights = np.abs(np.sin(np.arange(len(graph.indices)))) + 0.5
    return World(graph, partition, arc_weights)


#: name -> (factory, has_batch_kernel). Add new designs here and the
#: whole harness (bit-equality + kernel-coverage checks) applies.
DESIGNS = {
    "uis": (lambda w: UniformIndependenceSampler(w.graph), False),
    "wis": (
        lambda w: WeightedIndependenceSampler(
            w.graph, np.linspace(0.5, 2.0, w.graph.num_nodes)
        ),
        False,
    ),
    "rw": (lambda w: RandomWalkSampler(w.graph), True),
    "rw-burnin": (lambda w: RandomWalkSampler(w.graph, burn_in=13), True),
    "mhrw": (lambda w: MetropolisHastingsSampler(w.graph), True),
    "wrw": (
        lambda w: WeightedRandomWalkSampler(w.graph, w.arc_weights),
        True,
    ),
    "wrw-alias": (
        lambda w: WeightedRandomWalkSampler(
            w.graph, w.arc_weights, next_hop="alias"
        ),
        True,
    ),
    "rwj": (lambda w: RandomWalkWithJumpsSampler(w.graph, alpha=5.0), True),
    "swrw": (
        lambda w: StratifiedWeightedWalkSampler(w.graph, w.partition),
        True,
    ),
    "swrw-alias": (
        lambda w: StratifiedWeightedWalkSampler(
            w.graph, w.partition, next_hop="alias"
        ),
        True,
    ),
    "bfs": (lambda w: BreadthFirstSampler(w.graph), True),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_batch_replicates_bit_equal_sequential(name, world):
    factory, _ = DESIGNS[name]
    sampler = factory(world)
    n, replications, seed = 180, 5, sum(map(ord, name)) % 1000
    batch = sampler.sample_many(n, replications, rng=seed)
    assert batch.num_replicates == replications
    assert batch.draws_per_replicate == n
    streams = spawn_rngs(ensure_rng(seed), replications)
    for r, stream in enumerate(streams):
        sequential = sampler.sample(n, rng=stream)
        replicate = batch.replicate(r)
        assert np.array_equal(sequential.nodes, replicate.nodes), (
            f"{name}: trajectory mismatch in replicate {r}"
        )
        assert np.array_equal(sequential.weights, replicate.weights), (
            f"{name}: weight mismatch in replicate {r}"
        )
        assert sequential.design == replicate.design
        assert sequential.uniform == replicate.uniform


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_kernel_coverage_matches_declaration(name, world):
    factory, has_kernel = DESIGNS[name]
    kernel = registered_kernel(factory(world))
    if has_kernel:
        assert kernel is not None, f"{name} lost its batch kernel"
    else:
        assert kernel is None, f"{name} unexpectedly grew a batch kernel"


# ----------------------------------------------------------------------
# Alias next-hop: statistical equivalence with the binary search
# ----------------------------------------------------------------------
def _chi_square_bound(df: int) -> float:
    """Loose (~4 sigma) upper quantile of chi-square with ``df`` dofs."""
    return df + 4.0 * np.sqrt(2.0 * df)


def _star_world(num_leaves: int = 9):
    """Star graph with linearly skewed edge weights (leaf i weighs i)."""
    graph = Graph.from_edges(
        num_leaves + 1, [(0, i) for i in range(1, num_leaves + 1)]
    )
    src = graph.arc_sources
    weights = np.maximum(src, graph.indices).astype(float)
    expected = np.arange(1, num_leaves + 1, dtype=float)
    return graph, weights, expected / expected.sum()


def test_alias_tables_encode_exact_probabilities(world):
    sampler = WeightedRandomWalkSampler(
        world.graph, world.arc_weights, next_hop="alias"
    )
    reconstructed = sampler._alias_tables.reconstructed_probabilities(
        world.graph.indptr
    )
    expected = world.arc_weights / np.repeat(
        sampler.strengths, world.graph.degrees()
    )
    np.testing.assert_allclose(reconstructed, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("next_hop", ["search", "alias"])
def test_next_hop_frequencies_match_weights(next_hop):
    # On a star, every even-indexed draw is a leaf chosen from the
    # center's weighted distribution (odd draws return to the center).
    graph, weights, probs = _star_world()
    sampler = WeightedRandomWalkSampler(
        graph, weights, start=0, next_hop=next_hop
    )
    sample = sampler.sample(20_001, rng=0)
    leaves = sample.nodes[::2]
    counts = np.bincount(leaves, minlength=len(probs) + 1)[1:]
    expected = counts.sum() * probs
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < _chi_square_bound(len(probs) - 1), (next_hop, chi2)


def test_batched_alias_frequencies_match_weights():
    graph, weights, probs = _star_world()
    sampler = WeightedRandomWalkSampler(graph, weights, start=0, next_hop="alias")
    batch = sampler.sample_many(2001, 12, rng=1)
    leaves = batch.nodes[:, ::2].ravel()
    counts = np.bincount(leaves, minlength=len(probs) + 1)[1:]
    expected = counts.sum() * probs
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < _chi_square_bound(len(probs) - 1), chi2


def test_alias_and_search_agree_distributionally():
    # Same walk, same seed budget, different next-hop engines: the
    # empirical leaf distributions must agree within sampling noise
    # (two-sample chi-square).
    graph, weights, probs = _star_world()
    counts = {}
    for engine in ("search", "alias"):
        sampler = WeightedRandomWalkSampler(
            graph, weights, start=0, next_hop=engine
        )
        sample = sampler.sample(20_001, rng=7)
        counts[engine] = np.bincount(
            sample.nodes[::2], minlength=len(probs) + 1
        )[1:].astype(float)
    a, b = counts["search"], counts["alias"]
    pooled = (a + b) / (a.sum() + b.sum())
    chi2 = float(
        (((a - a.sum() * pooled) ** 2) / (a.sum() * pooled)).sum()
        + (((b - b.sum() * pooled) ** 2) / (b.sum() * pooled)).sum()
    )
    assert chi2 < _chi_square_bound(len(probs) - 1), chi2


def test_alias_weights_are_strengths(world):
    search = WeightedRandomWalkSampler(world.graph, world.arc_weights)
    alias = WeightedRandomWalkSampler(
        world.graph, world.arc_weights, next_hop="alias"
    )
    np.testing.assert_array_equal(search.strengths, alias.strengths)
    sample = alias.sample(300, rng=3)
    assert np.array_equal(sample.weights, alias.strengths[sample.nodes])


def test_bad_next_hop_rejected(world):
    from repro.exceptions import SamplingError

    with pytest.raises(SamplingError):
        WeightedRandomWalkSampler(
            world.graph, world.arc_weights, next_hop="magic"
        )


# ----------------------------------------------------------------------
# The registry itself
# ----------------------------------------------------------------------
class _CountingSampler(UniformIndependenceSampler):
    pass


class _CountingSubclass(_CountingSampler):
    pass


def test_register_kernel_dispatch_and_mro_inheritance(world):
    calls = []

    def kernel(sampler, n, streams):
        calls.append(len(streams))
        nodes = np.zeros((len(streams), n), dtype=np.int64)
        return nodes, np.ones_like(nodes, dtype=float)

    register_kernel(_CountingSampler, kernel)
    try:
        batch = _CountingSampler(world.graph).sample_many(10, 3, rng=0)
        assert calls == [3]
        assert np.all(batch.nodes == 0)
        # Subclasses inherit through the MRO...
        _CountingSubclass(world.graph).sample_many(10, 2, rng=0)
        assert calls == [3, 2]
        # ...and can override with an explicit fallback.
        register_kernel(_CountingSubclass, None)
        sub = _CountingSubclass(world.graph)
        assert registered_kernel(sub) is None
        sub.sample_many(10, 2, rng=0)
        assert calls == [3, 2]  # fallback, kernel not invoked
    finally:
        batch_module._KERNELS.pop(_CountingSampler, None)
        batch_module._KERNELS.pop(_CountingSubclass, None)


def test_register_kernel_as_decorator(world):
    @register_kernel(_CountingSampler)
    def kernel(sampler, n, streams):
        nodes = np.full((len(streams), n), 7, dtype=np.int64)
        return nodes, np.ones_like(nodes, dtype=float)

    try:
        batch = _CountingSampler(world.graph).sample_many(5, 2, rng=0)
        assert np.all(batch.nodes == 7)
    finally:
        batch_module._KERNELS.pop(_CountingSampler, None)


def test_every_shipped_design_is_registered(world):
    # Kernel or declared fallback — no design may be merely *unheard of*.
    for name, (factory, _) in DESIGNS.items():
        assert is_registered(type(factory(world))), name


class _UnheardOfSampler(Sampler):
    @property
    def design(self):
        return "unheard-of"

    @property
    def uniform(self):
        return True

    def sample(self, n, rng=None):
        raise NotImplementedError


def test_is_registered_distinguishes_fallback_from_unknown(world):
    # UIS has an explicit None registration; a direct Sampler subclass
    # outside the registry does not, even though both resolve to the
    # sequential fallback in sample_many. Registered ancestors count:
    # _CountingSampler inherits UIS's declared fallback through the MRO.
    uis = UniformIndependenceSampler(world.graph)
    assert registered_kernel(uis) is None
    assert is_registered(uis.__class__)
    assert is_registered(_CountingSampler)
    assert not is_registered(_UnheardOfSampler)


def test_register_kernel_rejects_non_sampler():
    from repro.exceptions import SamplingError

    with pytest.raises(SamplingError):
        register_kernel(int, None)
    with pytest.raises(SamplingError):
        register_kernel(_CountingSampler, "not callable")
    assert _CountingSampler not in batch_module._KERNELS


def _scalar_vose_reference(indptr, weights, strengths=None):
    """The pre-vectorization per-run two-stack Vose construction.

    Kept as the semantic reference for the vectorized builder: pairing
    order may differ (stacks vs queues), but both must encode exactly
    the probabilities ``w_j / strength(v)``.
    """
    from repro.sampling.alias import AliasTables

    indptr = np.asarray(indptr, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    prob = np.ones(len(weights))
    alias = np.arange(len(weights), dtype=np.int64)
    for v in range(len(indptr) - 1):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        d = hi - lo
        if d <= 1:
            continue
        total = (
            float(strengths[v])
            if strengths is not None
            else float(weights[lo:hi].sum())
        )
        scaled = (weights[lo:hi] * (d / total)).tolist()
        small = [j for j in range(d) if scaled[j] < 1.0]
        large = [j for j in range(d) if scaled[j] >= 1.0]
        while small and large:
            s = small.pop()
            big = large.pop()
            prob[lo + s] = scaled[s]
            alias[lo + s] = lo + big
            scaled[big] -= 1.0 - scaled[s]
            (small if scaled[big] < 1.0 else large).append(big)
    return AliasTables(prob=prob, alias=alias)


class TestVectorizedAliasConstruction:
    """The NumPy Vose pass against the scalar reference and the axioms."""

    def _random_csr(self, rng, num_runs=120, max_degree=17):
        degrees = rng.integers(0, max_degree, size=num_runs)
        indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        weights = rng.random(int(indptr[-1])) * 9.5 + 0.5
        return indptr, weights

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_encodes_the_same_probabilities_as_the_scalar_pass(self, seed):
        from repro.sampling.alias import build_alias_tables

        rng = np.random.default_rng(seed)
        indptr, weights = self._random_csr(rng)
        vectorized = build_alias_tables(indptr, weights)
        reference = _scalar_vose_reference(indptr, weights)
        np.testing.assert_allclose(
            vectorized.reconstructed_probabilities(indptr),
            reference.reconstructed_probabilities(indptr),
            rtol=0,
            atol=1e-12,
        )

    def test_tables_are_structurally_valid(self):
        from repro.sampling.alias import build_alias_tables

        rng = np.random.default_rng(42)
        indptr, weights = self._random_csr(rng, num_runs=300)
        tables = build_alias_tables(indptr, weights)
        assert tables.prob.min() >= 0.0
        assert tables.prob.max() <= 1.0 + 1e-12
        degrees = np.diff(indptr)
        run_ids = np.repeat(np.arange(len(degrees)), degrees)
        # every alias points inside its own run (the gather never
        # crosses adjacency boundaries)
        assert np.all(tables.alias >= indptr[run_ids])
        assert np.all(tables.alias < indptr[run_ids + 1])
        # degree-0/1 runs keep the prob-1 self-alias default
        trivial = np.flatnonzero(degrees[run_ids] <= 1)
        assert np.all(tables.prob[trivial] == 1.0)
        assert np.all(tables.alias[trivial] == trivial)

    def test_uniform_weights_need_no_aliasing(self):
        from repro.sampling.alias import build_alias_tables

        graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        weights = np.ones(len(graph.indices))
        tables = build_alias_tables(graph.indptr, weights)
        np.testing.assert_array_equal(tables.prob, np.ones(len(weights)))

    def test_explicit_strengths_match_recomputed_totals(self, world):
        from repro.sampling.alias import build_alias_tables

        run_ids = np.repeat(
            np.arange(world.graph.num_nodes), world.graph.degrees()
        )
        strengths = np.bincount(
            run_ids, weights=world.arc_weights, minlength=world.graph.num_nodes
        )
        with_strengths = build_alias_tables(
            world.graph.indptr, world.arc_weights, strengths
        )
        exact = world.arc_weights / strengths[run_ids]
        np.testing.assert_allclose(
            with_strengths.reconstructed_probabilities(world.graph.indptr),
            exact,
            rtol=0,
            atol=1e-12,
        )
