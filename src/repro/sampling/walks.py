"""Crawling designs (Section 3.1.2): RW, MHRW, WRW, RW-with-jumps.

All walk samplers share the conventions:

* the walk starts at ``start`` (or a uniform random node);
* ``burn_in`` initial steps are discarded (0 by default — the paper's
  experiments use full walks and rely on the asymptotics of Section 5.4);
* every visited node after burn-in is a draw (thin afterwards with
  :meth:`NodeSample.thin` if desired);
* per-draw weights are the design's stationary weights, enabling the
  Hansen-Hurwitz corrected estimators of Section 5.

Replicated experiments should prefer :meth:`Sampler.sample_many`
(:mod:`repro.sampling.batch`): it advances all replicate walkers as one
vectorized frontier and is bit-for-bit equivalent to calling
:meth:`sample` once per spawned replicate stream — the sequential
kernels below are the reference semantics of that contract.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.adjacency import Graph
from repro.graph.planes import derived_arc_sources
from repro.rng import ensure_rng
from repro.sampling.base import NodeSample, Sampler

__all__ = [
    "RandomWalkSampler",
    "MetropolisHastingsSampler",
    "WeightedRandomWalkSampler",
    "RandomWalkWithJumpsSampler",
]


def _segmented_cumsum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-run inclusive cumulative sums of a CSR-aligned array.

    Each adjacency run ``values[indptr[v]:indptr[v+1]]`` is scanned
    independently (Hillis-Steele doubling: O(total * log max_degree),
    fully vectorized). Summing locally instead of over one global
    ``np.cumsum`` keeps next-hop selection exact: a global running sum
    over all arcs loses the low bits of small weights that sit behind a
    large accumulated prefix, which can mis-select neighbors on large
    or weight-skewed graphs.
    """
    out = np.asarray(values, dtype=float).copy()
    if len(out) == 0:
        return out
    lengths = np.diff(indptr)
    position = np.arange(len(out), dtype=np.int64) - np.repeat(
        indptr[:-1], lengths
    )
    max_length = int(lengths.max())
    shift = 1
    while shift < max_length:
        idx = np.flatnonzero(position >= shift)
        out[idx] += out[idx - shift]
        shift <<= 1
    # The doubling scan groups terms differently at each position, so a
    # weight far below its run's total (ratios near 1e-16) can round a
    # prefix below the one before it. A per-run running max (the same
    # doubling scan, exact under max) restores sorted runs, which the
    # inverse-CDF searches rely on; monotone runs come out unchanged.
    if np.any((out[1:] < out[:-1]) & (position[1:] > 0)):
        shift = 1
        while shift < max_length:
            idx = np.flatnonzero(position >= shift)
            out[idx] = np.maximum(out[idx], out[idx - shift])
            shift <<= 1
    return out


#: Node ids at or past this bound are not exact as float64, so they
#: cannot serve as the real part of the search key.
_KEY_EXACT_NODES = 2**53


def _arc_search_key(arc_sources: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """Lexicographic ``(source node, local cumulative)`` key per arc.

    A ``complex128`` array with ``key.real = arc_sources`` and
    ``key.imag = cumulative``. NumPy orders complex values
    lexicographically, so the key is sorted (sources ascend, and each
    run's cumulative does not decrease) and one ``np.searchsorted`` of
    ``v + 1j*t`` with ``side="right"`` lands on the first arc of ``v``'s
    run whose local cumulative exceeds ``t`` — or on the run's end when
    none does. That is the per-run inverse-CDF lookup for a whole
    frontier in one call, comparing the very float64 values of
    :func:`_segmented_cumsum`.
    """
    key = np.empty(len(cumulative), dtype=np.complex128)
    key.real = arc_sources
    key.imag = cumulative
    return key


def _search_key(graph: Graph, cumulative: np.ndarray) -> np.ndarray:
    """The weighted walk's search key over ``graph``'s arcs."""
    if graph.num_nodes >= _KEY_EXACT_NODES:
        raise SamplingError(
            f"next_hop='search' needs fewer than 2**53 nodes, got {graph.num_nodes}"
        )
    # derived_arc_sources rather than graph.arc_sources: the sources are
    # a temporary instead of an array pinned on the graph.
    return _arc_search_key(derived_arc_sources(graph.indptr), cumulative)


class _WalkSampler(Sampler):
    """Shared start/burn-in plumbing for walk designs."""

    def __init__(self, graph: Graph, start: int | None = None, burn_in: int = 0):
        super().__init__(graph)
        if burn_in < 0:
            raise SamplingError(f"burn_in must be non-negative, got {burn_in}")
        if start is not None and not 0 <= start < graph.num_nodes:
            raise SamplingError(
                f"start node {start} outside [0, {graph.num_nodes})"
            )
        if graph.num_edges == 0:
            raise SamplingError("walk samplers require at least one edge")
        self._start = start
        self._burn_in = burn_in

    def _initial_node(self, gen: np.random.Generator) -> int:
        if self._start is not None:
            return self._start
        # Start from a random non-isolated node so the walk can move.
        degrees = self._graph.degrees()
        candidates = np.flatnonzero(degrees > 0)
        return int(candidates[gen.integers(0, len(candidates))])

    @property
    def uniform(self) -> bool:
        return False


class RandomWalkSampler(_WalkSampler):
    """Simple random walk: next hop uniform among the current neighbors.

    On a connected non-bipartite graph the stationary distribution is
    ``pi(v) ~ deg(v)`` [Lovasz 1993], so draws carry weight ``deg(v)``.
    """

    @property
    def design(self) -> str:
        return "rw"

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> NodeSample:
        self._check_size(n)
        gen = ensure_rng(rng)
        indptr, indices = self._graph.indptr, self._graph.indices
        total = n + self._burn_in
        out = np.empty(total, dtype=np.int64)
        current = self._initial_node(gen)
        # Pre-draw uniform variates in blocks for speed.
        randoms = gen.random(total)
        for i in range(total):
            lo, hi = indptr[current], indptr[current + 1]
            if hi == lo:
                raise SamplingError(
                    f"random walk reached isolated node {current}"
                )
            current = int(indices[lo + int(randoms[i] * (hi - lo))])
            out[i] = current
        nodes = out[self._burn_in :]
        weights = self._graph.degrees()[nodes].astype(float)
        return NodeSample(nodes, weights, design=self.design, uniform=False)


class MetropolisHastingsSampler(_WalkSampler):
    """MHRW targeting the uniform distribution.

    Proposes a uniform neighbor ``v`` of the current node ``u`` and
    accepts with probability ``min(1, deg(u) / deg(v))``; on rejection
    the walk stays (and ``u`` is drawn again). Asymptotically uniform, so
    weights are 1 — but the rejections make it less sample-efficient
    than RW + reweighting, which is exactly what the paper (and [20, 51])
    observe.
    """

    @property
    def design(self) -> str:
        return "mhrw"

    @property
    def uniform(self) -> bool:
        return True

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> NodeSample:
        self._check_size(n)
        gen = ensure_rng(rng)
        indptr, indices = self._graph.indptr, self._graph.indices
        degrees = self._graph.degrees()
        total = n + self._burn_in
        out = np.empty(total, dtype=np.int64)
        current = self._initial_node(gen)
        proposal_randoms = gen.random(total)
        accept_randoms = gen.random(total)
        for i in range(total):
            lo, hi = indptr[current], indptr[current + 1]
            if hi == lo:
                raise SamplingError(f"MHRW reached isolated node {current}")
            proposal = int(indices[lo + int(proposal_randoms[i] * (hi - lo))])
            if accept_randoms[i] * degrees[proposal] <= degrees[current]:
                current = proposal
            out[i] = current
        nodes = out[self._burn_in :]
        return NodeSample(nodes, np.ones(n), design=self.design, uniform=True)


class WeightedRandomWalkSampler(_WalkSampler):
    """Random walk on a weighted graph [Aldous & Fill].

    Edge weights are supplied as an array aligned with the graph's CSR
    ``indices`` (one weight per directed arc; the two arcs of an edge
    must carry equal weight). The stationary probability of node ``v``
    is proportional to its *strength* (sum of incident edge weights),
    which becomes the draw weight.

    ``next_hop`` selects the next-hop engine: ``"search"`` (default)
    does an inverse-CDF lookup over the per-run local cumulative sums,
    which the batched kernel answers for the whole frontier with one
    ``np.searchsorted`` over a lexicographic ``(source, cumulative)``
    arc key (:func:`_arc_search_key`); ``"alias"`` answers the same
    categorical draw in O(1) via per-run Walker alias tables
    (:mod:`repro.sampling.alias`).
    Both consume one uniform variate per step, but map it to neighbors
    differently, so the two engines are *statistically* (not bitwise)
    equivalent — see the alias module's equivalence contract.
    """

    def __init__(
        self,
        graph: Graph,
        arc_weights: np.ndarray,
        start: int | None = None,
        burn_in: int = 0,
        next_hop: str = "search",
    ):
        super().__init__(graph, start=start, burn_in=burn_in)
        if next_hop not in ("search", "alias"):
            raise SamplingError(
                f"unknown next_hop {next_hop!r}; use 'search' or 'alias'"
            )
        arc_weights = np.asarray(arc_weights, dtype=float)
        if arc_weights.shape != graph.indices.shape:
            raise SamplingError(
                "arc_weights must align with graph.indices "
                f"(shape {graph.indices.shape}, got {arc_weights.shape})"
            )
        if not np.all(arc_weights > 0):
            raise SamplingError("arc weights must be strictly positive")
        self._arc_weights = arc_weights
        # Per-run *local* cumulative weights for inverse-CDF next-hop
        # sampling. Local (not global) sums keep the inverse-CDF lookup
        # exact on graphs whose total arc weight dwarfs individual run
        # weights; see _segmented_cumsum.
        self._local_cumulative = _segmented_cumsum(arc_weights, graph.indptr)
        degrees = graph.degrees()
        if len(arc_weights):
            run_ends = np.maximum(graph.indptr[1:] - 1, 0)
            self._strength = np.where(
                degrees > 0, self._local_cumulative[run_ends], 0.0
            )
        else:
            self._strength = np.zeros(graph.num_nodes)
        self._next_hop = next_hop
        self._search_key = None
        self._alias_tables = None
        if next_hop == "search":
            self._search_key = _search_key(graph, self._local_cumulative)
        else:
            from repro.sampling.alias import build_alias_tables

            # Normalize by the same per-run strengths the inverse-CDF
            # search uses, so both engines encode identical
            # probabilities.
            self._alias_tables = build_alias_tables(
                graph.indptr, arc_weights, self._strength
            )

    @property
    def design(self) -> str:
        return "wrw"

    @property
    def next_hop(self) -> str:
        """Active next-hop engine (``"search"`` or ``"alias"``)."""
        return self._next_hop

    @property
    def strengths(self) -> np.ndarray:
        """Stationary weights (node strengths) of the weighted walk."""
        return self._strength

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> NodeSample:
        self._check_size(n)
        gen = ensure_rng(rng)
        indptr, indices = self._graph.indptr, self._graph.indices
        cumulative = self._local_cumulative
        total = n + self._burn_in
        out = np.empty(total, dtype=np.int64)
        current = self._initial_node(gen)
        randoms = gen.random(total)
        use_alias = self._next_hop == "alias"
        if use_alias:
            prob = self._alias_tables.prob
            alias = self._alias_tables.alias
        for i in range(total):
            lo, hi = indptr[current], indptr[current + 1]
            if hi == lo:
                raise SamplingError(f"weighted walk reached isolated node {current}")
            if use_alias:
                u = randoms[i] * (hi - lo)
                j = int(u)
                arc = lo + j
                if u - j < prob[arc]:
                    current = int(indices[arc])
                else:
                    current = int(indices[alias[arc]])
            else:
                target = randoms[i] * self._strength[current]
                pos = int(np.searchsorted(cumulative[lo:hi], target, side="right"))
                pos = min(pos, hi - lo - 1)
                current = int(indices[lo + pos])
            out[i] = current
        nodes = out[self._burn_in :]
        return NodeSample(
            nodes, self._strength[nodes], design=self.design, uniform=False
        )


class RandomWalkWithJumpsSampler(_WalkSampler):
    """RW with uniform restarts [Avrachenkov et al. 2010].

    From node ``u``: with probability ``alpha / (deg(u) + alpha)`` jump
    to a uniform random node, otherwise take a RW step. Stationary
    distribution ``pi(v) ~ deg(v) + alpha``; requires a sampling frame
    for the jumps (usable when UIS is available but expensive).
    """

    def __init__(
        self,
        graph: Graph,
        alpha: float = 10.0,
        start: int | None = None,
        burn_in: int = 0,
    ):
        super().__init__(graph, start=start, burn_in=burn_in)
        if alpha <= 0:
            raise SamplingError(f"alpha must be positive, got {alpha}")
        self._alpha = float(alpha)

    @property
    def design(self) -> str:
        return "rwj"

    @property
    def alpha(self) -> float:
        """Jump weight (pseudo-degree added to every node)."""
        return self._alpha

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> NodeSample:
        self._check_size(n)
        gen = ensure_rng(rng)
        indptr, indices = self._graph.indptr, self._graph.indices
        num_nodes = self._graph.num_nodes
        alpha = self._alpha
        total = n + self._burn_in
        out = np.empty(total, dtype=np.int64)
        current = self._initial_node(gen)
        jump_randoms = gen.random(total)
        step_randoms = gen.random(total)
        for i in range(total):
            lo, hi = indptr[current], indptr[current + 1]
            degree = hi - lo
            if jump_randoms[i] * (degree + alpha) < alpha:
                current = int(step_randoms[i] * num_nodes)
            else:
                current = int(indices[lo + int(step_randoms[i] * degree)])
            out[i] = current
        nodes = out[self._burn_in :]
        weights = self._graph.degrees()[nodes].astype(float) + alpha
        return NodeSample(nodes, weights, design=self.design, uniform=False)
