"""Traversal baseline: BFS (snowball) sampling.

BFS is a *biased* design without tractable inclusion probabilities (see
the paper's Section 8 discussion of [4, 38, 43, 44]); it is included as
a baseline to demonstrate why principled probability samples matter.
Its ``NodeSample.weights`` are all ones and ``uniform`` is **False**
with ``design`` flagging the bias — the estimators will happily run and
visibly mis-estimate, which is exactly the point of the ablation bench.

The design also registers a *batched frontier kernel* with
:mod:`repro.sampling.batch`: all R replicate traversals advance as one
set-semantics step — per-replicate visited bitmaps, one CSR
neighborhood gather
(:meth:`repro.graph.adjacency.Graph.gather_neighborhoods`) plus one
dedup/mask pass per expansion round, and per-replicate restart draws
replayed in the sequential sampler's exact RNG order. Replicate ``r``
of the batched output is therefore **bit-identical** to
``sampler.sample(n, rng=streams[r])`` — the per-replicate Python loop
below is kept as the reference twin that
``tests/sampling/test_equivalence.py`` holds the kernel to.
"""

from __future__ import annotations

import collections

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.adjacency import Graph
from repro.rng import ensure_rng
from repro.sampling.base import NodeSample, Sampler
from repro.sampling.batch import register_kernel

__all__ = ["BreadthFirstSampler"]


class BreadthFirstSampler(Sampler):
    """BFS / snowball sampling from a (random) seed.

    Visits nodes in breadth-first order until ``n`` nodes are collected;
    if the seed's component is exhausted first, a fresh random unvisited
    seed is picked (multi-seed snowball). Each node appears at most once
    — BFS is without replacement, unlike the probability designs.
    """

    def __init__(self, graph: Graph, seed_node: int | None = None):
        super().__init__(graph)
        if seed_node is not None and not 0 <= seed_node < graph.num_nodes:
            raise SamplingError(
                f"seed node {seed_node} outside [0, {graph.num_nodes})"
            )
        self._seed_node = seed_node

    @property
    def design(self) -> str:
        return "bfs"

    @property
    def uniform(self) -> bool:
        return False

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> NodeSample:
        self._check_size(n)
        if n > self._graph.num_nodes:
            raise SamplingError(
                f"BFS cannot collect {n} distinct nodes from a graph of "
                f"{self._graph.num_nodes}"
            )
        gen = ensure_rng(rng)
        indptr, indices = self._graph.indptr, self._graph.indices
        visited = np.zeros(self._graph.num_nodes, dtype=bool)
        order: list[int] = []
        queue: collections.deque[int] = collections.deque()
        seed = (
            self._seed_node
            if self._seed_node is not None
            else int(gen.integers(0, self._graph.num_nodes))
        )
        queue.append(seed)
        visited[seed] = True
        while len(order) < n:
            if not queue:
                remaining = np.flatnonzero(~visited)
                fresh = int(remaining[gen.integers(0, len(remaining))])
                visited[fresh] = True
                queue.append(fresh)
            v = queue.popleft()
            order.append(v)
            for u in indices[indptr[v] : indptr[v + 1]]:
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
        nodes = np.asarray(order[:n], dtype=np.int64)
        return NodeSample(nodes, np.ones(n), design=self.design, uniform=False)


# ----------------------------------------------------------------------
# Batched frontier kernels
# ----------------------------------------------------------------------
# BFS is a without-replacement frontier process: the visited set
# couples every step to the whole history, so unlike the walk kernels
# it cannot pre-draw variates. What *does* vectorize is the frontier
# expansion itself — the per-neighbor Python loop above becomes one
# concatenated CSR gather plus one dedup/mask pass per round, shared by
# all R replicates. RNG draws (seeds, restarts) stay per-stream scalar
# calls replayed in the sequential order, which is what keeps each
# replicate bit-identical to its reference twin.


def _telemetry():
    # Imported lazily: repro.runtime imports the sampling engine, so a
    # module-level import here would be circular. Resolution is a
    # sys.modules hit after the first call; when no ambient recorder is
    # active every span/counter below is a no-op.
    from repro.runtime import telemetry

    return telemetry


def _restart_draw(
    stream: np.random.Generator, visited_row: np.ndarray
) -> int:
    """Fresh unvisited node, via the sequential twin's exact call pair."""
    remaining = np.flatnonzero(~visited_row)
    return int(remaining[stream.integers(0, len(remaining))])


@register_kernel(BreadthFirstSampler)
def _bfs_kernel(sampler, n, streams):
    """Level-synchronous batched BFS over all R replicates.

    Per round: emit each active replicate's current level (its FIFO pop
    order), restart exhausted replicates with the twin's restart draw,
    then expand every frontier in one concatenated neighborhood gather.
    Within-round dedup keeps the *first* occurrence of each (replicate,
    node) pair in concatenation order — exactly the order the sequential
    twin marks neighbors visited while popping the level one node at a
    time — so levels, restarts, and truncation all match bit for bit.
    """
    graph = sampler._graph
    num_nodes = graph.num_nodes
    if n > num_nodes:
        raise SamplingError(
            f"BFS cannot collect {n} distinct nodes from a graph of "
            f"{num_nodes}"
        )
    replications = len(streams)
    tele = _telemetry()
    rounds = restarts = gathered = 0
    with tele.span("kernel.bfs", "kernel", replicates=replications, draws=n):
        visited = np.zeros((replications, num_nodes), dtype=np.bool_)
        flat = visited.reshape(-1)
        out = np.empty((replications, n), dtype=np.int64)
        counts = np.zeros(replications, dtype=np.int64)
        frontiers: list[np.ndarray] = []
        with tele.span("kernel.bfs.seed", "kernel"):
            for r, stream in enumerate(streams):
                seed = (
                    sampler._seed_node
                    if sampler._seed_node is not None
                    else int(stream.integers(0, num_nodes))
                )
                visited[r, seed] = True
                frontiers.append(np.array([seed], dtype=np.int64))
        active = list(range(replications))
        with tele.span("kernel.bfs.expand", "kernel"):
            while active:
                rounds += 1
                expand = []
                for r in active:
                    level = frontiers[r]
                    if level.size == 0:
                        restarts += 1
                        fresh = _restart_draw(streams[r], visited[r])
                        visited[r, fresh] = True
                        level = np.array([fresh], dtype=np.int64)
                    space = n - counts[r]
                    take = level[:space] if level.size > space else level
                    out[r, counts[r] : counts[r] + take.size] = take
                    counts[r] += take.size
                    if counts[r] < n:
                        frontiers[r] = level
                        expand.append(r)
                if not expand:
                    break
                owner_ids = np.asarray(expand, dtype=np.int64)
                level_cat = np.concatenate([frontiers[r] for r in expand])
                sizes = np.array(
                    [frontiers[r].size for r in expand], dtype=np.int64
                )
                nbrs, lengths = graph.gather_neighborhoods(level_cat)
                gathered += nbrs.size
                owners = np.repeat(np.repeat(owner_ids, sizes), lengths)
                keys = owners * num_nodes + nbrs
                keys = keys[~flat[keys]]
                if keys.size:
                    # First occurrence per key, back in gather order ==
                    # the sequential enqueue/mark order of the level.
                    _, first = np.unique(keys, return_index=True)
                    first.sort()
                    keys = keys[first]
                    flat[keys] = True
                owners_new = keys // num_nodes
                nodes_new = keys - owners_new * num_nodes
                lo = np.searchsorted(owners_new, owner_ids, side="left")
                hi = np.searchsorted(owners_new, owner_ids, side="right")
                for i, r in enumerate(expand):
                    frontiers[r] = nodes_new[lo[i] : hi[i]]
                active = expand
    tele.counter("traversal.bfs.rounds", rounds)
    tele.counter("traversal.bfs.restarts", restarts)
    tele.counter("traversal.bfs.gathered_arcs", gathered)
    return out, np.ones((replications, n))
