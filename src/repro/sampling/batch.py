"""Batched multi-walker sampling engine.

Running the R replicate crawls of an NRMSE sweep one at a time costs
O(R x steps) Python-level loop iterations — the dominant wall-clock of
the replicated experiments (Figs. 3, 4, 6). This module advances all R
walkers *simultaneously* as one vectorized frontier, the multidimensional
random-walk idea of Ribeiro & Towsley (IMC 2010): per step, one
``indptr``/``indices`` gather over the whole frontier, one column of
pre-drawn variates, and one acceptance/jump mask, for ~R-wide NumPy ops
instead of R Python iterations.

Equivalence contract
--------------------
``sample_many(sampler, n, R, rng)`` spawns the *same* per-replicate RNG
streams as the sequential harness (``spawn_rngs(rng, R)``) and consumes
each stream in the same order the sequential sampler would (start draw,
then the pre-drawn variate blocks). Every float comparison, truncation,
and cumulative-sum lookup mirrors the sequential kernels exactly, so the
batched trajectory of replicate ``r`` is **bit-for-bit identical** to
``sampler.sample(n, rng=streams[r])``.
``tests/sampling/test_equivalence.py`` enforces this for *every*
exported design — including the alias-table weighted walks and the BFS
traversal baseline — and ``tests/sampling/test_batch.py`` digs
into the walk kernels specifically.

The kernel registry
-------------------
Which designs batch, and how, is an open registry rather than a
hardcoded table. A *kernel* is a callable

    ``kernel(sampler, n, streams) -> (nodes, weights)``

returning two ``(R, n)`` arrays (replicate r's draws in row r), where
``streams`` is the list of R spawned generators whose consumption
pattern the kernel must mirror. Register one for your sampler class
with :func:`register_kernel`::

    from repro.sampling.batch import register_kernel

    @register_kernel(MyWalkSampler)
    def _my_kernel(sampler, n, streams):
        ...
        return nodes, weights

Resolution follows the method-resolution order of the sampler's class,
so subclasses inherit their parent's kernel automatically (S-WRW rides
the WRW kernel this way) and can override it with their own
registration. Registering ``None`` declares an *explicit* sequential
fallback — the design is stated to have no batched kernel (today only
the independence designs, whose per-draw cost is a single array op
already) and ``sample_many`` runs the per-stream loop without probing
further. The without-replacement BFS baseline registers a
set-semantics frontier kernel in :mod:`repro.sampling.traversal`.
Unregistered designs fall back the same way, so callers can treat every
design uniformly; :func:`registered_kernel` reports the kernel in use
and :func:`is_registered` distinguishes a declared fallback from a
design the registry has never heard of.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SamplingError
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling.base import NodeSample, Sampler
from repro.sampling.walks import (
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    WeightedRandomWalkSampler,
)

__all__ = [
    "BatchNodeSample",
    "sample_many",
    "sample_streams",
    "register_kernel",
    "registered_kernel",
    "is_registered",
]

#: Steps of pre-drawn variates held in memory per (block, replicate) at
#: any time. Peak variate memory is O(blocks x window x R) instead of
#: the O(blocks x n x R) cube the engine used to pre-draw — the window
#: is what keeps paper-scale walks (n ~ 1e5) memory-bounded. Override
#: with the ``REPRO_VARIATE_WINDOW`` environment variable.
DEFAULT_VARIATE_WINDOW = 4096


@dataclass(frozen=True)
class BatchNodeSample:
    """R replicate samples stored as two ``(R, n)`` matrices.

    Per-replicate :class:`NodeSample` objects are *views* into the
    matrices (no copies): each row is C-contiguous, so
    :meth:`replicate` costs O(1) memory regardless of walk length.

    Attributes
    ----------
    nodes:
        Node ids, shape ``(R, n)``, row ``r`` = draws of replicate ``r``.
    weights:
        Per-draw sampling weights, same shape.
    design / uniform:
        As on :class:`NodeSample`, shared by all replicates.
    """

    nodes: np.ndarray
    weights: np.ndarray
    design: str = "unknown"
    uniform: bool = False

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.ndim != 2 or weights.ndim != 2:
            raise SamplingError("batch nodes and weights must be 2-D (R, n)")
        if nodes.shape != weights.shape:
            raise SamplingError(
                f"nodes shape {nodes.shape} != weights shape {weights.shape}"
            )
        if nodes.shape[0] == 0 or nodes.shape[1] == 0:
            raise SamplingError("batch must hold at least one replicate and draw")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def num_replicates(self) -> int:
        """Number of replicate walks ``R``."""
        return self.nodes.shape[0]

    @property
    def draws_per_replicate(self) -> int:
        """Draws per replicate ``n``."""
        return self.nodes.shape[1]

    def replicate(self, r: int) -> NodeSample:
        """Replicate ``r`` as a :class:`NodeSample` view (no copy)."""
        if not 0 <= r < self.num_replicates:
            raise SamplingError(
                f"replicate {r} outside [0, {self.num_replicates})"
            )
        return NodeSample(
            self.nodes[r],
            self.weights[r],
            design=self.design,
            uniform=self.uniform,
        )

    def replicates(self) -> list[NodeSample]:
        """All replicates as :class:`NodeSample` views."""
        return [self.replicate(r) for r in range(self.num_replicates)]

    def __len__(self) -> int:
        return self.num_replicates

    def __iter__(self):
        for r in range(self.num_replicates):
            yield self.replicate(r)

    def __repr__(self) -> str:
        return (
            f"BatchNodeSample(replicates={self.num_replicates}, "
            f"draws={self.draws_per_replicate}, design={self.design!r})"
        )


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
_UNSET = object()

#: sampler class -> kernel callable, or None for an explicit fallback.
_KERNELS: dict[type, object] = {}


def register_kernel(sampler_type: type, kernel: object = _UNSET):
    """Register a batched frontier kernel for a :class:`Sampler` class.

    ``kernel(sampler, n, streams)`` must return ``(nodes, weights)`` as
    ``(R, n)`` arrays whose row ``r`` is bit-for-bit what
    ``sampler.sample(n, rng=streams[r])`` would produce. Pass ``None``
    to declare an explicit sequential fallback. With the kernel
    argument omitted, acts as a decorator::

        @register_kernel(MySampler)
        def _my_kernel(sampler, n, streams): ...

    Resolution is MRO-based (most-derived registration wins), so
    subclasses inherit kernels and may re-register to override.
    """
    if not (isinstance(sampler_type, type) and issubclass(sampler_type, Sampler)):
        raise SamplingError(
            f"register_kernel needs a Sampler subclass, got {sampler_type!r}"
        )
    if kernel is _UNSET:
        def decorator(fn):
            _KERNELS[sampler_type] = fn
            return fn

        return decorator
    if kernel is not None and not callable(kernel):
        raise SamplingError("kernel must be callable or None")
    _KERNELS[sampler_type] = kernel
    return kernel


def registered_kernel(sampler: Sampler):
    """The kernel ``sample_many`` will use for ``sampler``.

    Walks the sampler's MRO and returns the first registration found —
    a kernel callable, or ``None`` when the design runs the sequential
    per-stream fallback. ``None`` covers both an explicit fallback
    registration and a design nobody registered; use
    :func:`is_registered` to tell the two apart.
    """
    for cls in type(sampler).__mro__:
        if cls in _KERNELS:
            return _KERNELS[cls]
    return None


def is_registered(sampler_type: type) -> bool:
    """Whether ``sampler_type`` (or an ancestor) made a registration.

    True for designs with a batch kernel *and* for designs that
    explicitly declared the sequential fallback (``register_kernel(cls,
    None)``); False only for designs the registry has never heard of —
    i.e. ports that were never considered, as opposed to decided
    against.
    """
    if not isinstance(sampler_type, type):
        sampler_type = type(sampler_type)
    return any(cls in _KERNELS for cls in sampler_type.__mro__)


def sample_many(
    sampler: Sampler,
    n: int,
    replications: int,
    rng: np.random.Generator | int | None = None,
) -> BatchNodeSample:
    """Draw ``replications`` independent samples of size ``n`` at once.

    Designs with a registered kernel (RW, MHRW, WRW/S-WRW with either
    next-hop engine, RWJ, and the BFS traversal baseline) advance as one
    vectorized frontier; every other design falls back to a sequential
    per-stream loop. Either way replicate ``r`` equals
    ``sampler.sample(n, rng=spawn_rngs(rng, R)[r])`` bit for bit.
    """
    if replications < 1:
        raise SamplingError(
            f"replications must be positive, got {replications}"
        )
    gen = ensure_rng(rng)
    streams = spawn_rngs(gen, replications)
    return sample_streams(sampler, n, streams)


def sample_streams(
    sampler: Sampler,
    n: int,
    streams: list[np.random.Generator],
) -> BatchNodeSample:
    """Draw one replicate per *explicit* RNG stream.

    The shard entry point of the parallel sweep executor
    (:mod:`repro.runtime`): a worker that owns replicates ``i..j`` of a
    sweep passes the generators reconstructed from ``seeds[i..j]`` and
    gets exactly the rows ``sample_many`` would have produced for those
    replicates — stream identity, not shard assignment, determines the
    trajectory. Designs without a kernel run the per-replicate sampler
    on each stream.
    """
    if not streams:
        raise SamplingError("need at least one replicate stream")
    sampler._check_size(n)
    kernel = registered_kernel(sampler)
    if kernel is not None:
        nodes, weights = kernel(sampler, n, streams)
        return BatchNodeSample(
            nodes, weights, design=sampler.design, uniform=sampler.uniform
        )
    return _stack_sequential(sampler, n, streams)


def _stack_sequential(
    sampler: Sampler, n: int, streams: list[np.random.Generator]
) -> BatchNodeSample:
    """Fallback: per-stream sequential sampling, stacked into a batch."""
    samples = [sampler.sample(n, rng=stream) for stream in streams]
    return BatchNodeSample(
        np.stack([s.nodes for s in samples]),
        np.stack([s.weights for s in samples]),
        design=samples[0].design,
        uniform=samples[0].uniform,
    )


# ----------------------------------------------------------------------
# Shared frontier plumbing
# ----------------------------------------------------------------------
def _active_window(total: int, window: int | None = None) -> int:
    """Resolve the variate window size (clamped to ``[1, total]``)."""
    if window is None:
        env = os.environ.get("REPRO_VARIATE_WINDOW", "").strip()
        if env:
            try:
                window = int(env)
            except ValueError:
                raise SamplingError(
                    f"REPRO_VARIATE_WINDOW must be an integer, got {env!r}"
                ) from None
        else:
            window = DEFAULT_VARIATE_WINDOW
    if window < 1:
        raise SamplingError(f"variate window must be >= 1, got {window}")
    return min(window, total)


class _FrontierVariates:
    """Chunked step-window view of the kernels' pre-drawn variate cube.

    The sequential samplers consume each replicate stream block-major:
    the start draw, then ``blocks`` consecutive ``random(total)`` calls.
    Pre-drawing that whole cube costs O(blocks x total x R) peak memory
    — the reason paper-scale sweeps used to blow up. This object holds
    only a ``(blocks, window, R)`` buffer and refills it as the frontier
    advances, replaying each stream through one *cursor generator per
    block*: cursor ``b`` of stream ``r`` is a copy of the post-start
    stream state advanced past the ``b * total`` doubles the earlier
    blocks own, so its windowed ``random`` calls yield exactly the
    slice ``stream.random(total)`` (block ``b``) would have — chunked
    ``Generator.random`` produces the identical value stream, which is
    what preserves the engine's bit-equality contract.
    """

    __slots__ = ("_cursors", "_buf", "_total", "_lo", "_hi")

    def __init__(
        self,
        streams: list[np.random.Generator],
        blocks: int,
        total: int,
        window: int | None = None,
    ):
        window = _active_window(total, window)
        self._total = total
        self._buf = np.empty((blocks, window, len(streams)))
        self._lo = self._hi = 0
        self._cursors: list[list[np.random.Generator]] = []
        scratch = np.empty(window)
        for stream in streams:
            per_block = [stream]
            for b in range(1, blocks):
                cursor = copy.deepcopy(stream)
                # Skip the doubles owned by blocks 0..b-1 by replaying
                # them in windowed chunks (never materializing them).
                skip = b * total
                while skip:
                    step = min(skip, window)
                    cursor.random(out=scratch[:step])
                    skip -= step
                per_block.append(cursor)
            self._cursors.append(per_block)

    def step(self, i: int) -> np.ndarray:
        """Variate rows for step ``i``: a ``(blocks, R)`` view."""
        if i >= self._hi:
            self._fill(i)
        return self._buf[:, i - self._lo, :]

    def _fill(self, start: int) -> None:
        width = min(self._buf.shape[1], self._total - start)
        for r, per_block in enumerate(self._cursors):
            for b, cursor in enumerate(per_block):
                self._buf[b, :width, r] = cursor.random(width)
        self._lo = start
        self._hi = start + width


def _frontier_setup(
    sampler: Sampler,
    streams: list[np.random.Generator],
    blocks: int,
    total: int,
) -> tuple[np.ndarray, _FrontierVariates]:
    """Starts and windowed variates, consuming each stream sequentially.

    Returns ``(starts, variates)``; ``variates.step(i)`` yields the
    ``(blocks, R)`` variate rows of step ``i``, drawn lazily in
    step-windows (see :class:`_FrontierVariates`) so peak variate
    memory is O(blocks x window x R), not O(blocks x total x R). Per
    stream the consumption order is unchanged from the sequential
    samplers: the start draw first, then ``blocks`` consecutive
    ``random(total)`` blocks. A random start is a uniform draw among
    the positive-degree nodes of the sampler's graph.
    """
    replications = len(streams)
    starts = np.empty(replications, dtype=np.int64)
    if sampler._start is None:
        candidates = np.flatnonzero(sampler._graph.degrees() > 0)
    for r, stream in enumerate(streams):
        if sampler._start is not None:
            starts[r] = sampler._start
        else:
            starts[r] = candidates[stream.integers(0, len(candidates))]
    return starts, _FrontierVariates(streams, blocks, total)


def _isolated_mask(degrees: np.ndarray) -> np.ndarray | None:
    """Boolean isolated-node mask, or ``None`` when no node is isolated.

    Precomputed once per kernel run so the per-step dead-walker check is
    a single boolean gather (and, on the common all-connected graphs,
    skipped entirely) instead of a per-step degree gather.
    """
    mask = degrees == 0
    return mask if bool(mask.any()) else None


def _check_frontier(isolated: np.ndarray, cur: np.ndarray, design: str) -> None:
    hit = isolated[cur]
    if np.any(hit):
        node = int(cur[int(np.argmax(hit))])
        raise SamplingError(f"{design} reached isolated node {node}")


# ----------------------------------------------------------------------
# Per-design kernels
# ----------------------------------------------------------------------
def _rw_kernel(sampler, n, streams):
    graph = sampler._graph
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    total = n + sampler._burn_in
    cur, variates = _frontier_setup(sampler, streams, 1, total)
    isolated = _isolated_mask(degrees)
    out = np.empty((total, len(streams)), dtype=np.int64)
    for i in range(total):
        if isolated is not None:
            _check_frontier(isolated, cur, "random walk")
        step_rand = variates.step(i)[0]
        cur = indices[indptr[cur] + (step_rand * degrees[cur]).astype(np.int64)]
        out[i] = cur
    nodes = np.ascontiguousarray(out[sampler._burn_in :].T)
    return nodes, degrees[nodes].astype(float)


def _mhrw_kernel(sampler, n, streams):
    graph = sampler._graph
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    total = n + sampler._burn_in
    cur, variates = _frontier_setup(sampler, streams, 2, total)
    isolated = _isolated_mask(degrees)
    out = np.empty((total, len(streams)), dtype=np.int64)
    for i in range(total):
        if isolated is not None:
            _check_frontier(isolated, cur, "MHRW")
        proposal_rand, accept_rand = variates.step(i)
        deg = degrees[cur]
        proposal = indices[
            indptr[cur] + (proposal_rand * deg).astype(np.int64)
        ]
        accept = accept_rand * degrees[proposal] <= deg
        cur = np.where(accept, proposal, cur)
        out[i] = cur
    nodes = np.ascontiguousarray(out[sampler._burn_in :].T)
    return nodes, np.ones_like(nodes, dtype=float)


def _wrw_kernel(sampler, n, streams):
    """WRW/S-WRW dispatch: the sampler's next-hop engine picks the kernel."""
    if sampler.next_hop == "alias":
        return _wrw_alias_kernel(sampler, n, streams)
    return _wrw_search_kernel(sampler, n, streams)


def _wrw_search_kernel(sampler, n, streams):
    """Inverse-CDF next hop via one keyed ``np.searchsorted`` per step.

    The sampler's search key orders arcs by ``(source, local
    cumulative)``, so searching ``cur + 1j*target`` with
    ``side="right"`` finds, for every walker at once, the first arc of
    its run whose cumulative exceeds the target — the sequential
    twin's per-run ``searchsorted`` rule over the same float64 sums,
    hence bit-identical trajectories. A target at or past the run total
    lands on the run's end and clamps to its last arc, as in the twin.
    """
    graph = sampler._graph
    indptr, indices = graph.indptr, graph.indices
    key = sampler._search_key
    strength = sampler._strength
    total = n + sampler._burn_in
    cur, variates = _frontier_setup(sampler, streams, 1, total)
    isolated = _isolated_mask(graph.degrees())
    # Must stay complex128: any other dtype would make searchsorted
    # cast (copy) the whole key on every step.
    query = np.empty(len(streams), dtype=np.complex128)
    out = np.empty((total, len(streams)), dtype=np.int64)
    for i in range(total):
        if isolated is not None:
            _check_frontier(isolated, cur, "weighted walk")
        query.real = cur
        query.imag = variates.step(i)[0] * strength[cur]
        arc = np.searchsorted(key, query, side="right")
        cur = indices[np.minimum(arc, indptr[cur + 1] - 1)]
        out[i] = cur
    nodes = np.ascontiguousarray(out[sampler._burn_in :].T)
    return nodes, strength[nodes]


def _wrw_alias_kernel(sampler, n, streams):
    """O(1) next-hop WRW via per-run Walker alias tables.

    Same variate consumption as the search kernel (one uniform per
    step), but the uniform picks an equal-probability bucket and its
    keep/alias outcome instead of an inverse-CDF search over the
    cumulative weights — a handful of O(1) gathers per step instead of
    a keyed ``searchsorted``.
    """
    graph = sampler._graph
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    strength = sampler._strength
    prob = sampler._alias_tables.prob
    alias = sampler._alias_tables.alias
    total = n + sampler._burn_in
    cur, variates = _frontier_setup(sampler, streams, 1, total)
    isolated = _isolated_mask(degrees)
    out = np.empty((total, len(streams)), dtype=np.int64)
    for i in range(total):
        if isolated is not None:
            _check_frontier(isolated, cur, "weighted walk")
        u = variates.step(i)[0] * degrees[cur]
        j = u.astype(np.int64)
        arc = indptr[cur] + j
        cur = np.where(u - j < prob[arc], indices[arc], indices[alias[arc]])
        out[i] = cur
    nodes = np.ascontiguousarray(out[sampler._burn_in :].T)
    return nodes, strength[nodes]


def _rwj_kernel(sampler, n, streams):
    graph = sampler._graph
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    num_nodes = graph.num_nodes
    alpha = sampler._alpha
    total = n + sampler._burn_in
    cur, variates = _frontier_setup(sampler, streams, 2, total)
    last = max(len(indices) - 1, 0)
    out = np.empty((total, len(streams)), dtype=np.int64)
    for i in range(total):
        jump_rand, step_rand = variates.step(i)
        deg = degrees[cur]
        jump = jump_rand * (deg + alpha) < alpha
        # A zero-degree frontier walker always jumps (its rand < 1), so
        # the clamped gather below is never *used* out of range.
        stepped = indices[
            np.minimum(indptr[cur] + (step_rand * deg).astype(np.int64), last)
        ]
        cur = np.where(jump, (step_rand * num_nodes).astype(np.int64), stepped)
        out[i] = cur
    nodes = np.ascontiguousarray(out[sampler._burn_in :].T)
    return nodes, degrees[nodes].astype(float) + alpha


register_kernel(RandomWalkSampler, _rw_kernel)
register_kernel(MetropolisHastingsSampler, _mhrw_kernel)
register_kernel(WeightedRandomWalkSampler, _wrw_kernel)
register_kernel(RandomWalkWithJumpsSampler, _rwj_kernel)
