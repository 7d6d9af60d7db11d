"""Replicated NRMSE-vs-sample-size sweeps.

This is the shared engine behind Figs. 3, 4 and 6: draw R independent
samples (or take R independent walks), truncate each to a ladder of
sample sizes (a crawl's prefix *is* a shorter crawl), run all four
estimator families on each truncation, and reduce to element-wise NRMSE
(Eq. 17) across the replications.

Performance architecture
------------------------
A sweep runs one path, with both hot phases on their fast engines:

* **Sampling** draws all R replicates through
  :meth:`~repro.sampling.base.Sampler.sample_many`, which advances walk
  designs as one vectorized frontier (:mod:`repro.sampling.batch`);
  designs without a kernel fall back to a per-stream loop.
* **The ladder** folds each rung's new draws into running prefix
  aggregates (:class:`~repro.stats.prefix.IncrementalPrefixLadder`)
  instead of re-subsetting every rung from scratch.

The seed algorithms — a per-replicate ``sample()`` loop and a ladder
that re-subsets every rung via ``subset_draws`` — live on as the test
oracle in ``tests/oracles.py``, which pins both fast phases bit for bit.

The sweep knobs (sample-size ladder, estimator plug-in, mean-degree
model, truth mode) are validated once, by :class:`SweepSpec`, before
anything is sampled or dispatched.

A second axis shards the R replicates across *processes*:
``executor="process"`` hands the sweep to the :mod:`repro.runtime`
executor, which publishes the graph arrays once via shared memory,
reconstructs each replicate's RNG stream from its spawned seed (so
shard assignment cannot change a trajectory), and folds each shard's
rung rows into the serial path's :class:`RungReducer` as they arrive.
Neither path holds ``(R, K, C, C)`` stacks: the serial sweep folds
each replicate's rows as its ladder produces them, the executor each
shard's block, into running Eq. 17 sums
(:class:`~repro.stats.errors.RunningNRMSE`) that add rows in
replicate order whatever the blocks — the resulting
:class:`SweepResult` is bit-identical for any worker count, and
supports rung-level checkpoint/resume. Both entry points ride it:
:func:`run_nrmse_sweep` shards sampling *and* the ladder, while
:func:`run_nrmse_sweep_from_samples` (pre-drawn crawls) ships the
replicate samples through shared memory and shards the ladder phase
alone. Each resolves executor/workers/checkpoint/resume from its
arguments, then the ambient runtime configuration
(:func:`repro.runtime.runtime_options`, the ``REPRO_*`` environment),
identically.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.category_size import check_mean_degree_model
from repro.exceptions import EstimationError
from repro.graph.adjacency import Graph
from repro.graph.category_graph import CategoryGraph, true_category_graph
from repro.graph.partition import CategoryPartition
from repro.rng import ensure_rng
from repro.sampling.base import NodeSample, Sampler
from repro.sampling.observation import observation_planes
from repro.stats.errors import RunningNRMSE, nanmean_rows
from repro.stats.prefix import IncrementalPrefixLadder, RungEstimates

__all__ = [
    "RungReducer",
    "SweepResult",
    "SweepSpec",
    "run_nrmse_sweep",
    "run_nrmse_sweep_from_samples",
]

#: The two measurement scenarios compared throughout the paper.
KINDS = ("induced", "star")


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """The validated knobs of one replicated sweep.

    Built once by each public entry point, before anything is sampled,
    observed, or dispatched, so a bad knob fails with the same
    :class:`~repro.exceptions.EstimationError` on every executor.
    ``sizes`` is normalized to the sorted, de-duplicated ``int64``
    ladder.
    """

    sizes: np.ndarray
    weight_size_plugin: str = "star"
    mean_degree_model: str = "per-category"
    truth_mode: str = "exact"

    def __post_init__(self) -> None:
        sizes = np.asarray(
            sorted(set(int(s) for s in self.sizes)), dtype=np.int64
        )
        if len(sizes) == 0 or sizes[0] < 1:
            raise EstimationError("sample_sizes must be positive integers")
        object.__setattr__(self, "sizes", sizes)
        if self.weight_size_plugin not in ("star", "induced", "true"):
            raise EstimationError(
                f"unknown weight_size_plugin {self.weight_size_plugin!r}"
            )
        check_mean_degree_model(self.mean_degree_model)
        if self.truth_mode not in ("exact", "cross-sample"):
            raise EstimationError(f"unknown truth_mode {self.truth_mode!r}")


@dataclass(frozen=True)
class SweepResult:
    """NRMSE curves from a replicated sweep.

    Attributes
    ----------
    sample_sizes:
        The sweep ladder, shape ``(K,)``.
    size_nrmse:
        Per measurement kind, shape ``(K, C)`` — NRMSE of ``|A|_hat``.
    weight_nrmse:
        Per measurement kind, shape ``(K, C, C)`` — NRMSE of ``w_hat``.
    size_coverage / weight_coverage:
        Fraction of replicates with finite estimates, same shapes.
    truth:
        The exact category graph the errors are measured against.
    """

    sample_sizes: np.ndarray
    size_nrmse: dict[str, np.ndarray]
    weight_nrmse: dict[str, np.ndarray]
    size_coverage: dict[str, np.ndarray]
    weight_coverage: dict[str, np.ndarray]
    truth: CategoryGraph

    def median_size_nrmse(self, kind: str, categories: np.ndarray | None = None) -> np.ndarray:
        """Median across categories (Fig. 4/6 top rows), shape ``(K,)``."""
        values = self.size_nrmse[kind]
        if categories is not None:
            values = values[:, categories]
        return _nanmedian_rows(values)

    def median_weight_nrmse(
        self, kind: str, pairs: np.ndarray | None = None
    ) -> np.ndarray:
        """Median across category pairs (Fig. 4/6 bottom rows)."""
        values = self.weight_nrmse[kind]
        if pairs is None:
            c = values.shape[1]
            idx = np.triu_indices(c, k=1)
            flat = values[:, idx[0], idx[1]]
        else:
            flat = values[:, pairs[:, 0], pairs[:, 1]]
        return _nanmedian_rows(flat)


def _nanmedian_rows(values: np.ndarray) -> np.ndarray:
    """``np.nanmedian(values, axis=1)`` minus its all-NaN-row warning
    (warning filters are not thread-safe); other rows keep their bytes."""
    medians = np.full(values.shape[0], np.nan)
    some = ~np.isnan(values).all(axis=1)
    medians[some] = np.nanmedian(values[some], axis=1)
    return medians


def run_nrmse_sweep(
    graph: Graph,
    partition: CategoryPartition,
    sampler_factory: "Callable[[], Sampler] | Sampler",
    sample_sizes: Sequence[int],
    replications: int,
    rng: "np.random.Generator | int | None" = None,
    weight_size_plugin: str = "star",
    mean_degree_model: str = "per-category",
    executor: "str | object | None" = None,
    workers: int | None = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: "bool | None" = None,
) -> SweepResult:
    """Sweep NRMSE vs sample size with freshly drawn replicate samples.

    Parameters
    ----------
    sampler_factory:
        The sampler, or a zero-argument callable creating it. Walk
        starts still differ per replication: each replicate consumes its
        own spawned RNG stream, and all replicates are drawn at once
        through :meth:`~repro.sampling.base.Sampler.sample_many`.
    weight_size_plugin:
        Which size estimates feed Eq. (9)/(16): ``"star"`` (paper
        default; falls back to induced for categories the star size
        estimator cannot resolve), ``"induced"``, or ``"true"``
        (oracle, for ablations).
    executor:
        ``"serial"`` (in-process, the default), ``"process"`` (the
        :mod:`repro.runtime` shared-memory multi-process executor), or
        an executor instance. ``None`` defers to the ambient runtime
        configuration (:func:`repro.runtime.runtime_options`, else the
        ``REPRO_EXECUTOR``/``REPRO_WORKERS`` environment variables,
        else serial). Output is bit-identical across executors and
        worker counts.
    workers / checkpoint / resume:
        Process-executor knobs: shard count, the checkpoint root
        directory (a manifest-keyed per-sweep subdirectory is created
        under it, with one file per completed ladder rung), and whether
        a matching checkpoint should be continued instead of restarted
        (``None`` defers to the ambient configuration). Ignored by the
        serial executor; rejected alongside an executor *instance*,
        which already carries its own configuration.
    """
    spec = SweepSpec(sample_sizes, weight_size_plugin, mean_degree_model)
    if replications < 1:
        raise EstimationError(
            f"replications must be positive, got {replications}"
        )
    gen = ensure_rng(rng)
    from repro.runtime.config import resolve_executor  # deferred: cycle

    active = resolve_executor(executor, workers, checkpoint, resume)
    sampler = (
        sampler_factory
        if isinstance(sampler_factory, Sampler)
        else sampler_factory()
    )
    if active is not None:
        return active.run(graph, partition, sampler, spec, replications, gen)
    samples = list(
        sampler.sample_many(int(spec.sizes[-1]), replications, rng=gen)
    )
    return _serial_sweep(graph, partition, samples, spec)


def run_nrmse_sweep_from_samples(
    graph: Graph,
    partition: CategoryPartition,
    samples: Sequence[NodeSample],
    sample_sizes: Sequence[int],
    weight_size_plugin: str = "star",
    mean_degree_model: str = "per-category",
    truth_mode: str = "exact",
    executor: "str | object | None" = None,
    workers: int | None = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: "bool | None" = None,
) -> SweepResult:
    """Sweep NRMSE using pre-drawn replicate samples (e.g. crawl walks).

    ``truth_mode="exact"`` scores against the true category graph
    (possible here because the substrate is fully known).
    ``truth_mode="cross-sample"`` reproduces the paper's Section 7.2
    convention — "we use as ground truth the average of estimation over
    all samples" — scoring each estimator kind against the average of
    its own full-length estimates, which measures variance but not bias.

    ``executor``/``workers``/``checkpoint``/``resume`` mirror
    :func:`run_nrmse_sweep` exactly: ``None`` defers to the ambient
    runtime configuration (:func:`repro.runtime.runtime_options`, then
    the ``REPRO_EXECUTOR``/``REPRO_WORKERS`` environment), so the
    pre-drawn ladder phase shards across the same worker pool as the
    fresh-draw path — with the same bit-identical-for-any-worker-count
    contract and rung-level checkpoint/resume.
    """
    spec = SweepSpec(
        sample_sizes, weight_size_plugin, mean_degree_model, truth_mode
    )
    if not samples:
        raise EstimationError("need at least one replicate sample")
    if any(s.size < spec.sizes[-1] for s in samples):
        raise EstimationError(
            f"every sample must have at least {spec.sizes[-1]} draws "
            "for this sweep"
        )
    from repro.runtime.config import resolve_executor  # deferred: cycle

    active = resolve_executor(executor, workers, checkpoint, resume)
    if active is not None:
        return active.run_from_samples(graph, partition, list(samples), spec)
    return _serial_sweep(graph, partition, samples, spec)


def _serial_sweep(
    graph: Graph,
    partition: CategoryPartition,
    samples: Sequence[NodeSample],
    spec: SweepSpec,
) -> SweepResult:
    """Run every replicate's prefix ladder in-process and reduce."""
    sizes = spec.sizes
    truth = true_category_graph(graph, partition)
    n_pop = graph.num_nodes
    r = len(samples)
    k = len(sizes)
    reducer = RungReducer(sizes, truth, spec.truth_mode, r)

    from repro.runtime import telemetry  # deferred: cycle

    with telemetry.span(
        "sweep.serial", cat="driver", replicates=r, rungs=k
    ):
        with telemetry.span("observe.planes", cat="driver"):
            observation_planes(graph, partition)
        for sample in samples:
            ladder = IncrementalPrefixLadder(graph, partition, sample)
            for si, size in enumerate(sizes):
                rung = ladder.estimates(
                    int(size), n_pop, mean_degree_model=spec.mean_degree_model
                )
                rows = _rung_rows(rung, spec.weight_size_plugin, truth.sizes)
                reducer.fold(si, [row[np.newaxis] for row in rows])
            # Free this replicate's observations before the next ladder
            # is built, so peak memory holds one replicate's, not two.
            del ladder
        for si in range(k):
            reducer.close(si)
    return reducer.result()


class RungReducer:
    """Reduces a sweep, rung by rung, to its NRMSE surfaces (Eq. 17).

    ``fold(si, rows)`` takes the next block of replicates of rung
    ``si``: its four ``(B, ...)`` row arrays in :func:`_rung_rows` order,
    blocks arriving in replicate order. ``close(si)`` ends the rung once
    all ``R`` replicates are in; ``add(si, rows)`` folds a whole rung and
    closes it. ``result()`` returns the :class:`SweepResult`.

    Under exact truth each block goes straight into per-rung
    :class:`~repro.stats.errors.RunningNRMSE` sums and is let go, so
    no rows outlive their fold, whatever the block size. The
    cross-sample pseudo-truth averages the last rung, so blocks are held
    until that rung closes and folded then, in the same order. Either
    way a rung's bytes do not depend on how its replicates were split
    into blocks.
    """

    def __init__(self, sizes, truth, truth_mode, replications):
        c = truth.sizes.shape[0]
        self.row_shapes = [(replications, c)] * 2 + [(replications, c, c)] * 2
        self._sizes, self._truth = sizes, truth
        self._replications = replications
        self._nrmse = [np.empty((len(sizes), *s[1:])) for s in self.row_shapes]
        self._coverage = [np.empty_like(values) for values in self._nrmse]
        exact = [truth.sizes] * 2 + [truth.weights] * 2
        self._truths = None if truth_mode == "cross-sample" else exact
        self._sums = {}
        self._held = {}
        self._closing = set()
        self._missing = set(range(len(sizes)))

    def add(self, si: int, rows: Sequence[np.ndarray]) -> None:
        """Fold and close rung ``si`` from all its ``(R, ...)`` rows."""
        if [row.shape for row in rows] != self.row_shapes:
            raise EstimationError(f"rung {si} rows are not {self.row_shapes}")
        self.fold(si, rows)
        self.close(si)

    def fold(self, si: int, rows: Sequence[np.ndarray]) -> None:
        """Fold the next block of rung ``si``'s replicates, or hold it
        until the truth is known."""
        shapes = [(len(rows[0]), *s[1:]) for s in self.row_shapes]
        if [row.shape for row in rows] != shapes:
            raise EstimationError(f"rung {si} block is not {shapes}")
        if self._truths is None:
            self._held.setdefault(si, []).append(rows)
            return
        if si not in self._sums:
            self._sums[si] = [RunningNRMSE(truth) for truth in self._truths]
        # Through the module global, so wrappers on it see every block.
        _reduce_stacks(self._sums[si], rows)

    def close(self, si: int) -> None:
        """End rung ``si``: write its surfaces once its truth is known."""
        self._closing.add(si)
        if self._truths is None:
            last = len(self._sizes) - 1
            if si != last:
                return
            blocks = self._held.get(last, [])
            self._check_complete(last, sum(len(rows[0]) for rows in blocks))
            # Paper Sec. 7.2: pseudo-truth = the per-kind average of the
            # full-length estimates across the replicate walks
            # (nanmean_rows: warning filters are not thread-safe).
            self._truths = [
                nanmean_rows(np.concatenate([rows[f] for rows in blocks]))
                for f in range(4)
            ]
            held, self._held = self._held, {}
            for held_si, blocks in held.items():
                for rows in blocks:
                    self.fold(held_si, rows)
        while self._closing:
            done = self._closing.pop()
            sums = self._sums.pop(done, None)
            self._check_complete(done, 0 if sums is None else sums[0].rows)
            for f, field in enumerate(sums):
                self._nrmse[f][done], self._coverage[f][done] = field.close()
            self._missing.discard(done)

    def _check_complete(self, si: int, folded: int) -> None:
        if folded != self._replications:
            raise EstimationError(
                f"rung {si} closed with {folded} of "
                f"{self._replications} replicates"
            )

    def result(self) -> SweepResult:
        if self._missing:
            raise EstimationError(f"rungs {sorted(self._missing)} not reduced")
        return SweepResult(
            sample_sizes=self._sizes,
            size_nrmse=dict(zip(KINDS, self._nrmse[:2])),
            weight_nrmse=dict(zip(KINDS, self._nrmse[2:])),
            size_coverage=dict(zip(KINDS, self._coverage[:2])),
            weight_coverage=dict(zip(KINDS, self._coverage[2:])),
            truth=self._truth,
        )


def _reduce_stacks(sums: Sequence[RunningNRMSE], rows: Sequence[np.ndarray]):
    """Eq. 17 over one block: fold each ``(B, ...)`` row array into its
    running sum, in ``_rung_rows`` order."""
    for field, block in zip(sums, rows):
        field.fold(block)


def _rung_rows(
    rung: RungEstimates,
    weight_size_plugin: str,
    truth_sizes: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One replicate's estimate rows at one rung, plug-in resolved.

    The single code path that turns a :class:`RungEstimates` into the
    four stack rows — serial sweeps and executor workers both call it,
    which is what makes the parallel stacks bit-identical to the serial
    ones.
    """
    plugin = _plugin_sizes(
        weight_size_plugin, rung.sizes_star, rung.sizes_induced, truth_sizes
    )
    return (
        rung.sizes_induced,
        rung.sizes_star,
        rung.weights_induced,
        rung.weights_star(plugin),
    )


def _plugin_sizes(
    plugin: str,
    sizes_star: np.ndarray,
    sizes_induced: np.ndarray,
    truth_sizes: np.ndarray | None,
) -> np.ndarray:
    if plugin == "true":
        if truth_sizes is None:
            raise EstimationError(
                "weight_size_plugin='true' needs the oracle category sizes"
            )
        return truth_sizes
    if plugin == "induced":
        return sizes_induced
    # star with induced fallback where the star estimator is undefined
    return np.where(np.isfinite(sizes_star), sizes_star, sizes_induced)

