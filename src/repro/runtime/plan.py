"""Execute compiled experiment plans on the parallel sweep runtime.

:func:`run_plan` is the single execution path behind every experiment
driver and the ``repro experiment`` CLI. It runs the plan's cells one
at a time, in plan order, routing each
:class:`~repro.experiments.plan.SweepCell` through
:func:`repro.stats.replication.run_nrmse_sweep` (fresh draws) or
:func:`~repro.stats.replication.run_nrmse_sweep_from_samples`
(pre-drawn crawls) — in-process for serial plans, on a per-cell
:class:`~repro.runtime.executor.ProcessSweepExecutor` for parallel
ones — and running :class:`~repro.experiments.plan.ComputeCell` steps
in-process. Resources build lazily, on the first cell that reads them.

Three runtime services wrap a plan run:

* **One shared-memory pool per parallel plan run**
  (:func:`repro.runtime.sharedmem.shared_pool`): executors publish
  substrate arrays into the ambient pool, which deduplicates by object
  identity — so the Facebook world behind five Table 2 crawl cells, or
  a dataset stand-in behind three Fig. 4 design cells, crosses the
  process boundary exactly once for the whole plan. Every cell's shard
  tasks run on the one persistent worker pool
  (:mod:`repro.runtime.pool`), so workers spawn once per process.
* **Cell-grain checkpoints**
  (:class:`repro.runtime.checkpoint.PlanCheckpoint`): with a checkpoint
  root configured, every finished sweep cell, serial or parallel,
  writes its result to one checksummed file under a directory keyed by
  the plan manifest. A killed ``repro experiment fig6 --resume``
  therefore replays finished cells from their files without building
  their substrates, and recomputes the cell that was in flight and the
  ones after it — to the same bytes as an uninterrupted run, at any
  worker count.
* **Determinism by construction**: cells derive their RNG streams from
  the master seed by fixed integer keys (:func:`repro.rng.derive_rng`),
  and each sweep inherits the executor's bit-identical-for-any-worker-
  count contract, so a plan's finalized
  :class:`~repro.experiments.base.ExperimentResult` outputs are
  identical for serial, 1-worker, and N-worker runs alike.
"""

from __future__ import annotations

import os
import warnings
from contextlib import nullcontext

from repro.log import get_logger
from repro.runtime import faults, sharedmem, telemetry
from repro.runtime.checkpoint import PlanCheckpoint
from repro.runtime.config import active_options, resolve_executor
from repro.runtime.executor import ProcessSweepExecutor
from repro.runtime.pool import default_pool

__all__ = ["run_plan"]

_LOG = get_logger(__name__)


def run_plan(
    plan,
    *,
    executor: "str | None" = None,
    workers: int | None = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: bool | None = None,
):
    """Run every cell of ``plan`` and return its finalized results.

    Parameters
    ----------
    plan:
        A compiled :class:`~repro.experiments.plan.SweepPlan`.
    executor / workers:
        Optional overrides for the sweep cells; each ``None`` defers to
        the ambient runtime configuration
        (:func:`repro.runtime.runtime_options`, then the environment),
        exactly like the per-sweep entry points. ``executor`` must be a
        built-in executor *name* (``"serial"``/``"process"``): a
        parallel plan gives every cell its own labelled executor, which
        one instance cannot be.
    checkpoint / resume:
        The checkpoint *root* (the plan writes one result file per
        finished sweep cell into a plan-keyed directory under it) and
        whether to replay an earlier run's finished cells instead of
        clearing them; ``None`` defers to the ambient configuration.

    Returns
    -------
    dict[str, ExperimentResult]
        Whatever the plan's ``finalize`` assembles from the cell
        outputs.
    """
    from repro.experiments.plan import PlanResources, SweepCell

    if executor is not None and not isinstance(executor, str):
        from repro.exceptions import ExperimentError

        raise ExperimentError(
            "run_plan accepts executor names ('serial'/'process'), not "
            "executor instances; pass workers separately"
        )
    ambient = active_options()
    checkpoint_root = checkpoint if checkpoint is not None else ambient.checkpoint
    resume_flag = resume if resume is not None else bool(ambient.resume)

    # Executor resolution is uniform across cells (jobs carry no
    # executor knobs), so probe it once: a plan with sweep cells bound
    # for the process executor gets an ambient pool (named resources
    # published once, cells chain off it). Serial and compute-only
    # plans skip shared memory — publishing resources nobody attaches
    # would duplicate them in /dev/shm.
    probe = resolve_executor(executor, workers) if plan.sweep_cells else None
    parallel = probe is not None
    # Compute-only plans have nothing to persist, so they never open
    # (or clear) a plan directory.
    if checkpoint_root is not None and not plan.sweep_cells:
        message = f"plan {plan.name} has no sweep cells; nothing is checkpointed"
        _LOG.warning(message)
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    plan_checkpoint = (
        PlanCheckpoint(
            checkpoint_root,
            {
                "plan": plan.name,
                "cells": [cell.key for cell in plan.cells],
                # Compile context (scale preset, master seed, ...): keeps
                # e.g. small- and paper-scale runs of one experiment in
                # separate plan directories, so a fresh run of one can
                # never clear the other's checkpoints.
                "context": {str(k): repr(v) for k, v in plan.context.items()},
            },
            resume_flag,
        )
        if checkpoint_root is not None and plan.sweep_cells
        else None
    )

    resources = PlanResources(
        {
            name: _published_on_build(name, factory)
            for name, factory in plan.resources.items()
        }
    )

    outputs: dict[str, object] = {}
    # A parallel or checkpointed run is one fault-injection scope: a CI
    # chaos job exporting REPRO_FAULTS exercises pool growth and
    # every cell-file write, while
    # unit tests touching the checkpoint layer directly stay
    # undisturbed.
    armed = parallel or plan_checkpoint is not None
    with faults.env_scope() if armed else nullcontext(), telemetry.span(
        "plan", cat="plan", plan=plan.name, cells=len(plan.cells)
    ), sharedmem.shared_pool() if parallel else nullcontext() as ambient_pool:
        try:
            for cell in plan.cells:
                if not isinstance(cell, SweepCell):
                    with telemetry.span(
                        "cell", cat="plan", key=cell.key, kind="compute"
                    ):
                        outputs[cell.key] = cell.compute(resources)
                    continue
                result = _replayed(cell, plan_checkpoint)
                if result is None:
                    result = _run_sweep_cell(
                        cell,
                        resources,
                        ProcessSweepExecutor(
                            workers=probe.workers, label=cell.label
                        )
                        if parallel
                        else None,
                    )
                    if plan_checkpoint is not None:
                        plan_checkpoint.save_cell(cell.key, result)
                outputs[cell.key] = result
        finally:
            if ambient_pool is not None:
                # The persistent workers outlive this plan; drop their
                # attachments to the plan's resource blocks before the
                # pool unlinks them.
                default_pool().retire_all(ambient_pool.block_names)
    return plan.finalize_outputs(outputs, resources)


def _published_on_build(name, factory):
    """Publish a resource's arrays to the plan's ambient pool on build.

    Cell executors then resolve these arrays to already-published
    tokens (:class:`~repro.runtime.sharedmem.PoolChain`), while their
    cell-local arrays go through per-run pools that are unlinked when
    the cell finishes — the named resources are exactly the arrays
    worth pinning for the whole plan. Serial plans never publish:
    ``run_plan`` opens the ambient pool only for parallel executors,
    and without an active pool this wrapper is a pass-through (the
    resource object is returned unchanged either way).
    """

    def build():
        with telemetry.span("resource", cat="plan", resource=name):
            value = factory()
            pool = sharedmem.active_pool()
            if pool is not None:
                try:
                    sharedmem.dumps(value, pool)
                except Exception:
                    # Publication is purely an optimization; a resource
                    # the pickler cannot handle ships per cell instead.
                    pass
            return value

    return build


def _replayed(cell, plan_checkpoint):
    """The cell's result replayed from its checkpoint file, or ``None``.

    A replayed cell's ``build`` never runs, so resources only it reads
    are never built.
    """
    if plan_checkpoint is None:
        return None
    result = plan_checkpoint.load_cell(cell.key)
    if result is not None:
        _LOG.debug("cell %s replayed from checkpoint", cell.key)
        telemetry.counter("plan.cells_replayed", 1)
        telemetry.instant("cell.replay", cat="plan", key=cell.key)
    return result


def _run_sweep_cell(cell, resources, executor):
    """Run one sweep cell on ``executor``.

    ``executor`` is the cell's :class:`ProcessSweepExecutor`, or
    ``None`` for the in-process serial sweep.
    """
    from repro.stats.replication import (
        run_nrmse_sweep,
        run_nrmse_sweep_from_samples,
    )

    sweep_executor = "serial" if executor is None else executor
    with telemetry.span("cell", cat="plan", key=cell.key, kind="sweep"):
        job = cell.build(resources)
        if job.mode == "fresh":
            result = run_nrmse_sweep(
                job.graph,
                job.partition,
                job.sampler,
                job.sizes,
                replications=job.replications,
                rng=job.rng,
                weight_size_plugin=job.weight_size_plugin,
                mean_degree_model=job.mean_degree_model,
                executor=sweep_executor,
            )
        else:
            result = run_nrmse_sweep_from_samples(
                job.graph,
                job.partition,
                job.samples,
                job.sizes,
                weight_size_plugin=job.weight_size_plugin,
                mean_degree_model=job.mean_degree_model,
                truth_mode=job.truth_mode,
                executor=sweep_executor,
            )
    if executor is not None and executor.failover_log:
        # Recovery events already reached the telemetry plane (and the
        # log) from inside the driver; this summary line keeps per-cell
        # attribution visible even with telemetry disabled.
        _LOG.warning(
            "cell %s recovered from %d worker failure(s)",
            cell.key, len(executor.failover_log),
        )
    return result
