"""``repro.runtime`` — process-parallel sweep and plan execution.

The layer between the sampling/estimation kernels and the experiments
harness. Every experiment compiles to a declarative
:class:`~repro.experiments.plan.SweepPlan` — a dependency DAG of
resource builds, scenario cells (substrate x partition x design x
budget ladder x replications, fresh or pre-drawn), and a finalize step
— and :func:`run_plan` executes it. Parallel plans default to the
**DAG scheduler** (:mod:`repro.runtime.scheduler`): resources build
concurrently ahead of the cell frontier, ready cells overlap on one
**persistent worker pool** (:mod:`repro.runtime.pool` — workers spawn
once per process and serve every cell's shard tasks, so cell ``k+1``'s
sampling fills the gaps in cell ``k``'s ladder drain), and the
one-cell-at-a-time loop is kept as the reference twin
(``scheduler="serial"`` / ``REPRO_PLAN_SCHEDULER``). Each sweep cell
runs on :class:`ProcessSweepExecutor` (fresh-draw sweeps via
:meth:`~ProcessSweepExecutor.run`, pre-drawn crawl sweeps via
:meth:`~ProcessSweepExecutor.run_from_samples`), publishing the plan's
shared substrate once through shared memory
(:mod:`repro.runtime.sharedmem` — one ambient pool per plan run,
deduplicated across cells; cell-local blocks are retired from the
persistent workers when their cell finishes), bounding variate memory
via the batched engine's chunked step windows, and checkpointing every
completed ladder rung plus the compressed per-replicate observations
(:mod:`repro.runtime.checkpoint`) so paper-scale runs survive being
killed. Select the executor per call
(``run_nrmse_sweep(executor="process", workers=4)``), per scope
(:func:`runtime_options`), per environment (``REPRO_EXECUTOR`` /
``REPRO_WORKERS`` — how CI runs whole suites under the parallel path),
or per plan (``repro experiment fig6 --workers 4``). Both replicated
entry points — :func:`~repro.stats.replication.run_nrmse_sweep` and
:func:`~repro.stats.replication.run_nrmse_sweep_from_samples` —
resolve the ambient configuration identically, and bare sweeps reuse
the same process-wide worker pool, so back-to-back sweeps in one
Python process — a plan's cells, a library session, a test suite —
spawn workers once, not once per sweep. (Separate CLI invocations are
separate processes; each spawns its pool once.)

The determinism contract
------------------------
Plan output is **bit-identical** to the serial engine — for every
worker count, and for every cell schedule the DAG scheduler might
choose — by construction rather than by tolerance:

1. **Streams are named by seed, not by schedule.** The master generator
   spawns one integer seed per replicate
   (:func:`repro.rng.spawn_seeds`) exactly as the serial harness
   spawns its generators; replicate ``i`` *is*
   ``default_rng(seeds[i])`` wherever it executes. Pre-drawn cells
   skip sampling entirely: their replicate crawls are inputs, shipped
   to workers byte-for-byte through shared memory. Plan cells derive
   their master streams by fixed integer keys
   (:func:`repro.rng.derive_rng`), so cell order is irrelevant too.
   Shard assignment, worker count, cell interleaving, and completion
   order cannot reach a trajectory.
2. **Kernels are shard-blind and schedule-blind.** A worker advances
   its replicate block through the same batched frontier kernels the
   serial sweep uses (:func:`repro.sampling.batch.sample_streams`;
   designs without a kernel run their per-stream sampler there too).
   There is one sampling path and one ladder path; the seed
   per-replicate sampler loop and ``subset_draws`` ladder survive only
   as the test oracle in ``tests/oracles.py``, which pins both bit for
   bit. Chunked variate windows preserve the equality because chunked
   ``Generator.random`` calls yield the identical value stream; a
   persistent worker running two cells' tasks in parallel threads
   preserves it because tasks share no mutable state.
3. **Estimation rows share one code path.** Each replicate's rung rows
   come from the same ``_rung_rows`` /
   :class:`~repro.stats.prefix.IncrementalPrefixLadder` code the serial
   sweep runs, over observations gathered from the same observation
   planes (the driver builds them once and ships them in the payload);
   each shard's rows are folded in absolute replicate order into
   the serial sweep's :class:`~repro.stats.replication.RungReducer`
   (also for the cross-sample pseudo-truth of the paper's Section 7.2
   convention), whose running Eq. 17 sums add one replicate row after
   another however the rows are split into blocks. No float is added
   in a different order, whichever cells were in flight together.
4. **Resume is exact — and substrate-free when possible.**
   Checkpointed rungs are replayed from disk while workers fold their
   integer multiplicity state forward
   (:meth:`repro.stats.prefix.IncrementalPrefixLadder.fold` — adding a
   draw's multiplicity is order-free integer arithmetic), and ladders
   are seeded from the checkpointed ``observe_both`` observations —
   arrays that round-trip npz exactly — instead of re-measuring, so a
   resumed sweep finishes with the same bits as an uninterrupted one.
   Checkpoints are double-keyed: the plan directory by the plan
   manifest (experiment id + cell grid), each cell's sweep directory
   by a manifest fingerprint (seeds or pre-drawn sample digests,
   size ladder, estimator knobs, graph/partition/sampler content), so a
   stale checkpoint can never contaminate a non-matching run.
   Completed cells additionally record their sweep key in the plan's
   ``cells.json`` and persist their truth arrays, so a resumed plan
   *replays* a fully rung-cached cell
   (:func:`repro.runtime.executor.replay_sweep`) without rebuilding
   its substrate — the remaining cells resume at their first missing
   rung as before. A killed ``repro experiment <name> --resume``
   therefore restarts exactly where it died, to the same bytes, even
   when several cells were in flight. One trust boundary is inherent
   to skipping the rebuild: the replay path cannot re-fingerprint a
   substrate it never constructs, so it trusts the recorded key under
   a matching *plan* manifest (experiment id, cell grid, scale preset,
   master seed). Substrate drift that those inputs cannot see —
   editing a generator's code between runs — is caught on the
   build-and-resume path (content digests in the sweep manifest) but
   not on the replay path; after changing substrate-producing code,
   run once without ``--resume`` (or delete the plan directory) rather
   than resuming into it.
5. **Failure is survivable — and recovery reproduces the same bits.**
   Because streams are seed-named and shards are re-executable (points
   1-2), a worker that dies or wedges mid-shard is not a lost run: the
   executor's failover path respawns a replacement, replays the
   shard's task from its own seeds, folds forward past every rung the
   parent already received (the same integer skip-fold the resume path
   uses), and continues — output byte-identical to an undisturbed run,
   at any worker count. Retries are budgeted per shard
   (``REPRO_MAX_RETRIES`` / ``--max-retries``, default 2 beyond the
   first attempt); exhaustion raises a structured
   :class:`~repro.runtime.pool.WorkerFailure` naming the shard, every
   attempt's pid/exit code/phase, and any traceback the dying worker
   spilled to disk. A worker that hangs without dying is caught by
   per-task heartbeats against ``REPRO_TASK_TIMEOUT`` /
   ``--task-timeout`` (no timeout by default) and escalated through
   the same path. When workers cannot be (re)spawned at all, the
   runtime degrades — first to fewer workers (shards multiplex over
   the survivors), ultimately to in-process serial execution — each
   step with a single :class:`RuntimeWarning`, never a crash, and
   never different bytes. Checkpoint payloads carry embedded checksums:
   a corrupt file is quarantined as ``*.corrupt`` and its rows
   recomputed instead of poisoning a resume. All of it is exercised
   deterministically by the fault-injection harness
   (:mod:`repro.runtime.faults`, ``REPRO_FAULTS``) rather than waiting
   for real hardware to misbehave.
6. **Telemetry is output-neutral.** The runtime telemetry plane
   (:mod:`repro.runtime.telemetry`, ``--trace``/``--metrics``,
   :func:`~repro.runtime.telemetry.telemetry_scope`) observes the run —
   spans, counters, instant markers, shipped from workers over the
   existing reply channel — but never participates in it: no RNG draw,
   no float, no schedule decision, no checkpoint byte depends on
   whether recording is on. Outputs are byte-identical with telemetry
   enabled or disabled, at any worker count, and with recording off
   every probe is a single ``None`` check
   (``tests/runtime/test_telemetry.py`` pins both properties).

``tests/runtime/`` enforces all six properties —
``test_scheduler.py`` at the DAG grain (fig4 and fig6 bit-equal
serial-loop vs DAG at 1/2/3 workers, mid-plan kill with cells in
flight, substrate-free replay), ``test_plan.py`` at the plan grain —
and the golden sweep regression additionally pins the executor against
the serial path, and both against the ``tests/oracles.py`` reference
sweep, for every registered design.
"""

from repro.runtime.checkpoint import PlanCheckpoint, SweepCheckpoint
from repro.runtime.config import (
    RuntimeOptions,
    active_options,
    resolve_executor,
    resolve_plan_scheduler,
    runtime_options,
)
from repro.runtime.executor import ProcessSweepExecutor, replay_sweep
from repro.runtime.plan import run_plan
from repro.runtime.pool import (
    PersistentWorkerPool,
    WorkerDied,
    WorkerFailure,
    default_pool,
    reset_default_pools,
)
from repro.runtime.sharedmem import SharedArrayPool
from repro.runtime.telemetry import TelemetryRecorder, telemetry_scope

__all__ = [
    "PersistentWorkerPool",
    "PlanCheckpoint",
    "ProcessSweepExecutor",
    "RuntimeOptions",
    "SharedArrayPool",
    "SweepCheckpoint",
    "TelemetryRecorder",
    "WorkerDied",
    "WorkerFailure",
    "active_options",
    "default_pool",
    "replay_sweep",
    "reset_default_pools",
    "resolve_executor",
    "resolve_plan_scheduler",
    "run_plan",
    "runtime_options",
    "telemetry_scope",
]
