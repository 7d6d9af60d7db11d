"""``repro.runtime`` — process-parallel sweep and plan execution.

The layer between the sampling/estimation kernels and the experiments
harness. Every experiment compiles to a declarative
:class:`~repro.experiments.plan.SweepPlan` — a dependency DAG of
resource builds, scenario cells (substrate x partition x design x
budget ladder x replications, fresh or pre-drawn), and a finalize step
— and :func:`run_plan` executes it: one cell at a time, in plan
order, building each resource on the first cell that reads it. A
parallel plan's cells share one **persistent worker pool**
(:mod:`repro.runtime.pool` — workers spawn once per process and serve
every cell's shard tasks). Each sweep cell of a parallel plan
runs on :class:`ProcessSweepExecutor` (fresh-draw sweeps via
:meth:`~ProcessSweepExecutor.run`, pre-drawn crawl sweeps via
:meth:`~ProcessSweepExecutor.run_from_samples`), publishing the plan's
shared substrate once through shared memory
(:mod:`repro.runtime.sharedmem` — one ambient pool per plan run,
deduplicated across cells; cell-local blocks are retired from the
persistent workers when their cell finishes) and bounding variate
memory via the batched engine's chunked step windows. With a checkpoint
root, every plan, serial or parallel, writes each finished sweep cell's
result to one checksummed file (:mod:`repro.runtime.checkpoint`), so
paper-scale runs survive being killed. Select the executor per call
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
worker count — by construction rather than by tolerance:

1. **Streams are named by seed, not by schedule.** The master generator
   spawns one integer seed per replicate
   (:func:`repro.rng.spawn_seeds`) exactly as the serial harness
   spawns its generators; replicate ``i`` *is*
   ``default_rng(seeds[i])`` wherever it executes. Pre-drawn cells
   skip sampling entirely: their replicate crawls are inputs, shipped
   to workers byte-for-byte through shared memory. Plan cells derive
   their master streams by fixed integer keys
   (:func:`repro.rng.derive_rng`), so cell order is irrelevant too.
   Shard assignment, worker count, and completion order cannot reach
   a trajectory.
2. **Kernels are shard-blind and schedule-blind.** A worker advances
   its replicates through the same batched frontier kernels the
   serial sweep uses (:func:`repro.sampling.batch.sample_streams`;
   designs without a kernel run their per-stream sampler there too).
   There is one sampling path and one ladder path; the seed
   per-replicate sampler loop and ``subset_draws`` ladder survive only
   as the test oracle in ``tests/oracles.py``, which pins both bit for
   bit. Chunked variate windows preserve the equality because chunked
   ``Generator.random`` calls yield the identical value stream; a
   persistent worker running several shard tasks in parallel threads
   preserves it because tasks share no mutable state.
3. **Estimation runs one loop.** Replicate ``r`` belongs to shard
   ``r mod W``, and each shard runs the serial sweep's per-replicate
   loop (:func:`~repro.stats.replication._replicate_rows`: one
   :class:`~repro.stats.prefix.IncrementalPrefixLadder` carried
   through every rung) on each of its replicates, over observations
   gathered from the same observation planes (the driver builds them
   once and ships them in the payload). A shard writes a replicate's
   rows, unchanged float64, into a shared-memory reply slot (its
   ``j``-th replicate into slot ``j % 2``; the reply names only the
   replicate), and the driver folds them from there, replicate by
   replicate and rung by rung — the serial sweep's fold sequence —
   into the serial sweep's
   :class:`~repro.stats.replication.RungReducer` (also for the
   cross-sample pseudo-truth of the paper's Section 7.2 convention).
   No float is added in a different order. A slot is rewritten by the
   shard's replicate after next, which is queued only after this one
   is folded, so the only rows that could see a rewrite are the ones
   the reduction keeps past their fold (the cross-sample blocks): the
   driver copies exactly those out of the slot first.
4. **Resume is exact, at cell grain.** A sweep cell is a pure function
   of (plan manifest, cell key) by point 1, so the cell is what a
   checkpoint persists: each finished sweep cell, serial or parallel,
   writes its :class:`~repro.stats.replication.SweepResult` (sample
   sizes, NRMSE and coverage arrays, truth category graph) to one
   atomic, checksummed file in a directory keyed by the plan manifest
   (experiment id, cell grid, scale preset, master seed). A resumed
   plan replays each finished cell from its file — arrays round-trip
   npz exactly — without building the cell's substrate, and recomputes
   the rest, so ``repro experiment <name> --resume`` finishes with the
   same bytes as an uninterrupted run at any worker count, serial
   included, whichever executor wrote the checkpoint. A killed run
   loses at most the cell in flight: at paper scale the longest cell,
   fig4's texas S-WRW, takes about 10.6 s. One trust boundary is
   inherent to skipping the rebuild: nothing re-fingerprints a
   substrate that is never constructed, so the replay trusts the file
   under a matching plan manifest. Drift those inputs cannot see —
   editing a generator's code between runs — is not detected; after
   changing substrate-producing code, run once without ``--resume`` (or
   delete the plan directory) rather than resuming into it.
5. **Failure is survivable — and recovery reproduces the same bits.**
   Because streams are seed-named and shards are re-executable (points
   1-2), a worker that dies or wedges mid-shard is not a lost run: the
   executor's failover path opens a replacement task on a respawned
   worker for the shard's replicates the driver has not yet received,
   from their own seeds (or pre-drawn samples), sends the one queued
   replicate command again, and continues. Nothing is replayed: a
   replicate is delivered whole or not at all, so the output is
   byte-identical to an undisturbed run, at any worker count. Retries are budgeted per shard
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
   never different bytes. Checkpoint cell files carry embedded
   checksums: a corrupt file is quarantined as ``*.corrupt`` and its
   cell recomputed instead of poisoning a resume. All of it is exercised
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
``test_scheduler.py`` at the plan-schedule grain (fig4 and fig6
process output bit-equal to serial at 1/2/3 workers, mid-plan kill,
substrate-free replay), ``test_plan.py`` at the plan grain,
``test_checkpoint.py`` at the cell-file grain —
and the golden sweep regression additionally pins the executor against
the serial path, and both against the ``tests/oracles.py`` reference
sweep, for every registered design.
"""

from repro.runtime.checkpoint import PlanCheckpoint
from repro.runtime.config import (
    RuntimeOptions,
    active_options,
    resolve_executor,
    runtime_options,
)
from repro.runtime.executor import ProcessSweepExecutor
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
    "TelemetryRecorder",
    "WorkerDied",
    "WorkerFailure",
    "active_options",
    "default_pool",
    "reset_default_pools",
    "resolve_executor",
    "run_plan",
    "runtime_options",
    "telemetry_scope",
]
