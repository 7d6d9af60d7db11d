"""Process-parallel sweep executor (see :mod:`repro.runtime`).

The executor turns one replicated NRMSE sweep into ``W`` shard tasks
over strided replicates: replicate ``r`` belongs to shard ``r mod W``.
A shard obtains its replicates — reconstructing each RNG stream from
its spawned seed and advancing them together through the batched
frontier kernels (:mod:`repro.sampling.batch`), or slicing them out of
*pre-drawn* samples (simulated crawls) published through shared memory
— and then runs the serial sweep's per-replicate loop
(:func:`~repro.stats.replication._replicate_rows`) on each replicate
the parent asks for: one prefix ladder alive at a time, carried through
every rung. The replicate's rows go into a shared-memory reply slot,
and the parent folds them from there, in replicate order, into the
serial path's :class:`~repro.stats.replication.RungReducer` — the fold
sequence of the serial sweep, which is why the output is bit-identical
to the serial engine for any worker count, for fresh-draw
(:meth:`ProcessSweepExecutor.run`) and pre-drawn
(:meth:`ProcessSweepExecutor.run_from_samples`) sweeps alike.

Parent/worker protocol (one duplex pipe per worker)::

    worker -> ("sampled",)                            after sampling
    parent -> ("replicate", r)                        compute replicate r
                                                      at every rung
    worker -> ("rows", r)                             its rows are in
                                                      reply slot
                                                      (r // W) % 2
    parent -> ("stop",)                               shut down
    worker -> ("error", traceback)                    any time, fatal
    worker -> ("heartbeat",)                          liveness pulse
                                                      (only when a task
                                                      timeout is set);
                                                      never a reply —
                                                      recv skips it
    parent -> ("telemetry",)                          flush telemetry
    worker -> ("telemetry", payload|None)             drained span/counter
                                                      payload (only when
                                                      the parent enabled
                                                      telemetry for the
                                                      task; see
                                                      :mod:`repro.runtime.telemetry`)

A dead or hung worker is *not* fatal: the drive loop runs every shard
through a :class:`_FailoverDriver`, which opens a replacement task for
the shard's undelivered replicates only (same seeds or samples — the
determinism contract makes the replacement's rows byte-identical) and
re-sends the one queued command, bounded by ``max_retries`` before a
structured :class:`~repro.runtime.pool.WorkerFailure` surfaces.

Each shard holds exactly one queued command. The parent goes through
the replicates in order; as soon as it collects replicate ``r`` from
shard ``r mod W`` it queues that shard's replicate ``r + W``, and only
then folds ``r``'s rows, so the worker computes the next replicate
while the parent reduces this one.

Rows do not cross the pipe. Each shard has a two-slot reply block in
shared memory (:func:`_reply_slots`), a slot holding one replicate's
rows at every rung; the shard's ``j``-th replicate fills slot
``j % 2`` and the reply names only the replicate. Two slots are what
the queue-before-fold order needs: replicate ``r + W`` writes the other
slot while the parent folds ``r``, and ``r + 2W`` is queued only after
``r + W`` is collected, by which time ``r`` is folded. Rows the
reduction keeps past their fold — the cross-sample pseudo-truth's held
blocks — are copied out of the slot first.

The executor persists nothing: checkpoints are written a whole sweep
cell at a time by :func:`repro.runtime.plan.run_plan`.
"""

from __future__ import annotations

import collections
import functools
import os
import queue
import signal
import threading
import traceback
import warnings

import numpy as np

from repro.exceptions import EstimationError
from repro.graph.category_graph import true_category_graph
from repro.log import get_logger
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import faults, sharedmem, telemetry
from repro.runtime.config import DEFAULT_MAX_RETRIES, active_options
from repro.runtime.pool import (
    WorkerDied,
    WorkerFailure,
    WorkerHang,
    WorkerSpawnError,
    default_pool,
    default_workers,
    parse_reply,
    read_spill,
)
from repro.sampling.base import Sampler
from repro.sampling.batch import sample_streams
from repro.sampling.observation import observation_planes
from repro.stats.replication import (
    RungReducer,
    SweepResult,
    SweepSpec,
    _replicate_rows,
)

__all__ = ["ProcessSweepExecutor", "serve_shard"]

_LOG = get_logger(__name__)


# ----------------------------------------------------------------------
# Reply slots
# ----------------------------------------------------------------------
def _reply_words(rungs: int, categories: int) -> int:
    """float64 words of one reply block: two slots of four row arrays."""
    return 2 * rungs * (2 * categories + 2 * categories**2)


def _reply_slots(block: np.ndarray, rungs: int, categories: int) -> list:
    """The two slots of a shard's reply block, each the four
    ``(K, C)``, ``(K, C)``, ``(K, C, C)``, ``(K, C, C)`` row arrays of
    one replicate in ``_rung_rows`` order, as views of ``block``."""
    k, c = rungs, categories
    shapes = [(k, c)] * 2 + [(k, c, c)] * 2
    slots, start = [], 0
    for _ in range(2):
        fields = []
        for shape in shapes:
            stop = start + int(np.prod(shape))
            fields.append(block[start:stop].reshape(shape))
            start = stop
        slots.append(tuple(fields))
    return slots


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def serve_shard(payload: bytes, cfg: dict, recv, send) -> None:
    """Serve one shard task: obtain the owned replicates, then answer
    replicate commands until told to stop.

    ``cfg["shard"]`` lists the task's replicates in order, the shard's
    undelivered ones for a replacement task; ``cfg["shards"]`` is the
    stride ``W``. Replicate ``r`` is the shard's ``r // W``-th, and its
    rows go straight into slot ``(r // W) % 2`` of the shard's reply
    block (``cfg["reply"]``, a :meth:`SharedArrayPool.allocate
    <repro.runtime.sharedmem.SharedArrayPool.allocate>` token), one
    rung at a time; the reply ``("rows", r)`` carries no array.

    The transport is injected — ``recv()`` returns the next parent
    command tuple, ``send(*parts)`` replies — because the shard does
    not own a process: it runs as one task thread of a persistent
    pool worker (:mod:`repro.runtime.pool`), which can multiplex
    several shard tasks over one connection. Exceptions propagate to the
    caller, which reports them under this task's id.

    When the parent enabled telemetry for the task (``cfg["telemetry"]``)
    the shard records sample/observe/rung spans into a task-local
    collector and ships the drained payload back on the parent's
    ``("telemetry",)`` command — the collector is a local, never
    ambient state, so concurrent tasks of one pool worker and
    fork-inherited parent recorders cannot cross-contaminate.
    """
    collector, ship = telemetry.worker_collector(cfg.get("telemetry"))
    task_label = cfg.get("label") or cfg.get("mode", "shard")
    shard_ids = [int(i) for i in (cfg.get("shard") or ())]
    stride, spec = cfg["shards"], cfg["spec"]
    task_start = telemetry.now_us() if collector is not None else 0
    if collector is not None and shard_ids:
        collector.name_thread(f"shard {shard_ids[0] % stride}")
    directives = set(map(tuple, cfg.get("faults") or ()))
    world = sharedmem.loads(payload)
    graph, partition = world["graph"], world["partition"]
    if cfg["mode"] == "predrawn":
        samples = world["samples"]
    else:
        streams = [np.random.default_rng(seed) for seed in cfg["seeds"]]
        with telemetry.span_in(
            collector, "sample", cat="worker",
            task=task_label, replicates=len(shard_ids), n=cfg["n"],
        ):
            samples = (
                sample_streams(world["sampler"], cfg["n"], streams).replicates()
                if streams
                else []
            )
        if ("kill", "sample") in directives:
            # Injected mid-sample death: SIGKILL after the kernel drew
            # the replicates but before the reply, so the parent sees
            # the sample phase unanswered, the work is lost, and the
            # replacement task must redraw from the original seeds.
            os.kill(os.getpid(), signal.SIGKILL)
    send("sampled")
    samples = dict(zip(shard_ids, samples))
    slots = _reply_slots(
        sharedmem.attach(cfg["reply"]), len(spec.sizes), len(partition.names)
    )
    while True:
        message = recv()
        command = message[0]
        if command == "stop":
            break
        if command == "telemetry":
            # Flush request: close the task span, ship what this task
            # recorded (None under the in-process channel, where the
            # collector IS the ambient recorder and nothing crosses a
            # process boundary).
            if collector is not None:
                collector.add_span(
                    f"task:{task_label}", "worker",
                    task_start, telemetry.now_us() - task_start,
                    {"replicates": len(shard_ids)},
                )
            send("telemetry", collector.drain() if ship else None)
            continue
        if command != "replicate":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unknown executor command {command!r}")
        r = message[1]
        position = r // stride
        if ("kill", position) in directives:
            # Injected mid-sweep death: SIGKILL before computing a row,
            # so the parent observes exactly what a segfault/OOM-kill
            # looks like — a clean EOF with the replicate unanswered.
            os.kill(os.getpid(), signal.SIGKILL)
        slot = slots[position % 2]
        rungs = _replicate_rows(
            graph, partition, samples.pop(r), spec, cfg["truth_sizes"],
            span=functools.partial(
                telemetry.span_in, collector, cat="worker",
                task=task_label, replicate=r,
            ),
        )
        for si, rows in enumerate(rungs):
            for field, row in zip(slot, rows):
                field[si] = row
        send("rows", r)


# ----------------------------------------------------------------------
# Failover machinery
# ----------------------------------------------------------------------
class _InProcessChannel:
    """Last-resort degradation: serve a shard on a thread of the parent.

    Presents the :class:`~repro.runtime.pool.TaskChannel` surface
    (``send``/``recv``/``close``/``condemn``/``process``) over a pair of
    queues feeding :func:`serve_shard` in a daemon thread, so the drive
    loop is transport-blind. Used when the pool cannot supply a single
    worker (fork unavailable, respawns exhausted): slower, but the
    sweep completes with identical bytes — the shard computes the same
    rows from the same seeds wherever it runs. Its cfg carries no fault
    directives and no heartbeat: there is no process to kill or time
    out, and an injected kill executed in-process would take the parent
    down with it.
    """

    process = None

    def __init__(self, payload: bytes, cfg: dict):
        self._commands: queue.SimpleQueue = queue.SimpleQueue()
        self._replies: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve, args=(payload, cfg), daemon=True
        )
        self._thread.start()

    def _serve(self, payload, cfg) -> None:
        try:
            serve_shard(payload, cfg, self._commands.get, self._reply)
        except BaseException:
            self._replies.put(("error", traceback.format_exc()))

    def _reply(self, *parts) -> None:
        self._replies.put(parts)

    def send(self, kind: str, *parts) -> None:
        self._commands.put((kind,) + parts)

    def recv(
        self,
        expected: str,
        index: "int | None" = None,
        timeout: "float | None" = None,
    ):
        # No timeout: an in-process shard cannot hang without the
        # parent being equally hung (they share the interpreter).
        return parse_reply(self._replies.get(), expected, index)

    def condemn(self) -> None:  # pragma: no cover - never hung
        pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._commands.put(("stop",))
        self._thread.join(timeout=30)


class _ShardRun:
    """Parent-side failover state of one shard's task.

    ``shard`` lists all the shard's replicates and ``replicates`` the
    undelivered ones, in order; ``task(replicates)`` builds the payload
    and cfg of a task serving them, so a replacement task is opened for
    exactly those. ``sampled`` says whether the parent has collected
    the shard's ``sampled`` reply, and ``pending`` is the one queued
    command — the next replicate, sent before the collected rows are
    folded — that a replacement must be sent again.
    """

    __slots__ = (
        "slot",
        "shard",
        "replicates",
        "task",
        "channel",
        "retries",
        "pending",
        "sampled",
        "phase",
    )

    def __init__(self, slot: int, shard, task):
        self.slot = slot
        self.shard = tuple(int(i) for i in shard)
        self.replicates = collections.deque(self.shard)
        self.task = task
        self.channel = None
        self.retries: list[dict] = []
        self.pending: "tuple | None" = None
        self.sampled = False
        self.phase = "open"


class _FailoverDriver:
    """Drives a sweep's shard tasks with retry, failover, degradation.

    Owns the leased worker handles and every :class:`_ShardRun`; the
    executor's replicate loop talks to shards exclusively through
    :meth:`command`/:meth:`collect`, and any :class:`WorkerDied` (death
    or heartbeat timeout) surfacing there is converted into a bounded
    recovery: condemn if wedged, re-lease (respawning best-effort),
    open a task for the shard's undelivered replicates, and re-send the
    in-flight command. ``max_retries``
    failed attempts for one shard raise a structured
    :class:`~repro.runtime.pool.WorkerFailure`. Deterministic task
    errors (``"error"`` replies) are *not* retried — they would fail
    identically every time.

    Degradation is monotonic and warned once per step: full worker
    count -> fewer workers (shards multiplex over the survivors) ->
    zero workers (every shard served by an in-process thread).
    """

    def __init__(self, pool, num_workers, max_retries, task_timeout):
        self.pool = pool
        self.num_workers = num_workers
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.handles: list = []
        self.runs: list[_ShardRun] = []
        self.failover_log: list[dict] = []
        self._warned_fewer = False
        self._warned_serial = False
        self._lease(initial=True)

    # ------------------------------------------------------------------
    def _warn(self, message: str) -> None:
        # warnings.warn is the API contract (tests assert on it); the
        # logger and the trace marker are observability side channels.
        _LOG.warning(message)
        telemetry.instant("degrade", cat="failover", message=message)
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    def _lease(self, initial: bool = False) -> None:
        """(Re-)lease live workers, degrading the target on failure."""
        try:
            self.handles = self.pool.lease_upto(self.num_workers)
        except (WorkerSpawnError, OSError) as error:
            self.handles = []
            if not self._warned_serial:
                self._warned_serial = True
                self._warn(
                    "worker pool unavailable "
                    f"({error}); degrading to in-process serial execution"
                )
            return
        if len(self.handles) < self.num_workers and not self._warned_fewer:
            self._warned_fewer = True
            self._warn(
                f"worker pool sustained only {len(self.handles)} of "
                f"{self.num_workers} requested workers; multiplexing "
                "shards over the survivors"
            )

    def _heartbeat_interval(self) -> "float | None":
        if self.task_timeout is None:
            return None
        return max(min(1.0, self.task_timeout / 4.0), 0.05)

    # ------------------------------------------------------------------
    def open(self, run: _ShardRun) -> None:
        """Open ``run``'s task on its worker (or in-process)."""
        self.runs.append(run)
        directives = (
            faults.take_worker_directives(run.slot) if self.handles else ()
        )
        self._open(run, directives)

    def _open(self, run: _ShardRun, directives=()) -> None:
        payload, cfg = run.task(list(run.replicates))
        while True:
            if not self.handles:
                run.channel = _InProcessChannel(payload, cfg)
                return
            extras = {}
            if directives:
                extras["faults"] = directives
            interval = self._heartbeat_interval()
            if interval is not None:
                extras["heartbeat"] = interval
            handle = self._placement(run)
            try:
                run.channel = self.pool.open_task(
                    handle, payload, dict(cfg, **extras)
                )
                return
            except WorkerDied:
                # Died between lease and open: refresh and retry; the
                # open itself dispatched no work, so this does not
                # consume the shard's retry budget.
                directives = ()
                self._lease()

    def _placement(self, run: _ShardRun):
        """The first leased handle hosting no other open run, else (every
        handle busy: the degraded, multiplexed case) ``slot % len``.

        A lease lists the surviving workers first and a respawned one
        last, so a replacement placed by slot alone could land on a
        live shard's worker while the fresh worker idled.
        """
        busy = {
            other.channel.process
            for other in self.runs
            if other is not run and other.channel is not None
        }
        for handle in self.handles:
            if handle.process not in busy:
                return handle
        return self.handles[run.slot % len(self.handles)]

    # ------------------------------------------------------------------
    def command(self, run: _ShardRun, *message) -> None:
        """Queue one command on ``run``'s task, recovering from a dead
        worker."""
        run.pending = message
        run.phase = " ".join(["send", *map(str, message)])
        try:
            run.channel.send(*message)
        except WorkerDied as failure:
            # Recovery re-sends the pending command itself; nothing
            # further to do here.
            self._recover(run, failure)

    def collect(self, run: _ShardRun, expected: str, index: "int | None" = None):
        """Receive one expected reply, recovering from death/timeouts."""
        run.phase = (
            expected if index is None else f"{expected} (replicate {index})"
        )
        while True:
            try:
                value = run.channel.recv(
                    expected, index, timeout=self.task_timeout
                )
            except WorkerDied as failure:
                self._recover(run, failure)
                continue
            if expected == "sampled":
                run.sampled = True
            elif expected == "rows":
                run.replicates.popleft()
            run.pending = None
            return value

    # ------------------------------------------------------------------
    def _recover(self, run: _ShardRun, failure: WorkerDied) -> None:
        """One recovery round: record, bound, condemn, re-open, re-send."""
        pid = getattr(failure, "pid", None)
        if pid is None and run.channel is not None and run.channel.process:
            pid = run.channel.process.pid
        entry = {
            "pid": pid,
            "exitcode": getattr(failure, "exitcode", None),
            "phase": run.phase,
            "reason": str(failure),
            "spill": read_spill(pid),
            "timeout": isinstance(failure, WorkerHang),
        }
        run.retries.append(entry)
        self.failover_log.append(dict(entry, slot=run.slot))
        # Recorded at recovery time, so the event reaches the telemetry
        # summary on every path alike — fresh sweeps, pre-drawn sweeps,
        # and plan cells — instead of only where a caller thinks to
        # read executor.failover_log.
        _LOG.warning(
            "shard %d failover: %s (pid=%s, phase=%s, attempt %d/%d)",
            run.slot, entry["reason"], pid, run.phase,
            len(run.retries), self.max_retries + 1,
        )
        telemetry.instant(
            "failover", cat="failover",
            slot=run.slot, pid=pid, exitcode=entry["exitcode"],
            phase=run.phase, timeout=entry["timeout"],
            attempt=len(run.retries),
        )
        telemetry.counter("failover.recoveries", 1)
        if len(run.retries) > self.max_retries:
            raise WorkerFailure(run.slot, run.shard, run.retries) from failure
        if run.channel is not None:
            if isinstance(failure, WorkerHang):
                # The worker may still be running (wedged): make sure it
                # is gone before a lease could hand it out again.
                run.channel.condemn()
            run.channel.close()
            run.channel = None
        self._lease()
        # Replacement attempts draw fresh directives from the fault
        # plan: budgets decrement at issue time, so an armed
        # ``times=N`` fault strikes at most N attempts (replacements
        # included — how the exhaustion tests drain a retry budget)
        # and recovery provably converges once the budget runs dry.
        self._open(
            run,
            faults.take_worker_directives(run.slot) if self.handles else (),
        )
        try:
            if run.sampled:
                # Already collected from the lost task; the replacement
                # sends its own first.
                run.channel.recv("sampled", timeout=self.task_timeout)
            if run.pending is not None:
                run.channel.send(*run.pending)
        except WorkerDied as next_failure:
            self._recover(run, next_failure)

    # ------------------------------------------------------------------
    def close_all(self) -> None:
        for run in self.runs:
            if run.channel is not None:
                run.channel.close()


class ProcessSweepExecutor:
    """Shared-memory multi-process sweep executor.

    Sweeps run on the process-wide **persistent** worker pool
    (:mod:`repro.runtime.pool`), so back-to-back sweeps — the cells of
    one plan, or repeated ``repro run --workers N`` sweeps in a
    session — reuse live workers instead of paying spawn cost per
    sweep.

    Parameters
    ----------
    workers:
        Shard count (default: CPU count). Clamped to the replication
        count; the shard assignment never influences results, only
        wall-clock.
    mp_context:
        A ``multiprocessing`` context; defaults to ``fork`` where
        available (workers then inherit the parent's imports) and
        ``spawn`` elsewhere. Selects which default pool serves the
        sweep.
    max_retries:
        Failed attempts tolerated per shard beyond the first before a
        structured :class:`~repro.runtime.pool.WorkerFailure` surfaces.
        ``None`` defers to the ambient configuration
        (``REPRO_MAX_RETRIES``; default 2).
    task_timeout:
        Heartbeat deadline in seconds distinguishing a stuck task from
        a slow one (stuck tasks escalate through the retry path).
        ``None`` defers to the ambient configuration
        (``REPRO_TASK_TIMEOUT``; default: no timeout).
    label:
        Display label for telemetry spans (``run_plan`` passes each
        cell's key, so worker task spans read ``task:RW09``).
        Never touches results.

    Attributes
    ----------
    failover_log:
        One dict per recovery event of the most recent run (shard
        slot, pid, exitcode, phase, reason, spill, timeout flag) —
        empty after an undisturbed run. Diagnostics only; the result
        arrays are byte-identical either way.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        mp_context=None,
        max_retries: int | None = None,
        task_timeout: float | None = None,
        label: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers) if workers is not None else default_workers()
        self.label = label
        self._mp_context = mp_context
        self.failover_log: list[dict] = []
        ambient = active_options()
        if max_retries is None:
            max_retries = ambient.max_retries
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else int(max_retries)
        )
        if self.max_retries < 0:
            raise EstimationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if task_timeout is None:
            task_timeout = ambient.task_timeout
        self.task_timeout = (
            float(task_timeout)
            if task_timeout is not None and float(task_timeout) > 0
            else None
        )

    # ------------------------------------------------------------------
    def run(
        self,
        graph,
        partition,
        sampler: Sampler,
        spec: SweepSpec,
        replications: int,
        rng,
    ) -> SweepResult:
        """Run one sweep; same contract as the serial ``run_nrmse_sweep``.

        ``spec`` and ``replications`` arrive validated by
        :func:`~repro.stats.replication.run_nrmse_sweep`.
        """
        n = int(spec.sizes[-1])
        seeds = spawn_seeds(ensure_rng(rng), replications)

        def make_cfg(replicates):
            return {
                "mode": "fresh",
                "seeds": [seeds[i] for i in replicates],
                "n": n,
            }

        return self._drive(
            graph,
            partition,
            spec,
            replications,
            make_payload=lambda replicates: {"sampler": sampler},
            make_cfg=make_cfg,
        )

    # ------------------------------------------------------------------
    def run_from_samples(
        self,
        graph,
        partition,
        samples,
        spec: SweepSpec,
    ) -> SweepResult:
        """Run one pre-drawn sweep; same contract as the serial
        ``run_nrmse_sweep_from_samples``.

        The sampling phase is moot — the replicate samples (simulated
        crawls, recorded walks) already exist — so the executor ships
        them to the workers through shared memory and shards only the
        ladder/estimation phase. Rows are folded in replicate order by
        the serial reducer, so the result is bit-identical to the
        serial path for any worker count.
        ``spec`` and ``samples`` arrive validated by
        :func:`~repro.stats.replication.run_nrmse_sweep_from_samples`.
        """
        samples = list(samples)
        return self._drive(
            graph,
            partition,
            spec,
            len(samples),
            make_payload=lambda replicates: {
                "samples": [samples[i] for i in replicates]
            },
            make_cfg=lambda replicates: {"mode": "predrawn"},
        )

    # ------------------------------------------------------------------
    def _drive(
        self,
        graph,
        partition,
        spec: SweepSpec,
        replications: int,
        *,
        make_payload,
        make_cfg,
    ) -> SweepResult:
        """Open the strided shard tasks and drive the replicate loop
        (both modes).

        The shards' reply blocks live in the run-local pool, so they are
        unlinked, and retired on the workers, with the cell's other
        blocks.
        """
        sweep_label = self.label or "sweep"
        truth = true_category_graph(graph, partition)
        reducer = RungReducer(spec.sizes, truth, spec.truth_mode, replications)
        # Built before pickling, so the planes ride every shard's
        # payload and no worker rebuilds them.
        with telemetry.span("observe.planes", cat="driver", task=sweep_label):
            observation_planes(graph, partition)
        num_workers = min(self.workers, replications)
        # Rows the reduction keeps past their fold: the cross-sample
        # pseudo-truth holds every replicate's until the last rung.
        copy_rows = spec.truth_mode == "cross-sample"
        rungs, categories = len(spec.sizes), len(partition.names)
        worker_pool = default_pool(self._mp_context)

        # Inside a plan run the ambient pool already holds the plan's
        # named resources (pre-published once per build by run_plan), so
        # arrays shared between cells — the Facebook world's graph and
        # crawl samples behind every fig6 cell, a fig4 dataset stand-in
        # behind its three design cells — resolve to existing tokens and
        # cross the process boundary once for the whole plan. Everything
        # else (cell-local graphs and samplers, the reply blocks)
        # publishes through a run-local pool whose blocks are unlinked —
        # and *retired* from the persistent workers — as soon as this
        # run's tasks have closed, so plan-wide shared-memory footprint
        # stays at the resources plus the cell currently running.
        ambient = sharedmem.active_pool()
        with faults.env_scope(), sharedmem.SharedArrayPool() as local_pool:
            publish_pool = (
                sharedmem.PoolChain(ambient, local_pool)
                if ambient is not None
                else local_pool
            )
            driver = _FailoverDriver(
                worker_pool, num_workers, self.max_retries, self.task_timeout
            )
            self.failover_log = driver.failover_log
            recorder = telemetry.recorder()
            # The driver's views of each shard's reply slots, in shard order.
            replies = []
            try:
                with telemetry.span(
                    "dispatch", cat="driver", task=sweep_label,
                    shards=num_workers, replications=replications,
                ):
                    for slot in range(num_workers):
                        reply = local_pool.allocate(
                            (_reply_words(rungs, categories),)
                        )
                        replies.append(
                            _reply_slots(
                                sharedmem.attach(reply), rungs, categories
                            )
                        )
                        cfg = {
                            "spec": spec,
                            "truth_sizes": truth.sizes,
                            "reply": reply,
                            "shards": num_workers,
                        }
                        if recorder is not None:
                            cfg["telemetry"] = True
                            cfg["label"] = sweep_label

                        def task(replicates, cfg=cfg):
                            # One payload per task, sliced to what that
                            # worker reads; large arrays still publish
                            # exactly once (the pool deduplicates by
                            # identity across shards, and the ambient
                            # pool across a plan's cells).
                            payload = sharedmem.dumps(
                                {
                                    "graph": graph,
                                    "partition": partition,
                                    **make_payload(replicates),
                                },
                                publish_pool,
                            )
                            return payload, dict(
                                cfg, shard=replicates, **make_cfg(replicates)
                            )

                        driver.open(
                            _ShardRun(
                                slot,
                                range(slot, replications, num_workers),
                                task,
                            )
                        )

                runs = driver.runs
                with telemetry.span(
                    "phase.sample", cat="driver", task=sweep_label
                ):
                    for run in runs:
                        driver.collect(run, "sampled")
                for run in runs:
                    driver.command(run, "replicate", run.slot)
                for r in range(replications):
                    run = runs[r % num_workers]
                    with telemetry.span(
                        "replicate", cat="driver", task=sweep_label,
                        replicate=r,
                    ):
                        driver.collect(run, "rows", r)
                        if r + num_workers < replications:
                            driver.command(run, "replicate", r + num_workers)
                        _fold_replicate(
                            reducer,
                            replies[run.slot][(r // num_workers) % 2],
                            copy_rows,
                        )
                for si in range(rungs):
                    reducer.close(si)
                if recorder is not None:
                    # Flush each task's recorded events back over the
                    # reply channel (best-effort diagnostics: a shard
                    # that died kept its history; its replacement ships
                    # what it recorded).
                    for run in runs:
                        driver.command(run, "telemetry")
                    for run in runs:
                        recorder.merge_remote(driver.collect(run, "telemetry"))
            finally:
                # Dropped first, so the release below finds no view of
                # the driver's own left on the reply blocks.
                replies.clear()
                driver.close_all()
                # Closing is ordered before retirement on each worker's
                # connection, so by the time a worker releases these
                # blocks its tasks (and their array views) are gone.
                worker_pool.retire(driver.handles, local_pool.block_names)
                # The reply slots, and in-process fallback shards,
                # attach blocks in *this* process; drop those cached
                # views before the pool unlinks the files.
                sharedmem.release(local_pool.block_names)

        return reducer.result()


def _fold_replicate(reducer: RungReducer, slot, copy: bool) -> None:
    """Fold one replicate's rows, rung by rung, from its reply slot —
    the serial sweep's fold sequence. ``copy`` copies rows the reducer
    holds past their fold out of the slot, which the shard rewrites.

    A function of its own, so no local of the driver's frame is left
    holding a slot view.
    """
    for si in range(len(slot[0])):
        rows = [field[si][np.newaxis] for field in slot]
        reducer.fold(si, [row.copy() for row in rows] if copy else rows)
