"""Process-parallel sweep executor (see :mod:`repro.runtime`).

The executor turns one replicated NRMSE sweep into ``W`` shard jobs:
worker ``w`` owns a contiguous block of replicate indices, obtains its
replicates — reconstructing each RNG stream from its spawned seed and
advancing the block through the batched frontier kernels
(:mod:`repro.sampling.batch`), or slicing its block out of *pre-drawn*
samples (simulated crawls) published through shared memory — and steps
a per-replicate prefix ladder rung by rung under parent control. The
parent folds each shard's rung rows, in replicate order, into the
serial path's :class:`~repro.stats.replication.RungReducer` as they
arrive, never holding ``(R, K, C[, C])`` stacks or even a joined rung,
which is why the output is bit-identical to the serial engine for any
worker count, for fresh-draw (:meth:`ProcessSweepExecutor.run`) and
pre-drawn (:meth:`ProcessSweepExecutor.run_from_samples`) sweeps alike.

Parent/worker protocol (one duplex pipe per worker)::

    worker -> ("sampled", nodes|None, weights|None)   after sampling
    worker -> ("observed", fields|None)               after the ladder
                                                      build (fields only
                                                      when the parent
                                                      asked to persist
                                                      observations)
    parent -> ("rung", si, size)                      compute rung si
    worker -> ("rows", si, (4 shard row arrays))
    parent -> ("skip", si, size)                      rung restored from
    worker -> ("skipped", si)                         a checkpoint; fold
                                                      state forward only
    parent -> ("stop",)                               shut down
    worker -> ("error", traceback)                    any time, fatal
    worker -> ("heartbeat",)                          liveness pulse
                                                      (only when a task
                                                      timeout is set);
                                                      never a reply —
                                                      recv skips it
    parent -> ("telemetry", -1, 0)                    flush telemetry
    worker -> ("telemetry", -1, payload|None)         drained span/counter
                                                      payload (only when
                                                      the parent enabled
                                                      telemetry for the
                                                      task; see
                                                      :mod:`repro.runtime.telemetry`)

A dead or hung worker is *not* fatal: the drive loop runs every shard
through a :class:`_FailoverDriver`, which re-dispatches a lost shard
onto a replacement worker (same payload, same seeds — the determinism
contract makes the replacement's rows byte-identical), bounded by
``max_retries`` before a structured
:class:`~repro.runtime.pool.WorkerFailure` surfaces.

Each shard holds exactly one queued rung command. As soon as the
parent collects a shard's reply to rung ``si`` it sends that shard's
rung ``si + 1`` (or its ``skip``), and only then folds the rows, so the
worker computes the next rung while the parent reduces this one. One
command in flight per shard is also all the failover replay has to
re-send.

Rung-by-rung control is what makes checkpoint/resume work: after every
gathered rung the parent persists that rung's rows, so a later run with
the same manifest replays finished rungs from disk (workers only fold
their multiplicity state forward — exact, integer arithmetic) and
resumes computing at the first missing rung. The ``observed`` phase
additionally persists each replicate's compressed ``observe_both``
measurement, so a resumed run seeds its ladders straight from disk
instead of re-running the per-replicate observation pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import queue
import signal
import threading
import traceback
import warnings
from io import BytesIO
from pathlib import Path

import numpy as np

from repro.exceptions import EstimationError
from repro.graph.adjacency import Graph
from repro.graph.category_graph import true_category_graph
from repro.graph.partition import CategoryPartition
from repro.graph.union import UnionCSR
from repro.log import get_logger
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import faults, sharedmem, telemetry
from repro.runtime.checkpoint import SweepCheckpoint, read_rung, read_truth
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
from repro.sampling.base import NodeSample, Sampler
from repro.sampling.batch import sample_streams
from repro.sampling.observation import (
    InducedObservation,
    StarObservation,
    observation_planes,
)
from repro.stats.prefix import IncrementalPrefixLadder
from repro.stats.replication import (
    RungReducer,
    SweepResult,
    SweepSpec,
    _rung_rows,
)

__all__ = ["ProcessSweepExecutor", "replay_sweep", "serve_shard"]

_LOG = get_logger(__name__)


# ----------------------------------------------------------------------
# Sweep fingerprinting (manifest keys for checkpoints)
# ----------------------------------------------------------------------
def _array_digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class _FingerprintPickler(pickle.Pickler):
    """Canonicalizing pickler for sampler fingerprints.

    Lazily-computed caches (``Graph._arc_sources``, a partition's
    neighbor histogram) make naive ``pickle.dumps`` bytes depend on what
    was *called* before fingerprinting, not on what the sampler *is*. This
    pickler replaces graphs, partitions, and raw arrays with content
    digests, so equal samplers always fingerprint equally and a resumed
    run finds its checkpoint.
    """

    def persistent_id(self, obj):
        if isinstance(obj, Graph):
            return ("graph", _array_digest(obj.indptr, obj.indices))
        if isinstance(obj, CategoryPartition):
            return ("partition", _array_digest(obj.labels), tuple(obj.names))
        if isinstance(obj, UnionCSR):
            return (
                "union",
                tuple(_array_digest(g.indptr, g.indices) for g in obj.graphs),
            )
        if type(obj) is np.ndarray and obj.dtype != object:
            return ("array", _array_digest(obj), obj.dtype.str, obj.shape)
        return None


def _sampler_fingerprint(sampler: Sampler) -> str:
    buffer = BytesIO()
    _FingerprintPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(sampler)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


# ----------------------------------------------------------------------
# Observation round trips (checkpointed ladder state)
# ----------------------------------------------------------------------
def _observation_fields(
    induced: InducedObservation, star: StarObservation
) -> dict:
    """The npz-serializable field dict of one replicate's observations.

    Inverse of :func:`_observations_restore`; the field list is pinned
    by :data:`repro.runtime.checkpoint.OBSERVATION_FIELDS`.
    """
    return {
        "draw_to_distinct": star.draw_to_distinct,
        "distinct_nodes": star.distinct_nodes,
        "distinct_categories": star.distinct_categories,
        "distinct_multiplicities": star.distinct_multiplicities,
        "distinct_weights": star.distinct_weights,
        "induced_edges": induced.induced_edges,
        "distinct_degrees": star.distinct_degrees,
        "neighbor_indptr": star.neighbor_indptr,
        "neighbor_categories": star.neighbor_categories,
        "neighbor_counts": star.neighbor_counts,
        "design": np.asarray(star.design),
        "uniform": np.asarray(star.uniform),
        "num_draws": np.asarray(star.num_draws, dtype=np.int64),
    }


def _observations_restore(
    names: tuple, fields: dict
) -> tuple[InducedObservation, StarObservation]:
    """Rebuild one replicate's ``observe_both`` pair from stored fields.

    Arrays round-trip through npz exactly, so the rebuilt pair is
    field-for-field identical to the one ``observe_both`` computed —
    which is what keeps resumed ladders bit-identical to fresh ones.
    """
    base = {
        "names": names,
        "num_draws": int(fields["num_draws"]),
        "draw_to_distinct": fields["draw_to_distinct"],
        "distinct_nodes": fields["distinct_nodes"],
        "distinct_categories": fields["distinct_categories"],
        "distinct_multiplicities": fields["distinct_multiplicities"],
        "distinct_weights": fields["distinct_weights"],
        "uniform": bool(fields["uniform"]),
        "design": str(fields["design"]),
    }
    induced = InducedObservation(induced_edges=fields["induced_edges"], **base)
    star = StarObservation(
        distinct_degrees=fields["distinct_degrees"],
        neighbor_indptr=fields["neighbor_indptr"],
        neighbor_categories=fields["neighbor_categories"],
        neighbor_counts=fields["neighbor_counts"],
        **base,
    )
    return induced, star


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def serve_shard(payload: bytes, cfg: dict, recv, send) -> None:
    """Serve one shard task: obtain the owned replicates, then answer
    rung commands until told to stop.

    The transport is injected — ``recv()`` returns the next parent
    command tuple, ``send(*parts)`` replies — because the shard no
    longer owns a process: it runs as one task thread of a persistent
    pool worker (:mod:`repro.runtime.pool`), which multiplexes several
    tasks (cells) over one connection. Exceptions propagate to the
    caller, which reports them under this task's id.

    When the parent enabled telemetry for the task (``cfg["telemetry"]``)
    the shard records sample/observe/rung spans into a task-local
    collector and ships the drained payload back on the parent's
    ``("telemetry", ...)`` command — the collector is a local, never
    ambient state, so concurrent tasks of one pool worker and
    fork-inherited parent recorders cannot cross-contaminate.
    """
    collector, ship = telemetry.worker_collector(cfg.get("telemetry"))
    task_label = cfg.get("label") or cfg.get("mode", "shard")
    shard_ids = [int(i) for i in (cfg.get("shard") or ())]
    task_start = telemetry.now_us() if collector is not None else 0
    if collector is not None and shard_ids:
        collector.name_thread(
            f"shard r{shard_ids[0]}-r{shard_ids[-1]}"
        )
    world = sharedmem.loads(payload)
    graph, partition = world["graph"], world["partition"]
    if cfg["mode"] == "predrawn":
        if world["samples"] is not None:
            samples = world["samples"]
        else:
            # Observation-seeded resume: the restored pairs carry
            # everything the ladders need, samples were not shipped.
            samples = [None] * len(cfg["shard"])
        send("sampled", None, None)
    elif cfg["samples"] is not None:
        sampler = world["sampler"]
        nodes, weights = cfg["samples"]
        samples = [
            NodeSample(
                nodes[i],
                weights[i],
                design=sampler.design,
                uniform=sampler.uniform,
            )
            for i in range(len(cfg["seeds"]))
        ]
        send("sampled", None, None)
    elif world.get("observations") is not None:
        # Checkpoint-restored observations carry everything the
        # ladders need; re-walking the replicates would be wasted.
        samples = [None] * len(cfg["shard"])
        send("sampled", None, None)
    else:
        sampler = world["sampler"]
        streams = [np.random.default_rng(seed) for seed in cfg["seeds"]]
        with telemetry.span_in(
            collector, "sample", cat="worker",
            task=task_label, replicates=len(shard_ids), n=cfg["n"],
        ):
            batch = sample_streams(sampler, cfg["n"], streams)
            samples = batch.replicates()
        if ("kill", "sample") in {
            tuple(d) for d in (cfg.get("faults") or ())
        }:
            # Injected mid-sample death: SIGKILL after the kernel drew
            # the replicates but before the reply, so the parent sees
            # the sample phase unanswered, the work is lost, and the
            # replacement task must redraw from the original seeds.
            os.kill(os.getpid(), signal.SIGKILL)
        if cfg["want_samples"]:
            send("sampled", batch.nodes, batch.weights)
        else:
            send("sampled", None, None)
    restored = world.get("observations")
    names = tuple(partition.names)
    spec = cfg["spec"]
    with telemetry.span_in(
        collector, "observe", cat="worker",
        task=task_label, replicates=len(samples),
        restored=restored is not None,
    ):
        ladders = [
            IncrementalPrefixLadder(
                graph,
                partition,
                sample,
                observations=(
                    None
                    if restored is None
                    else _observations_restore(names, restored[local])
                ),
            )
            for local, sample in enumerate(samples)
        ]
    if cfg["want_observations"]:
        send(
            "observed",
            [_observation_fields(*ladder.observations) for ladder in ladders],
        )
    else:
        send("observed", None)
    truth_sizes = cfg["truth_sizes"]
    kill_rungs = {
        directive[1]
        for directive in map(tuple, cfg.get("faults") or ())
        if directive and directive[0] == "kill"
    }
    while True:
        message = recv()
        command = message[0]
        if command == "stop":
            break
        si, size = message[1], message[2]
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
            send("telemetry", si, collector.drain() if ship else None)
            continue
        if command == "rung" and si in kill_rungs:
            # Injected mid-rung death: SIGKILL before computing a row,
            # so the parent observes exactly what a segfault/OOM-kill
            # looks like — a clean EOF with the rung unanswered.
            os.kill(os.getpid(), signal.SIGKILL)
        if command == "skip":
            with telemetry.span_in(
                collector, "skip", cat="worker",
                task=task_label, rung=si, size=size,
            ):
                for ladder in ladders:
                    ladder.fold(size)
            send("skipped", si)
        elif command == "rung":
            with telemetry.span_in(
                collector, "rung", cat="worker",
                task=task_label, rung=si, size=size,
            ):
                rows = [
                    _rung_rows(
                        ladder.estimates(
                            size,
                            cfg["n_pop"],
                            mean_degree_model=spec.mean_degree_model,
                        ),
                        spec.weight_size_plugin,
                        truth_sizes,
                    )
                    for ladder in ladders
                ]
            send(
                "rows",
                si,
                tuple(
                    np.stack([r[field] for r in rows]) for field in range(4)
                ),
            )
        else:  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unknown executor command {command!r}")


# ----------------------------------------------------------------------
# Substrate-free replay of fully rung-cached sweeps
# ----------------------------------------------------------------------
def replay_sweep(cell_root: "str | os.PathLike", sweep_key: str) -> "SweepResult | None":
    """Rebuild a fully rung-cached sweep's result straight from disk.

    ``cell_root`` is a cell's sweep-checkpoint root and ``sweep_key``
    the manifest key the plan checkpoint recorded for it
    (:meth:`repro.runtime.checkpoint.PlanCheckpoint.record_cell`). When
    the manifest, the persisted truth arrays, and every rung file are
    present, the rung files are fed to the same ``RungReducer`` an
    uninterrupted run streams its rungs into — bit-identical, because
    every input array round-trips npz exactly. Returns ``None`` on any
    gap; the caller then falls back to building the cell's substrate
    and running it normally (which re-fingerprints and re-validates the
    checkpoint the usual way).

    This is what lets a resumed plan skip reconstructing a completed
    cell's substrate entirely — at paper scale, a world rebuild per
    resume. The flip side is a deliberate trust boundary: without the
    substrate there is nothing to re-fingerprint, so the replay trusts
    the recorded key under its matching plan manifest (experiment id,
    cell grid, scale, seed). Drift those inputs cannot express —
    generator *code* edited between runs — is only caught on the
    build path; see the contract in :mod:`repro.runtime`.
    """
    directory = Path(cell_root) / f"sweep-{sweep_key}"
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    sizes = np.asarray(manifest.get("sizes", ()), dtype=np.int64)
    replications = int(manifest.get("replications", 0))
    categories = manifest.get("categories")
    if sizes.size == 0 or replications < 1 or not categories:
        return None
    truth = read_truth(directory, tuple(categories))
    if truth is None:
        return None
    truth_mode = str(manifest.get("truth_mode", "exact"))
    reducer = RungReducer(sizes, truth, truth_mode, replications)
    for si, size in enumerate(sizes):
        rows = read_rung(directory / f"rung_{si:03d}.npz", int(size))
        if rows is None or rows[0].shape != (replications, len(categories)):
            return None
        reducer.add(si, rows)
    return reducer.result()


# ----------------------------------------------------------------------
# Failover machinery
# ----------------------------------------------------------------------
class _InProcessChannel:
    """Last-rung degradation: serve a shard on a thread of the parent.

    Presents the :class:`~repro.runtime.pool.TaskChannel` surface
    (``send``/``recv``/``close``/``condemn``/``process``) over a pair of
    queues feeding :func:`serve_shard` in a daemon thread, so the drive
    loop is transport-blind. Used when the pool cannot supply a single
    worker (fork unavailable, respawns exhausted): slower, but the
    sweep completes with identical bytes — the shard computes the same
    rows from the same seeds wherever it runs. Fault directives and
    heartbeats are stripped from the cfg: there is no process to kill
    or time out, and an injected kill executed in-process would take
    the parent down with it.
    """

    process = None

    def __init__(self, payload: bytes, cfg: dict):
        cfg = {
            key: value
            for key, value in cfg.items()
            if key not in ("faults", "heartbeat")
        }
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
        rung_index: "int | None" = None,
        timeout: "float | None" = None,
    ):
        # No timeout: an in-process shard cannot hang without the
        # parent being equally hung (they share the interpreter).
        return parse_reply(self._replies.get(), expected, rung_index)

    def condemn(self) -> None:  # pragma: no cover - never hung
        pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._commands.put(("stop",))
        self._thread.join(timeout=30)


#: "No phase reply stored yet" marker (``None`` is a legitimate value:
#: a shard that sampled nothing persistable replies ``(None, None)``).
_UNSET = object()


class _ShardRun:
    """Parent-side failover state of one shard's task.

    Everything needed to re-dispatch the shard from scratch on a
    replacement worker: the immutable payload/cfg (re-seeding is
    implicit — seeds live in the cfg, streams are rebuilt from them),
    the rungs whose replies the parent has collected (``progress``,
    appended per shard on collection and replayed as exact ``skip``
    folds), and the one queued command — the next rung, sent before
    the collected rows are folded — that was in flight when the worker
    died (re-sent after the replay catches up).
    """

    __slots__ = (
        "slot",
        "shard",
        "payload",
        "cfg",
        "channel",
        "retries",
        "progress",
        "pending",
        "sampled",
        "observed",
        "phase",
    )

    def __init__(self, slot: int, shard, payload: bytes, cfg: dict):
        self.slot = slot
        self.shard = shard
        self.payload = payload
        self.cfg = cfg
        self.channel = None
        self.retries: list[dict] = []
        self.progress: list[tuple[int, int]] = []
        self.pending: "tuple | None" = None
        self.sampled = _UNSET
        self.observed = _UNSET
        self.phase = "open"


class _FailoverDriver:
    """Drives a sweep's shard tasks with retry, failover, degradation.

    Owns the leased worker handles and every :class:`_ShardRun`; the
    executor's rung loop talks to shards exclusively through
    :meth:`command`/:meth:`collect`, and any :class:`WorkerDied` (death
    or heartbeat timeout) surfacing there is converted into a bounded
    recovery: condemn if wedged, re-lease (respawning best-effort),
    reopen the shard's task with its original payload/cfg minus fault
    directives, replay its completed rungs as exact integer folds, and
    re-send the in-flight command. ``max_retries`` failed attempts for
    one shard raise a structured
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
        while True:
            if not self.handles:
                run.channel = _InProcessChannel(run.payload, run.cfg)
                return
            cfg = run.cfg
            extras = {}
            if directives:
                extras["faults"] = directives
            interval = self._heartbeat_interval()
            if interval is not None:
                extras["heartbeat"] = interval
            if extras:
                cfg = dict(cfg, **extras)
            handle = self.handles[run.slot % len(self.handles)]
            try:
                run.channel = self.pool.open_task(handle, run.payload, cfg)
                return
            except WorkerDied:
                # Died between lease and open: refresh and retry; the
                # open itself dispatched no work, so this does not
                # consume the shard's retry budget.
                directives = ()
                self._lease()

    # ------------------------------------------------------------------
    def command(self, run: _ShardRun, kind: str, si: int, size: int) -> None:
        """Send a rung-loop command, recovering from a dead worker."""
        run.pending = (kind, si, size)
        run.phase = f"send {kind} (rung {si})"
        try:
            run.channel.send(kind, si, size)
        except WorkerDied as failure:
            # Recovery replays the shard and re-sends the pending
            # command itself; nothing further to do here.
            self._recover(run, failure)

    def collect(self, run: _ShardRun, expected: str, si: "int | None" = None):
        """Receive one expected reply, recovering from death/timeouts."""
        run.phase = expected if si is None else f"{expected} (rung {si})"
        while True:
            # A recovery replay may already have collected this phase's
            # reply from the replacement task (same bytes, by the
            # determinism contract) — never recv it twice.
            if expected == "sampled" and run.sampled is not _UNSET:
                run.pending = None
                return run.sampled
            if expected == "observed" and run.observed is not _UNSET:
                run.pending = None
                return run.observed
            try:
                value = run.channel.recv(
                    expected, si, timeout=self.task_timeout
                )
            except WorkerDied as failure:
                self._recover(run, failure)
                continue
            if expected == "sampled":
                run.sampled = value
            elif expected == "observed":
                run.observed = value
            run.pending = None
            return value

    # ------------------------------------------------------------------
    def _recover(self, run: _ShardRun, failure: WorkerDied) -> None:
        """One recovery round: record, bound, condemn, re-open, replay."""
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
            self._replay(run)
        except WorkerDied as next_failure:
            self._recover(run, next_failure)

    def _replay(self, run: _ShardRun) -> None:
        """Fast-forward a freshly opened replacement task.

        Deterministic by the runtime contract: the replacement samples
        the same replicates from the same seeds (or re-restores the
        same checkpointed observations), rebuilds identical ladders,
        and ``skip``-folds past every rung the parent already holds —
        the same exact integer fold a checkpoint resume uses — so the
        rows it will produce for the remaining rungs are byte-identical
        to what the lost worker would have sent.
        """
        run.sampled = run.channel.recv(
            "sampled", timeout=self.task_timeout
        )
        run.observed = run.channel.recv(
            "observed", timeout=self.task_timeout
        )
        for si, size in run.progress:
            run.channel.send("skip", si, size)
            run.channel.recv("skipped", si, timeout=self.task_timeout)
        if run.pending is not None:
            run.channel.send(*run.pending)

    # ------------------------------------------------------------------
    def close_all(self) -> None:
        for run in self.runs:
            if run.channel is not None:
                run.channel.close()


class ProcessSweepExecutor:
    """Shared-memory multi-process sweep executor.

    Sweeps run on a **persistent** worker pool
    (:mod:`repro.runtime.pool`): by default the process-wide pool, so
    back-to-back sweeps — the cells of one plan, or repeated
    ``repro run --workers N`` sweeps in a session — reuse live workers
    instead of paying spawn cost per sweep. The DAG plan scheduler
    passes an explicit ``pool`` and runs several cells' shard tasks on
    it concurrently.

    Parameters
    ----------
    workers:
        Shard count (default: CPU count). Clamped to the replication
        count; the shard assignment never influences results, only
        wall-clock.
    checkpoint:
        Checkpoint *root* directory. Each sweep writes into a
        manifest-keyed subdirectory (see
        :mod:`repro.runtime.checkpoint`); ``None`` disables
        checkpointing.
    resume:
        Continue a matching checkpoint (skip its sampling phase and
        completed rungs) instead of clearing it.
    mp_context:
        A ``multiprocessing`` context; defaults to ``fork`` where
        available (workers then inherit the parent's imports) and
        ``spawn`` elsewhere. Selects which default pool serves the
        sweep when no explicit ``pool`` is given.
    pool:
        A :class:`~repro.runtime.pool.PersistentWorkerPool` to run on;
        ``None`` uses the process-wide default pool for ``mp_context``.
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
        Display label for telemetry spans (the plan scheduler passes
        its cell key, so worker task spans read ``task:RW09``).
        Never touches results.

    Attributes
    ----------
    last_checkpoint:
        The :class:`~repro.runtime.checkpoint.SweepCheckpoint` opened
        by the most recent run on this instance (``None`` without a
        checkpoint root). The plan scheduler reads its manifest key to
        record completed cells for substrate-free resume.
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
        checkpoint: "str | os.PathLike | None" = None,
        resume: bool = False,
        mp_context=None,
        pool=None,
        max_retries: int | None = None,
        task_timeout: float | None = None,
        label: str | None = None,
    ):
        if workers is not None and workers < 1:
            raise EstimationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers) if workers is not None else default_workers()
        self.checkpoint_root = None if checkpoint is None else Path(checkpoint)
        self.resume = bool(resume)
        self.label = label
        self._mp_context = mp_context
        self._pool = pool
        self.last_checkpoint = None
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
        sizes = spec.sizes
        n = int(sizes[-1])
        seeds = spawn_seeds(ensure_rng(rng), replications)
        truth = true_category_graph(graph, partition)
        checkpoint = self._open_checkpoint(
            graph, partition, sampler, spec, replications, seeds
        )
        self.last_checkpoint = checkpoint
        if checkpoint is not None:
            checkpoint.save_truth(truth)
        cached_rungs = self._load_cached_rungs(checkpoint, sizes)
        fully_cached = len(cached_rungs) == len(sizes)
        # Resume restores the cheapest sufficient state: a
        # fully-checkpointed sweep replays from its rung files alone
        # (_drive early-returns before spawning workers); restored
        # observations seed the ladders directly, making the draw
        # matrices redundant (workers then skip sampling outright); the
        # samples are decompressed only as the fallback when the
        # observations are absent, and then the workers rebuild — and
        # re-persist — the observation state from them.
        observations = (
            checkpoint.load_observations(replications)
            if checkpoint is not None and self.resume and not fully_cached
            else None
        )
        saved = (
            checkpoint.load_samples()
            if checkpoint
            and self.resume
            and not fully_cached
            and observations is None
            else None
        )
        if saved is not None and saved[0].shape != (replications, n):
            saved = None

        persist_samples = (
            checkpoint is not None and saved is None and observations is None
        )

        def make_cfg(shard):
            return {
                "mode": "fresh",
                "shard": [int(i) for i in shard],
                "seeds": [seeds[i] for i in shard],
                "n": n,
                "want_samples": persist_samples,
                "samples": (
                    None
                    if saved is None
                    else (saved[0][shard], saved[1][shard])
                ),
            }

        return self._drive(
            graph,
            partition,
            spec,
            replications,
            truth,
            checkpoint,
            observations,
            cached_rungs,
            make_payload=lambda shard: {"sampler": sampler},
            make_cfg=make_cfg,
            persist_samples=persist_samples,
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
        ladder/estimation phase. Rows are placed by absolute replicate
        index and reduced by the serial reducer, so the result is
        bit-identical to the serial path for any worker count.
        ``spec`` and ``samples`` arrive validated by
        :func:`~repro.stats.replication.run_nrmse_sweep_from_samples`.
        """
        samples = list(samples)
        replications = len(samples)
        sizes = spec.sizes
        truth = true_category_graph(graph, partition)
        checkpoint = self._open_predrawn_checkpoint(
            graph, partition, samples, spec
        )
        self.last_checkpoint = checkpoint
        if checkpoint is not None:
            checkpoint.save_truth(truth)
        cached_rungs = self._load_cached_rungs(checkpoint, sizes)
        observations = (
            checkpoint.load_observations(replications)
            if checkpoint is not None
            and self.resume
            and len(cached_rungs) < len(sizes)
            else None
        )

        def make_cfg(shard):
            return {
                "mode": "predrawn",
                "shard": [int(i) for i in shard],
            }

        def make_payload(shard):
            # Observation-seeded resume: the ladders never touch the
            # samples, so skip shipping them entirely.
            if observations is not None:
                return {"samples": None}
            return {"samples": [samples[i] for i in shard]}

        return self._drive(
            graph,
            partition,
            spec,
            replications,
            truth,
            checkpoint,
            observations,
            cached_rungs,
            make_payload=make_payload,
            make_cfg=make_cfg,
            persist_samples=False,
        )

    # ------------------------------------------------------------------
    def _drive(
        self,
        graph,
        partition,
        spec: SweepSpec,
        replications: int,
        truth,
        checkpoint: "SweepCheckpoint | None",
        observations: "list[dict] | None",
        cached_rungs: dict,
        *,
        make_payload,
        make_cfg,
        persist_samples: bool,
    ) -> SweepResult:
        """Spawn shard workers and drive the rung loop (both modes)."""
        # Reset per run: a fully-cached replay below never constructs a
        # driver, and without this a previous run's recovery log would
        # survive on the instance as stale diagnostics.
        self.failover_log = []
        sweep_label = self.label or "sweep"
        sizes = spec.sizes
        k = len(sizes)
        reducer = RungReducer(sizes, truth, spec.truth_mode, replications)
        if len(cached_rungs) == k:
            # Every rung is already checkpointed: assemble the result
            # straight from disk — no workers, no resampling, no ladder
            # rebuilds (a finished sweep re-resumed is a pure replay).
            telemetry.counter("checkpoint.sweep_cache_hits", 1)
            with telemetry.span(
                "sweep.replay", cat="driver", task=sweep_label, rungs=k
            ):
                for si in range(k):
                    reducer.add(si, cached_rungs[si])
                return reducer.result()

        if observations is None:
            # Built before pickling, so the planes ride every shard's
            # payload and no worker rebuilds them.
            with telemetry.span("observe.planes", cat="driver", task=sweep_label):
                observation_planes(graph, partition)
        num_workers = min(self.workers, replications)
        shards = np.array_split(np.arange(replications), num_workers)
        want_observations = checkpoint is not None and observations is None
        worker_pool = self._pool or default_pool(self._mp_context)

        # Inside a plan run the ambient pool already holds the plan's
        # named resources (pre-published once per build by run_plan), so
        # arrays shared between cells — the Facebook world's graph and
        # crawl samples behind every fig6 cell, a fig4 dataset stand-in
        # behind its three design cells — resolve to existing tokens and
        # cross the process boundary once for the whole plan. Everything
        # else (cell-local graphs and samplers, checkpoint-restored
        # observations) publishes through a run-local pool whose blocks
        # are unlinked — and *retired* from the persistent workers — as
        # soon as this run's tasks have closed, so plan-wide
        # shared-memory footprint stays at the resources plus the cells
        # currently in flight.
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
            try:
                with telemetry.span(
                    "dispatch", cat="driver", task=sweep_label,
                    shards=num_workers, replications=replications,
                ):
                    for slot, shard in enumerate(shards):
                        # One payload per shard, sliced to what that worker
                        # reads; large arrays still publish exactly once
                        # (the pool deduplicates by identity across shards,
                        # and the ambient pool across a plan's cells).
                        payload = sharedmem.dumps(
                            {
                                "graph": graph,
                                "partition": partition,
                                "observations": (
                                    None
                                    if observations is None
                                    else [observations[i] for i in shard]
                                ),
                                **make_payload(shard),
                            },
                            publish_pool,
                        )
                        cfg = {
                            "n_pop": graph.num_nodes,
                            "spec": spec,
                            "truth_sizes": truth.sizes,
                            "want_observations": want_observations,
                            **make_cfg(shard),
                        }
                        if recorder is not None:
                            cfg["telemetry"] = True
                            cfg["label"] = sweep_label
                        driver.open(_ShardRun(slot, shard, payload, cfg))

                runs = driver.runs
                with telemetry.span(
                    "phase.sample", cat="driver", task=sweep_label
                ):
                    sampled = [
                        driver.collect(run, "sampled") for run in runs
                    ]
                    if persist_samples and checkpoint is not None:
                        nodes = np.concatenate([part[0] for part in sampled])
                        node_weights = np.concatenate(
                            [part[1] for part in sampled]
                        )
                        checkpoint.save_samples(nodes, node_weights)
                with telemetry.span(
                    "phase.observe", cat="driver", task=sweep_label
                ):
                    observed = [
                        driver.collect(run, "observed") for run in runs
                    ]
                    if want_observations and checkpoint is not None:
                        checkpoint.save_observations(
                            [
                                fields
                                for shard_obs in observed
                                for fields in shard_obs
                            ]
                        )

                def queue(run, si):
                    # Every shard holds one queued command: its next rung.
                    if si < k:
                        kind = "skip" if si in cached_rungs else "rung"
                        driver.command(run, kind, si, int(sizes[si]))

                for run in runs:
                    queue(run, 0)
                for si, size in enumerate(sizes):
                    size = int(size)
                    cached = cached_rungs.get(si)
                    with telemetry.span(
                        "rung", cat="driver", task=sweep_label,
                        rung=si, size=size, cached=cached is not None,
                    ):
                        kept = [] if checkpoint is not None else None
                        for run in runs:
                            rows = driver.collect(
                                run, "rows" if cached is None else "skipped", si
                            )
                            # Folded into this shard's ladders: what a
                            # replacement task must skip past to catch up.
                            run.progress.append((si, size))
                            queue(run, si + 1)
                            if cached is None:
                                # Shards own contiguous replicate blocks,
                                # so slot order is replicate order.
                                reducer.fold(si, rows)
                                if kept is not None:
                                    kept.append(rows)
                            del rows
                        if cached is not None:
                            reducer.add(si, cached)
                        else:
                            if kept is not None:
                                checkpoint.save_rung(
                                    si,
                                    size,
                                    tuple(
                                        np.concatenate(
                                            [rows[f] for rows in kept]
                                        )
                                        for f in range(4)
                                    ),
                                )
                            reducer.close(si)
                if recorder is not None:
                    # Flush each task's recorded events back over the
                    # reply channel (best-effort diagnostics: a shard
                    # that died kept its history; its replacement ships
                    # what the replay re-recorded).
                    for run in runs:
                        driver.command(run, "telemetry", -1, 0)
                    for run in runs:
                        recorder.merge_remote(
                            driver.collect(run, "telemetry", -1)
                        )
            finally:
                driver.close_all()
                # Closing is ordered before retirement on each worker's
                # connection, so by the time a worker releases these
                # blocks its tasks (and their array views) are gone.
                worker_pool.retire(driver.handles, local_pool.block_names)
                # In-process fallback shards attach blocks in *this*
                # process; drop those cached views before the pool
                # unlinks the files (harmless when nothing attached).
                sharedmem.release(local_pool.block_names)

        return reducer.result()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _open_checkpoint(
        self, graph, partition, sampler, spec, replications, seeds
    ) -> "SweepCheckpoint | None":
        if self.checkpoint_root is None:
            return None
        manifest = {
            "mode": "fresh",
            "design": sampler.design,
            "replications": int(replications),
            "sizes": [int(s) for s in spec.sizes],
            "seeds": seeds,
            "weight_size_plugin": spec.weight_size_plugin,
            "mean_degree_model": spec.mean_degree_model,
            "graph": _array_digest(graph.indptr, graph.indices),
            "partition": _array_digest(partition.labels),
            "categories": list(partition.names),
            "sampler": _sampler_fingerprint(sampler),
        }
        return SweepCheckpoint(self.checkpoint_root, manifest, self.resume)

    def _load_cached_rungs(self, checkpoint, sizes) -> dict:
        """Every completed rung's rows, loaded once up front.

        The rung loop replays from this dict instead of re-reading the
        files; callers use its coverage to decide whether the heavier
        samples/observations state needs loading at all.
        """
        if not (checkpoint and self.resume):
            return {}
        return {
            si: rows
            for si, size in enumerate(sizes)
            if (rows := checkpoint.load_rung(si, int(size))) is not None
        }

    def _open_predrawn_checkpoint(
        self, graph, partition, samples, spec
    ) -> "SweepCheckpoint | None":
        if self.checkpoint_root is None:
            return None
        manifest = {
            "mode": "predrawn",
            "replications": len(samples),
            "sizes": [int(s) for s in spec.sizes],
            "weight_size_plugin": spec.weight_size_plugin,
            "mean_degree_model": spec.mean_degree_model,
            "truth_mode": spec.truth_mode,
            "graph": _array_digest(graph.indptr, graph.indices),
            "partition": _array_digest(partition.labels),
            "categories": list(partition.names),
            # Content fingerprints of every replicate crawl: a plan
            # resumed against regenerated-but-identical walks matches,
            # while any drift in a single draw changes the key.
            "samples": [
                [_array_digest(s.nodes, s.weights), s.design, bool(s.uniform)]
                for s in samples
            ],
        }
        return SweepCheckpoint(self.checkpoint_root, manifest, self.resume)
