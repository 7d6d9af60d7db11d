"""Persistent, task-multiplexed sweep worker pool.

Before the DAG plan scheduler, every sweep spun up its own worker
processes and tore them down when its ladder drained: a plan with
twelve cells paid twelve pool spin-ups, and no two cells could ever
share a core. This module keeps **one** set of worker processes alive
— across the cells of a plan, and across back-to-back ``repro run``
sweeps in one process — and multiplexes *tasks* onto them. A task is
one shard of one sweep (a contiguous replicate block); each worker
runs its tasks in their own threads, so cell ``k+1``'s sampling phase
overlaps cell ``k``'s ladder drain on the same worker, and the parent
drives every task independently through a :class:`TaskChannel`.

Wire protocol (parent -> worker)::

    ("open",  task_id, payload, cfg)   start a shard task
    ("rung",  task_id, si, size)       compute rung si
    ("skip",  task_id, si, size)       fold past a checkpointed rung
    ("telemetry", task_id, -1, 0)      flush the task's telemetry
    ("close", task_id)                 task finished; join + forget it
    ("retire", block_names)            drop shared-memory attachments
    ("shutdown",)                      exit the worker process

Worker -> parent messages are the executor's shard replies prefixed
with their task id (``(task_id, "sampled", ...)``, ``(task_id,
"rows", si, rows)``, ``(task_id, "error", traceback)``, ...); a
dedicated parent-side reader thread per worker routes them to the
right task's queue, which also guarantees the pipe always drains — a
worker can never deadlock sending rows for a task the parent has
abandoned.

Determinism is untouched by any of this: a task computes the same
per-replicate rows wherever and whenever it runs, the parent places
them by absolute replicate index, and each sweep's reduction stays the
serial code path. The pool only changes *when* work happens, never
*what* is computed.

Lifecycle: :func:`default_pool` hands out one process-wide pool per
multiprocessing start method, grown on demand and shut down at
interpreter exit (workers are daemonic besides). Tests that rely on
``fork`` workers inheriting freshly monkeypatched parent state call
:func:`reset_default_pools` to force the next sweep onto new workers.
"""

from __future__ import annotations

import atexit
import os
import queue
import tempfile
import threading
import time
import traceback
from pathlib import Path

from repro.exceptions import EstimationError
from repro.log import get_logger
from repro.runtime import faults, sharedmem, telemetry

__all__ = [
    "PersistentWorkerPool",
    "TaskChannel",
    "WorkerDied",
    "WorkerFailure",
    "WorkerHang",
    "WorkerSpawnError",
    "default_pool",
    "read_spill",
    "reset_default_pools",
]

_LOG = get_logger(__name__)


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class WorkerDied(EstimationError):
    """A pool worker process exited while a task still needed it.

    Subclasses :class:`~repro.exceptions.EstimationError` so callers
    that predate the failover machinery keep catching worker loss; the
    executor additionally recognizes the subclass and routes it through
    the shard retry path instead of failing the sweep.
    """

    def __init__(self, message: str, *, pid=None, exitcode=None):
        super().__init__(message)
        self.pid = pid
        self.exitcode = exitcode


class WorkerHang(WorkerDied):
    """A task missed its heartbeat deadline (stuck, not merely slow).

    Raised by :meth:`TaskChannel.recv` when ``REPRO_TASK_TIMEOUT`` (or
    the executor's ``task_timeout``) elapses with neither a reply nor a
    heartbeat. The worker process may still be alive but wedged; the
    recovery path condemns it and re-dispatches the shard elsewhere.
    """


class WorkerSpawnError(EstimationError):
    """The pool could not start a replacement (or initial) worker."""


class WorkerFailure(EstimationError):
    """A shard exhausted its retry budget; carries the full history.

    The structured terminal error of the failover path: ``slot`` is the
    shard's position in the sweep's shard split, ``replicates`` its
    absolute replicate indices, and ``retries`` one dict per failed
    attempt (``pid``/``exitcode``/``phase``/``reason``/``spill``).
    """

    def __init__(self, slot: int, replicates, retries: list):
        self.slot = int(slot)
        self.replicates = tuple(int(i) for i in replicates)
        self.retries = list(retries)
        span = (
            f"replicates {self.replicates[0]}-{self.replicates[-1]}"
            if self.replicates
            else "no replicates"
        )
        attempts = "; ".join(
            f"attempt {i}: pid {entry.get('pid')} "
            f"exitcode {entry.get('exitcode')} during {entry.get('phase')} "
            f"({entry.get('reason')})"
            + (
                f"\n  worker traceback:\n{entry['spill']}"
                if entry.get("spill")
                else ""
            )
            for i, entry in enumerate(self.retries, start=1)
        )
        super().__init__(
            f"shard {self.slot} ({span}) failed after "
            f"{max(len(self.retries) - 1, 0)} retries: {attempts}"
        )


# ----------------------------------------------------------------------
# Traceback spill files (the parent's view of a worker that died
# before — or while — replying its error)
# ----------------------------------------------------------------------
def _spill_path(pid: int) -> Path:
    return Path(tempfile.gettempdir()) / f"repro-worker-{pid}.traceback"


def read_spill(pid, clear: bool = True) -> "str | None":
    """The last traceback a (now dead) worker spilled, if any.

    Workers persist a failing task's traceback to a per-pid spill file
    *before* replying it, precisely because the reply pipe may already
    be broken (the old silent-failure window): when the parent sees a
    dead worker it reads — and by default clears — the spill so the
    root cause survives into the retry history and the final
    :class:`WorkerFailure` message.
    """
    if pid is None:
        return None
    path = _spill_path(pid)
    try:
        text = path.read_text()
    except OSError:
        return None
    if clear:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced cleanup
            pass
    return text or None


def default_workers() -> int:
    """The default shard count: one per available core."""
    return max(os.cpu_count() or 1, 1)


def preferred_context():
    """``fork`` where available (workers inherit imports), else spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _heartbeat_loop(task_id, reply, interval, done) -> None:
    """Pulse ``("heartbeat",)`` until the task finishes (worker side).

    A free-running thread: it keeps beating while the task computes a
    long rung (slow is fine), and goes silent only when the *process*
    is wedged or gone — which is exactly the distinction the parent's
    ``recv`` timeout needs.
    """
    while not done.wait(interval):
        try:
            reply(task_id, "heartbeat")
        except Exception:  # pragma: no cover - parent gone
            return


def _task_main(task_id, payload, cfg, commands, reply) -> None:
    """One shard task inside a worker: serve it, report errors by id."""
    directives = tuple(map(tuple, cfg.get("faults") or ()))
    if ("hang",) in directives:
        # Simulated wedge: no replies, no heartbeats, thread never
        # returns (daemon — dies with the condemned worker process).
        while True:  # pragma: no cover - killed externally
            time.sleep(60)
    done = threading.Event()
    interval = cfg.get("heartbeat")
    if interval:
        threading.Thread(
            target=_heartbeat_loop,
            args=(task_id, reply, float(interval), done),
            daemon=True,
        ).start()
    try:
        from repro.runtime.executor import serve_shard

        serve_shard(
            payload,
            cfg,
            commands.get,
            lambda *parts: reply(task_id, *parts),
        )
    except BaseException:
        text = traceback.format_exc()
        # Spill first: if the reply pipe is already broken (or breaks
        # mid-send) the traceback still reaches the parent via the
        # spill file it reads on seeing the worker dead.
        try:
            _spill_path(os.getpid()).write_text(text)
        except OSError:  # pragma: no cover - unwritable tmpdir
            pass
        try:
            reply(task_id, "error", text)
            _spill_path(os.getpid()).unlink(missing_ok=True)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        done.set()


def _pool_worker_main(conn) -> None:
    """Worker process: dispatch messages to per-task threads."""
    # A fork-inherited ambient recorder belongs to the parent; shard
    # tasks record into task-local collectors instead (executor side),
    # so drop it rather than silently swallowing events here.
    telemetry.reset_for_worker()
    send_lock = threading.Lock()

    def reply(task_id, *parts):
        with send_lock:
            conn.send((task_id,) + parts)

    tasks: dict[int, tuple[threading.Thread, queue.SimpleQueue]] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "retire":
                sharedmem.release(message[1])
                continue
            task_id = message[1]
            if kind == "open":
                commands: queue.SimpleQueue = queue.SimpleQueue()
                thread = threading.Thread(
                    target=_task_main,
                    args=(task_id, message[2], message[3], commands, reply),
                    daemon=True,
                )
                tasks[task_id] = (thread, commands)
                thread.start()
            elif kind == "close":
                entry = tasks.pop(task_id, None)
                if entry is not None:
                    entry[1].put(("stop",))
                    # Joining here orders the task's teardown before any
                    # later retire of its blocks on this connection —
                    # but bounded: a wedged task must not stop this
                    # worker from serving every other cell (the daemon
                    # thread is abandoned; a later retire of its blocks
                    # then simply finds them still referenced and keeps
                    # them pinned instead of crashing).
                    entry[0].join(timeout=30)
            else:  # "rung" | "skip" | "telemetry"
                tasks[task_id][1].put((kind, message[2], message[3]))
    finally:
        for _, commands in tasks.values():
            commands.put(("stop",))
        for thread, _ in tasks.values():
            thread.join(timeout=5)
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
#: Sentinel routed to every open task queue when its worker dies.
_DEAD = ("__worker_dead__",)


class _WorkerHandle:
    """Parent-side view of one pool worker (process, pipe, reader)."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.alive = True
        self._send_lock = threading.Lock()
        self._tasks_lock = threading.Lock()
        self._task_queues: dict[int, queue.SimpleQueue] = {}
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            with self._tasks_lock:
                task_queue = self._task_queues.get(message[0])
            if task_queue is not None:
                task_queue.put(message[1:])
            # Replies for closed tasks are dropped: an abandoned shard
            # may legitimately finish sending after an error elsewhere.
            del message  # else a big reply (rung rows) lives on until the next
        self.alive = False
        with self._tasks_lock:
            queues = list(self._task_queues.values())
        for task_queue in queues:
            task_queue.put(_DEAD)

    def send(self, message) -> None:
        with self._send_lock:
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                self.alive = False
                raise WorkerDied(
                    "sweep worker exited unexpectedly "
                    f"(exitcode {self.process.exitcode})",
                    pid=self.process.pid,
                    exitcode=self.process.exitcode,
                ) from None

    def register(self, task_id: int) -> queue.SimpleQueue:
        task_queue: queue.SimpleQueue = queue.SimpleQueue()
        with self._tasks_lock:
            if not self.alive:
                raise WorkerDied(
                    "sweep worker exited unexpectedly "
                    f"(exitcode {self.process.exitcode})",
                    pid=self.process.pid,
                    exitcode=self.process.exitcode,
                )
            self._task_queues[task_id] = task_queue
        return task_queue

    def unregister(self, task_id: int) -> None:
        with self._tasks_lock:
            self._task_queues.pop(task_id, None)

    def condemn(self) -> None:
        """Mark this worker unusable and kill its process (hang path).

        A wedged worker still *looks* alive (the process exists, the
        pipe is open); condemning it first means a concurrent lease can
        never hand the dying worker out again, and the killed process's
        reader-thread EOF then delivers ``_DEAD`` to its other tasks.
        """
        self.alive = False
        try:
            self.process.kill()
        except Exception:  # pragma: no cover - already gone
            pass
        self.process.join(timeout=5)


def parse_reply(message, expected: str, rung_index: "int | None"):
    """Validate one worker reply and strip it to its payload.

    Shared by :class:`TaskChannel` and the executor's in-process
    degradation channel, so both transports enforce the identical
    protocol (``error`` replies stay immediately fatal — a
    deterministic task exception would fail identically on every
    retry, so it is never routed through the failover path).
    """
    if message[0] == "error":
        raise EstimationError(f"sweep worker failed:\n{message[1]}")
    if message[0] != expected or (
        rung_index is not None and message[1] != rung_index
    ):  # pragma: no cover - protocol misuse
        raise EstimationError(
            f"unexpected worker reply {message[0]!r} (wanted {expected!r})"
        )
    if expected == "sampled":
        return message[1:]
    if expected == "rows":
        return message[2]
    if expected == "observed":
        return message[1]
    if expected == "telemetry":
        return message[2]
    return None


class TaskChannel:
    """Parent-side handle of one shard task running on a pool worker.

    ``send``/``recv`` mirror the old one-pipe-per-worker protocol of
    the per-sweep executor, so the rung-loop driver code is unchanged;
    the channel just adds the task id on the way out and strips it on
    the way back. ``recv`` additionally understands heartbeats: with a
    ``timeout``, every heartbeat from the task's worker resets the
    deadline, so a *slow* rung never trips the timeout — only a worker
    that stopped beating (wedged or dead) does.
    """

    def __init__(self, handle: _WorkerHandle, task_id: int):
        self._handle = handle
        self.task_id = task_id
        self._queue = handle.register(task_id)
        self._closed = False

    @property
    def process(self):
        """The worker process serving this task (for exit codes)."""
        return self._handle.process

    def send(self, kind: str, *parts) -> None:
        self._handle.send((kind, self.task_id) + parts)

    def recv(
        self,
        expected: str,
        rung_index: "int | None" = None,
        timeout: "float | None" = None,
    ):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if deadline is None:
                    message = self._queue.get()
                else:
                    remaining = deadline - time.monotonic()
                    message = self._queue.get(timeout=max(remaining, 0.001))
            except queue.Empty:
                raise WorkerHang(
                    f"sweep worker sent no heartbeat for {timeout:.3g}s "
                    f"while the parent waited for {expected!r} "
                    f"(pid {self._handle.process.pid}): assuming it hung",
                    pid=self._handle.process.pid,
                    exitcode=self._handle.process.exitcode,
                ) from None
            if message is _DEAD:
                raise WorkerDied(
                    "sweep worker exited unexpectedly "
                    f"(exitcode {self._handle.process.exitcode})",
                    pid=self._handle.process.pid,
                    exitcode=self._handle.process.exitcode,
                )
            if message[0] == "heartbeat":
                if deadline is not None:
                    deadline = time.monotonic() + timeout
                continue
            return parse_reply(message, expected, rung_index)

    def condemn(self) -> None:
        """Condemn the worker serving this task (see ``_WorkerHandle``)."""
        self._handle.condemn()

    def close(self) -> None:
        """Tell the worker the task is finished; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._handle.unregister(self.task_id)
        if self._handle.alive:
            try:
                self.send("close")
            except EstimationError:  # pragma: no cover - died under us
                pass


class PersistentWorkerPool:
    """A lazily-grown pool of persistent sweep workers.

    Thread-safe: under the DAG plan scheduler several cell driver
    threads open tasks concurrently, interleaving their shards on the
    same workers. Workers are daemonic; :meth:`shutdown` (or interpreter
    exit) retires them.
    """

    def __init__(self, mp_context=None):
        self._ctx = mp_context or preferred_context()
        self._handles: list[_WorkerHandle] = []
        self._lock = threading.Lock()
        self._next_task_id = 0

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    @property
    def size(self) -> int:
        """Live worker count."""
        with self._lock:
            return sum(1 for handle in self._handles if handle.alive)

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live workers (stable across sweeps — the point)."""
        with self._lock:
            return tuple(
                handle.process.pid for handle in self._handles if handle.alive
            )

    def _spawn(self) -> _WorkerHandle:
        if faults.take("fail-respawn") is not None:
            raise WorkerSpawnError(
                "injected worker spawn failure (fail-respawn fault)"
            )
        try:
            with telemetry.span(
                "spawn", cat="pool", start_method=self.start_method
            ):
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_pool_worker_main, args=(child_conn,), daemon=True
                )
                process.start()
        except OSError as error:  # fork/pipe exhaustion
            raise WorkerSpawnError(
                f"could not spawn a sweep worker: {error}"
            ) from error
        child_conn.close()
        _LOG.debug(
            "spawned pool worker pid=%s (%s)",
            process.pid, self.start_method,
        )
        telemetry.counter("pool.workers_spawned", 1)
        return _WorkerHandle(process, parent_conn)

    def _grow_locked(self, workers: int) -> None:
        """Prune dead workers and spawn up to ``workers`` (lock held)."""
        self._handles = [h for h in self._handles if h.alive]
        if len(self._handles) < workers:
            # Start the parent's shared-memory resource tracker
            # *before* forking: on Python < 3.13 a worker's block
            # attach registers with whatever tracker it inherited,
            # and a worker that pre-dates the parent's tracker would
            # spawn its own — which then never sees the parent's
            # unlink-time unregister and warns about (already
            # unlinked) "leaked" blocks at shutdown.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:  # pragma: no cover - tracker internals
                pass
        while len(self._handles) < workers:
            self._handles.append(self._spawn())

    def ensure(self, workers: int) -> None:
        """Grow the pool to at least ``workers`` live workers.

        The DAG scheduler calls this once before launching its cell
        driver threads, so pool growth (a ``fork``) never races them.
        """
        with self._lock:
            self._grow_locked(workers)

    def lease(self, workers: int) -> "list[_WorkerHandle]":
        """``workers`` live workers (a shared prefix), spawning as needed.

        Concurrent sweeps lease overlapping prefixes of the same worker
        list — sharing, not partitioning, is what lets a later cell's
        sampling fill the gaps in an earlier cell's ladder drain.
        Growing and slicing happen under one lock acquisition, so a
        concurrent lease pruning a just-died worker can never shrink
        this caller's slice below ``workers`` (a shard must never be
        silently dropped).
        """
        with self._lock:
            self._grow_locked(workers)
            return list(self._handles[:workers])

    def lease_upto(self, workers: int) -> "list[_WorkerHandle]":
        """Up to ``workers`` live workers, degrading instead of raising.

        The failover path's lease: dead workers are pruned, replacements
        are spawned best-effort, and a spawn failure returns whatever
        live workers exist rather than propagating — the executor then
        multiplexes its shards over the shorter list (and warns once).
        Raises :class:`WorkerSpawnError` only when *no* worker can be
        obtained at all; the executor's answer to that is the
        in-process serial fallback.
        """
        with self._lock:
            self._handles = [h for h in self._handles if h.alive]
            spawn_error = None
            if len(self._handles) < workers:
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.ensure_running()
                except Exception:  # pragma: no cover - tracker internals
                    pass
            while len(self._handles) < workers:
                try:
                    self._handles.append(self._spawn())
                except (WorkerSpawnError, OSError) as error:
                    spawn_error = error
                    break
            if not self._handles:
                raise WorkerSpawnError(
                    f"could not obtain any sweep worker: {spawn_error}"
                ) from spawn_error
            return list(self._handles[:workers])

    def open_task(self, handle: _WorkerHandle, payload: bytes, cfg: dict) -> TaskChannel:
        """Start a shard task on ``handle`` and return its channel."""
        with self._lock:
            task_id = self._next_task_id
            self._next_task_id += 1
        channel = TaskChannel(handle, task_id)
        try:
            handle.send(("open", task_id, payload, cfg))
        except EstimationError:
            handle.unregister(task_id)
            raise
        telemetry.instant(
            "task.open", cat="pool",
            task_id=task_id, pid=handle.process.pid,
            payload_bytes=len(payload),
        )
        return channel

    def retire(self, handles, block_names) -> None:
        """Ask workers to drop their attachments to finished blocks.

        A dead worker needs no message: its mappings vanished with the
        process, and the *files* behind the blocks are owned (and
        unlinked) by the parent-side pool that published them — so
        worker death can never leak a ``/dev/shm`` entry, only delay
        when a live worker unmaps it.
        """
        if not block_names:
            return
        names = tuple(block_names)
        for handle in handles:
            if handle.alive:
                try:
                    handle.send(("retire", names))
                except EstimationError:  # pragma: no cover - dying worker
                    pass

    def retire_all(self, block_names) -> None:
        """Retire blocks on every live worker.

        The plan runners call this for the *ambient* plan-resource
        blocks when a plan finishes: per-cell runs retire their own
        local blocks, but the shared resources outlive every cell and
        would otherwise stay mapped in the persistent workers for the
        process lifetime — one world copy leaked per plan run.
        """
        with self._lock:
            handles = list(self._handles)
        self.retire(handles, block_names)

    def shutdown(self) -> None:
        """Stop every worker and forget them (the pool stays usable)."""
        with self._lock:
            handles, self._handles = self._handles, []
        if handles:
            _LOG.debug("shutting down %d pool worker(s)", len(handles))
        for handle in handles:
            if handle.alive:
                try:
                    handle.send(("shutdown",))
                except EstimationError:
                    pass
        for handle in handles:
            handle.process.join(timeout=30)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join()
            handle.conn.close()
            # A worker that died mid-error may have left a traceback
            # spill nobody read (the sweep was already torn down).
            read_spill(handle.process.pid)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# The process-wide default pools (one per start method)
# ----------------------------------------------------------------------
_DEFAULT_POOLS: dict[str, PersistentWorkerPool] = {}
_DEFAULT_LOCK = threading.Lock()


def default_pool(mp_context=None) -> PersistentWorkerPool:
    """The process-wide pool for ``mp_context``'s start method.

    This is what lets back-to-back sweeps — the cells of one plan, or
    repeated ``run_nrmse_sweep(executor="process")`` calls in one
    session — reuse live workers instead of paying spawn cost per
    sweep.
    """
    ctx = mp_context or preferred_context()
    key = ctx.get_start_method()
    with _DEFAULT_LOCK:
        pool = _DEFAULT_POOLS.get(key)
        if pool is None:
            pool = _DEFAULT_POOLS[key] = PersistentWorkerPool(ctx)
        return pool


def reset_default_pools() -> None:
    """Shut down every default pool (fresh workers on next use).

    Tests use this after monkeypatching modules that ``fork`` workers
    must inherit; it also runs at interpreter exit.
    """
    with _DEFAULT_LOCK:
        pools = list(_DEFAULT_POOLS.values())
        _DEFAULT_POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(reset_default_pools)
