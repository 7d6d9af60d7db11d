"""Publish NumPy arrays to workers once, via POSIX shared memory.

A sweep's workers all need the same read-only substrate: the graph's
CSR ``indptr``/``indices``, per-arc weight and alias tables, the
S-WRW search key, partition labels. Pickling those into every worker
costs O(workers x arrays) copies and, at paper scale, dominates
executor startup. This module instead publishes each large array to a
``multiprocessing.shared_memory`` block exactly once and replaces it
inside the pickle stream with a *persistent id* — a small
``(name, dtype, shape)`` token. Workers resolve tokens by attaching the
named block and wrapping it in a read-only ndarray view: zero copies,
one physical instance of the substrate regardless of worker count.

The mechanism is object-agnostic: :func:`dumps` pickles any object
graph (samplers, :class:`~repro.graph.adjacency.Graph` instances,
partitions) and every ndarray at
least ``threshold`` bytes big rides shared memory automatically, so new
sampler designs get the treatment without registering anything.

Lifecycle: the parent owns the blocks — keep the
:class:`SharedArrayPool` alive until every worker has exited, then
:meth:`SharedArrayPool.close` unlinks them. Workers attach untracked
(they never own a block). Short-lived workers simply drop their
handles at process exit; the *persistent* pool workers of
:mod:`repro.runtime.pool` instead receive an explicit retire message
when a cell's run finishes and call :func:`release`, so a plan's
worker-side footprint stays at the long-lived resources plus the cell
currently running. A worker *forked* while the parent maps blocks also
inherits the parent's own mappings, which no retire names; it drops
them on start (:func:`reset_for_worker`). The same lifecycle covers the writable *reply*
blocks a pool allocates (:meth:`SharedArrayPool.allocate`, mapped with
:func:`attach`): workers write their replicate rows there and the parent
reads them in place. Pools are thread-safe: several threads may publish
into one ambient plan pool concurrently.
"""

from __future__ import annotations

import pickle
import sys
import threading
import weakref
from contextlib import contextmanager
from io import BytesIO
from multiprocessing import shared_memory

import numpy as np

from repro.runtime import telemetry

__all__ = [
    "PoolChain",
    "SharedArrayPool",
    "active_pool",
    "attach",
    "dumps",
    "loads",
    "release",
    "reset_for_worker",
    "shared_pool",
]

#: Arrays smaller than this ride the pickle stream directly; the tiny
#: ones are cheaper to copy than to publish and attach.
DEFAULT_THRESHOLD_BYTES = 16_384

_TOKEN_KIND = "repro-shm-ndarray"


class SharedArrayPool:
    """Parent-side registry of arrays published to shared memory.

    One pool per executor run. Arrays are deduplicated by object
    identity, so the graph's ``indices`` referenced by several samplers
    is published once; the pool keeps a reference to every published
    source array, which also pins its ``id`` for the dedup map.
    """

    def __init__(self, threshold: int = DEFAULT_THRESHOLD_BYTES):
        self.threshold = int(threshold)
        self._blocks: list[shared_memory.SharedMemory] = []
        self._tokens: dict[int, tuple] = {}
        self._pinned: list[np.ndarray] = []
        self._published_bytes = 0
        self._lock = threading.Lock()
        _POOLS.add(self)

    def publish(self, array: np.ndarray) -> tuple:
        """The persistent-id token of ``array``, publishing on first use."""
        with self._lock:
            token = self._tokens.get(id(array))
            if token is not None:
                return token
            source = np.ascontiguousarray(array)
            block = shared_memory.SharedMemory(
                create=True, size=max(source.nbytes, 1)
            )
            np.ndarray(source.shape, dtype=source.dtype, buffer=block.buf)[...] = source
            token = (_TOKEN_KIND, block.name, source.dtype.str, source.shape)
            self._blocks.append(block)
            self._tokens[id(array)] = token
            self._pinned.append(array)
            self._published_bytes += source.nbytes
            telemetry.counter("shm.published_bytes", source.nbytes)
            telemetry.counter("shm.published_blocks", 1)
            telemetry.gauge("shm.peak_pool_bytes", self._published_bytes)
            return token

    def allocate(self, shape, dtype=np.float64) -> tuple:
        """The token of a new, zero-filled block for workers to write into.

        The executor's reply grain: each shard's replicate rows land in such
        a block instead of crossing the worker pipe. The block is owned,
        unlinked and retired like a published one, but its bytes count
        as ``shm.reply_bytes``, not ``shm.published_bytes``. Every side
        (driver, worker, in-process shard) maps it with :func:`attach`.
        """
        dtype = np.dtype(dtype)
        shape = tuple(int(extent) for extent in shape)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        block = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        with self._lock:
            self._blocks.append(block)
        telemetry.counter("shm.reply_bytes", nbytes)
        return (_TOKEN_KIND, block.name, dtype.str, shape)

    def token_of(self, array: np.ndarray) -> "tuple | None":
        """The token of an already-published array, or ``None``."""
        with self._lock:
            return self._tokens.get(id(array))

    @property
    def num_published(self) -> int:
        """Number of distinct arrays published so far."""
        with self._lock:
            return len(self._blocks)

    @property
    def block_names(self) -> tuple[str, ...]:
        """Every block name this pool has published or allocated.

        The retire grain of the persistent worker pool: when a cell's
        run finishes, its run-local pool's names are broadcast so the
        long-lived workers drop their attachments through
        :func:`release`.
        """
        with self._lock:
            return tuple(block.name for block in self._blocks)

    def close(self) -> None:
        """Release and unlink every published block (parent side)."""
        with self._lock:
            blocks, self._blocks = self._blocks, []
            self._tokens = {}
            self._pinned = []
            retired, self._published_bytes = self._published_bytes, 0
        if retired:
            telemetry.counter("shm.retired_bytes", retired)
        for block in blocks:
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown timing
        # Safety net, not the contract: a pool abandoned without close()
        # (a crashed driver, a test that errored before its finally)
        # must not leak /dev/shm blocks past garbage collection. close()
        # is idempotent, so the normal context-manager path is unaffected.
        try:
            self.close()
        except Exception:
            pass


#: Every live pool of this process, so a forked worker can find the
#: parent's blocks it inherited (:func:`reset_for_worker`).
_POOLS: "weakref.WeakSet[SharedArrayPool]" = weakref.WeakSet()


def reset_for_worker() -> None:
    """Unmap the pool blocks a forked worker inherited from its parent.

    A pool worker forked while the parent holds blocks (a plan's
    resources in the ambient pool, a cell's run-local blocks) starts
    with the parent's mappings of them. Retire messages release only
    the worker's own attachments, so without this each inherited
    mapping would outlive its unlinked file for the worker's lifetime.
    The parent owns the files; the worker only closes its copies of
    the mappings and drops the pools' handles, unlinking nothing. Call
    it first thing in the child, while it has a single thread, which is
    why no pool lock is taken.
    """
    for pool in list(_POOLS):
        blocks, pool._blocks = pool._blocks, []
        for block in blocks:
            try:
                block.close()
            except BufferError:  # pragma: no cover - a view survived
                _UNRELEASABLE.append(block)


class PoolChain:
    """Publication view over a long-lived pool plus a short-lived one.

    ``publish`` reuses the primary pool's token when the array is
    already published there (plan resources, pre-published once per
    plan run) and otherwise publishes into the overlay (cell-local
    substrate, unlinked when the cell's run finishes). Exposes the
    ``publish``/``threshold`` surface the plane pickler needs.
    """

    def __init__(self, primary: SharedArrayPool, overlay: SharedArrayPool):
        self._primary = primary
        self._overlay = overlay
        self.threshold = overlay.threshold

    def publish(self, array: np.ndarray) -> tuple:
        token = self._primary.token_of(array)
        if token is not None:
            return token
        return self._overlay.publish(array)


#: Innermost-wins stack of ambient pools (see :func:`shared_pool`).
_POOL_STACK: list[SharedArrayPool] = []


@contextmanager
def shared_pool(threshold: int = DEFAULT_THRESHOLD_BYTES):
    """Scope one :class:`SharedArrayPool` over several executor runs.

    The plan runner (:mod:`repro.runtime.plan`) wraps a whole plan in
    one pool so that arrays shared between cells — the Facebook world's
    graph behind every Table 2 / Fig. 5-7 cell, a dataset stand-in
    behind several Fig. 4 design cells — are published to shared memory
    exactly once for the plan, not once per sweep. Executors consult
    :func:`active_pool` and leave an ambient pool open when their run
    finishes; the blocks are unlinked when this context exits.
    """
    pool = SharedArrayPool(threshold)
    _POOL_STACK.append(pool)
    try:
        yield pool
    finally:
        _POOL_STACK.remove(pool)
        pool.close()


def active_pool() -> "SharedArrayPool | None":
    """The innermost ambient pool, or ``None`` outside any scope."""
    return _POOL_STACK[-1] if _POOL_STACK else None


class _PlanePickler(pickle.Pickler):
    """Pickler that swaps big ndarrays for shared-memory tokens."""

    def __init__(self, file, pool: SharedArrayPool):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = pool

    def persistent_id(self, obj):
        # Plain ndarrays tokenize; subclasses keep default pickling.
        if (
            type(obj) is np.ndarray
            and obj.dtype != object
            and obj.nbytes >= self._pool.threshold
        ):
            return self._pool.publish(obj)
        return None


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach a block without resource-tracker ownership (worker side).

    On Python >= 3.13 ``track=False`` expresses exactly that. Older
    versions register the name again on attach, but the tracker's cache
    is a set shared with the parent, so the re-registration is a no-op
    and the parent's ``unlink`` still retires the entry cleanly.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


#: Attachment cache of the attaching process. ``SharedMemory.__del__``
#: closes its mapping, so every handle whose buffer backs a live array
#: view must stay referenced — the attaching process (a pool worker, or
#: a test doing an in-process round trip) pins them here. Short-lived
#: processes release them at exit; persistent pool workers release a
#: cell's blocks via :func:`release` when the parent retires them.
#: Guarded by a lock: pool workers unpickle several cells' payloads
#: from concurrent task threads.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_ATTACHED_LOCK = threading.Lock()

#: Handles whose unmap failed at release time (a view surfaced between
#: the refcount check and the close); pinned to silence their __del__.
_UNRELEASABLE: list = []


def _attached_view(token: tuple, writeable: bool) -> np.ndarray:
    """This process's cached view of a shared-memory token's block."""
    _, name, dtype, shape = token
    with _ATTACHED_LOCK:
        cached = _ATTACHED.get(name)
        if cached is None:
            block = _attach(name)
            array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
            array.flags.writeable = writeable
            cached = (block, array)
            _ATTACHED[name] = cached
    return cached[1]


def attach(token: tuple) -> np.ndarray:
    """A writable view of a :meth:`SharedArrayPool.allocate` block.

    Cached like an unpickled token, so :func:`release` (a retire
    message, or the driver's teardown) drops it.
    """
    return _attached_view(token, writeable=True)


class _PlaneUnpickler(pickle.Unpickler):
    """Unpickler resolving tokens to read-only zero-copy views of the
    named blocks, cached in :data:`_ATTACHED` for :func:`release`."""

    def persistent_load(self, pid):
        if pid[0] == _TOKEN_KIND:
            return _attached_view(pid, writeable=False)
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def release(names) -> None:
    """Drop this process's cached attachments for the named blocks.

    Called by persistent pool workers when the parent retires a
    finished cell's run-local blocks. Unmapping requires that no live
    ndarray view still exports the buffer; a block whose view survived
    the task teardown (e.g. kept alive by a reference cycle awaiting GC)
    is left pinned rather than half-released — the memory then goes
    back with the next retire that finds it collectable, or at process
    exit.
    """
    for name in names:
        with _ATTACHED_LOCK:
            cached = _ATTACHED.pop(name, None)
        if cached is None:
            continue
        block, array = cached
        del cached
        if sys.getrefcount(array) > 2:
            # A task still holds views into this block (the cache's
            # reference plus getrefcount's argument account for 2):
            # unmapping now would raise, so keep it pinned.
            with _ATTACHED_LOCK:
                _ATTACHED[name] = (block, array)
            continue
        del array
        try:
            block.close()
        except BufferError:  # pragma: no cover - late export
            # Pin the handle so its __del__ does not retry (and warn);
            # the mapping is freed at process exit.
            _UNRELEASABLE.append(block)


def dumps(obj, pool: SharedArrayPool) -> bytes:
    """Pickle ``obj`` with every large ndarray published through ``pool``."""
    buffer = BytesIO()
    _PlanePickler(buffer, pool).dump(obj)
    return buffer.getvalue()


def loads(payload: bytes):
    """Worker-side inverse of :func:`dumps` (attaches shared blocks)."""
    return _PlaneUnpickler(BytesIO(payload)).load()
