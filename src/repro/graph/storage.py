"""Out-of-core CSR storage plane (``np.memmap``-backed graphs).

Every substrate used to be an in-RAM CSR that the executor re-published
into ``/dev/shm`` per run — a hard wall around 10^8-10^9 arcs. This
module swaps the *storage plane* underneath the existing
:class:`~repro.graph.adjacency.Graph` contract without touching any
sampling kernel: the kernels only ever *gather* from ``indptr`` /
``indices``, so a read-only file mapping serves them the same bytes an
in-RAM array would.

On-disk layout (one directory per graph)::

    <dir>/indptr.npy      raw .npy-headered int64 plane, shape (N + 1,)
    <dir>/indices.npy     raw .npy-headered int64 plane, shape (2|E|,)
    <dir>/weights.npy     optional float64 per-arc plane
    <dir>/manifest.json   {"format", "num_nodes", "num_arcs",
                           "planes": {name: {file, dtype, shape, sha256}}}

The manifest is written atomically (tmp + rename) *after* the planes, so
a directory with a readable manifest always references fully-written
planes; a torn or truncated manifest — simulated deterministically by
the ``corrupt-manifest`` fault directive of :mod:`repro.runtime.faults`
— raises a named :class:`~repro.exceptions.StorageError` instead of
feeding garbage downstream.

Three ways in:

* :func:`save_csr` / :func:`open_csr` — persist and map existing planes.
* :class:`StreamingCSRBuilder` — build the on-disk CSR from edge chunks
  without ever materializing the edge list: canonical edge keys are
  spilled as sorted runs, external-merged, and symmetrised by a second
  streamed merge, so peak RSS is O(chunk + N) regardless of |E|.
* :func:`graph_storage` / ``REPRO_GRAPH_STORAGE=memmap`` — the ambient
  construction seam: :meth:`repro.graph.builder.GraphBuilder.build`
  consults :func:`active_storage_mode` and routes every graph built in
  scope through the streaming builder, returning a ``Graph`` whose
  planes are memmap views. Byte-identity contract: the memmap-backed
  graph is bit-identical to the in-RAM build, so every downstream sweep
  is too.

Workers never copy these planes: the plane-tokenizing pickler of
:mod:`repro.runtime.sharedmem` recognizes file-backed arrays and ships
an ``mmap`` token (path + dtype + shape + offset) instead of a shared
memory block, so each worker maps the same file.

Arrays *derived* from these planes (``arc_sources``, alias tables,
walk cumulatives) spill to the same format through the
content-addressed store of :mod:`repro.graph.planes`, which reuses this
module's manifest machinery and digests.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import shutil
import tempfile
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from numpy.lib import format as _npy_format

from repro.exceptions import GraphError, StorageError

__all__ = [
    "DEFAULT_CHUNK_ARCS",
    "MANIFEST_NAME",
    "MemmapCSR",
    "STORAGE_FORMAT",
    "StreamingCSRBuilder",
    "active_storage_mode",
    "chunk_edges",
    "edge_chunks",
    "graph_storage",
    "open_csr",
    "save_csr",
    "storage_root",
    "stream_graph",
    "unique_keys",
]

MANIFEST_NAME = "manifest.json"

#: On-disk format version embedded in every manifest.
STORAGE_FORMAT = 1

#: Default arcs per in-RAM block of the streaming builder / chunk APIs.
DEFAULT_CHUNK_ARCS = 1 << 20

#: Recognized storage modes (see :func:`active_storage_mode`).
MODES = ("ram", "memmap")

#: Block size (int64 elements) of the external-merge streams.
_MERGE_BLOCK = 1 << 20


# ----------------------------------------------------------------------
# Ambient storage mode (the construction seam)
# ----------------------------------------------------------------------
#: Innermost-wins stack of ``(mode, directory)`` scopes. Shared across
#: threads on purpose: a thread started inside a scope builds
#: substrates in the mode that scope entered.
_MODE_STACK: list[tuple[str, "Path | None"]] = []

_DEFAULT_ROOT: "Path | None" = None
_ROOT_LOCK = threading.Lock()


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise StorageError(
            f"unknown graph storage mode {mode!r}; use one of {', '.join(MODES)}"
        )
    return mode


@contextmanager
def graph_storage(mode: str, directory: "str | os.PathLike | None" = None):
    """Scope the ambient graph storage mode for the enclosed block.

    ``graph_storage("memmap")`` routes every
    :meth:`~repro.graph.builder.GraphBuilder.build` in scope through the
    out-of-core path; ``directory`` optionally pins where the plane
    files land (default: ``REPRO_STORAGE_DIR`` or a process-lifetime
    temp directory removed at exit). Scopes nest innermost-wins and are
    consulted before the ``REPRO_GRAPH_STORAGE`` environment variable.
    """
    entry = (_check_mode(mode), Path(directory) if directory is not None else None)
    _MODE_STACK.append(entry)
    try:
        yield
    finally:
        _MODE_STACK.remove(entry)


def active_storage_mode() -> str:
    """The ambient storage mode: scope, then environment, then ``"ram"``."""
    if _MODE_STACK:
        return _MODE_STACK[-1][0]
    env = os.environ.get("REPRO_GRAPH_STORAGE", "").strip().lower()
    if env:
        return _check_mode(env)
    return "ram"


def storage_root() -> Path:
    """Where on-disk CSR directories are created by default.

    Resolution order: the innermost :func:`graph_storage` scope that
    pinned a directory, then ``REPRO_STORAGE_DIR``, then one
    process-lifetime temp directory (removed at interpreter exit —
    worker processes map its files by absolute path while the parent
    lives, which is all the executor needs).
    """
    for _mode, directory in reversed(_MODE_STACK):
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            return directory
    env = os.environ.get("REPRO_STORAGE_DIR", "").strip()
    if env:
        path = Path(env)
        path.mkdir(parents=True, exist_ok=True)
        return path
    global _DEFAULT_ROOT
    with _ROOT_LOCK:
        if _DEFAULT_ROOT is None:
            _DEFAULT_ROOT = Path(tempfile.mkdtemp(prefix="repro-storage-"))
            atexit.register(shutil.rmtree, _DEFAULT_ROOT, ignore_errors=True)
        return _DEFAULT_ROOT


# ----------------------------------------------------------------------
# Manifest + planes
# ----------------------------------------------------------------------
def _digest_file(path: Path, block: int = 1 << 22) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(block)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    directory: Path, manifest: dict, *, file_kind: str = "manifest"
) -> None:
    """Atomically commit a plane manifest (tmp + rename).

    ``file_kind`` names the manifest family for the ``corrupt-manifest``
    fault directive: ``"manifest"`` for base-CSR stores,``"derived"``
    for the derived-plane store of :mod:`repro.graph.planes` — a
    ``corrupt-manifest:file=derived`` spec tears only the latter.
    """
    path = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, path)
    from repro.runtime import faults  # deferred: keeps this module light

    if faults.take("corrupt-manifest", file=file_kind) is not None:
        # Tear the manifest after its atomic write, the same way the
        # corrupt-checkpoint directive tears checkpoint payloads: the
        # next open_csr must fail loudly, never feed garbage downstream.
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])


class MemmapCSR:
    """An on-disk CSR opened as read-only memory maps.

    Attributes are the mapped planes (``indptr``, ``indices``, and
    ``weights`` when present); :meth:`graph` wraps them in a
    :class:`~repro.graph.adjacency.Graph` without copying. Closing just
    drops this object's handles — surviving array views keep the
    mapping alive through their ``base`` chain and the OS reclaims the
    pages when the last one dies.
    """

    __slots__ = ("directory", "manifest", "_planes")

    def __init__(self, directory: Path, manifest: dict, planes: dict):
        self.directory = directory
        self.manifest = manifest
        self._planes = planes

    @property
    def indptr(self) -> np.ndarray:
        return self._planes["indptr"]

    @property
    def indices(self) -> np.ndarray:
        return self._planes["indices"]

    @property
    def weights(self) -> "np.ndarray | None":
        return self._planes.get("weights")

    @property
    def num_nodes(self) -> int:
        return int(self.manifest["num_nodes"])

    @property
    def num_arcs(self) -> int:
        return int(self.manifest["num_arcs"])

    def graph(self):
        """The mapped planes as a :class:`~repro.graph.adjacency.Graph`.

        Invariants were checked when the store was built, so validation
        (an O(arcs) pass that would fault every page in) is skipped.
        """
        from repro.graph.adjacency import Graph

        return Graph(self.indptr, self.indices, validate=False)

    def close(self) -> None:
        """Drop this object's plane handles (mappings die with the views)."""
        self._planes = {}

    def __enter__(self) -> "MemmapCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemmapCSR(num_nodes={self.num_nodes}, "
            f"num_arcs={self.num_arcs}, directory={str(self.directory)!r})"
        )


def save_csr(
    directory: "str | os.PathLike",
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: "np.ndarray | None" = None,
) -> MemmapCSR:
    """Persist CSR planes to ``directory`` and reopen them mapped.

    Planes are written as raw ``.npy``-headered files, then the JSON
    manifest (dtype/shape/SHA-256 per plane) is committed atomically —
    a crash mid-save leaves a directory :func:`open_csr` rejects rather
    than a silently half-written graph.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    if indptr.ndim != 1 or len(indptr) == 0:
        raise StorageError("indptr must be a non-empty one-dimensional array")
    if int(indptr[-1]) != len(indices):
        raise StorageError(
            f"indptr[-1] ({int(indptr[-1])}) must equal len(indices) "
            f"({len(indices)})"
        )
    planes = {"indptr": indptr, "indices": indices}
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape != indices.shape:
            raise StorageError(
                f"weights shape {weights.shape} must match indices "
                f"shape {indices.shape}"
            )
        planes["weights"] = weights
    entries = {}
    for name, array in planes.items():
        path = directory / f"{name}.npy"
        np.save(path, array)
        entries[name] = {
            "file": f"{name}.npy",
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "sha256": _digest_file(path),
        }
    manifest = {
        "format": STORAGE_FORMAT,
        "num_nodes": len(indptr) - 1,
        "num_arcs": len(indices),
        "planes": entries,
    }
    _write_manifest(directory, manifest)
    return open_csr(directory)


def open_csr(directory: "str | os.PathLike", *, verify: bool = False) -> MemmapCSR:
    """Map an on-disk CSR written by :func:`save_csr` (or the builder).

    The manifest is validated before any plane is touched: a missing,
    torn, or truncated manifest raises :class:`StorageError` naming the
    path, as does a plane whose dtype/shape disagree with its manifest
    entry. ``verify=True`` additionally re-hashes every plane against
    its recorded SHA-256 (a full read — worth it when provenance
    matters, skipped on the hot path).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no CSR manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise StorageError(
            f"torn or corrupt CSR manifest at {manifest_path} ({error}); "
            "the store was interrupted mid-write — rebuild it"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != STORAGE_FORMAT:
        raise StorageError(
            f"unsupported CSR manifest format at {manifest_path}: "
            f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
        )
    plane_meta = manifest.get("planes")
    if not isinstance(plane_meta, dict) or not {"indptr", "indices"} <= set(
        plane_meta
    ):
        raise StorageError(
            f"truncated CSR manifest at {manifest_path} "
            "(missing plane entries); rebuild the store"
        )
    planes = {}
    for name, meta in plane_meta.items():
        try:
            file = directory / meta["file"]
            dtype, shape = meta["dtype"], tuple(meta["shape"])
            sha256 = meta["sha256"]
        except (KeyError, TypeError):
            raise StorageError(
                f"truncated CSR manifest at {manifest_path} "
                f"(incomplete entry for plane {name!r}); rebuild the store"
            ) from None
        try:
            if int(np.prod(shape)) == 0:
                # mmap rejects zero-length mappings on some platforms;
                # an empty plane is cheaper to read than to map anyway.
                mapped = np.load(file)
            else:
                mapped = _npy_format.open_memmap(file, mode="r")
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot map CSR plane {file} ({error})"
            ) from None
        if mapped.dtype.str != dtype or mapped.shape != shape:
            raise StorageError(
                f"CSR plane {file} is {mapped.dtype.str}{mapped.shape}, "
                f"manifest says {dtype}{shape}"
            )
        if verify and _digest_file(file) != sha256:
            raise StorageError(
                f"CSR plane {file} fails its manifest SHA-256 check"
            )
        planes[name] = mapped
    return MemmapCSR(directory, manifest, planes)


# ----------------------------------------------------------------------
# Chunk helpers
# ----------------------------------------------------------------------
def unique_keys(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for an int64 key array, sorting ``keys`` in place.

    One sort plus an adjacent-difference mask; NumPy 2.x's hash-based
    ``np.unique`` is tens of times slower on large integer arrays.
    """
    keys.sort()
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def chunk_edges(edges: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
    """Yield ``edges`` re-sliced into blocks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise StorageError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, len(edges), chunk_size):
        yield edges[start : start + chunk_size]


def edge_chunks(
    graph, chunk_size: int = DEFAULT_CHUNK_ARCS
) -> Iterator[np.ndarray]:
    """Stream a graph's undirected edges (``u < v``) in bounded blocks.

    ``(m, 2)`` windows of
    :attr:`~repro.graph.adjacency.Graph.upper_edges`, ``chunk_size``
    edges at a time; under memmap storage that plane is file-backed, so
    a memmap-backed graph is re-emitted without ever residing in RAM.
    """
    if chunk_size < 1:
        raise StorageError(f"chunk_size must be >= 1, got {chunk_size}")
    upper = graph.upper_edges
    for start in range(0, upper.shape[1], chunk_size):
        yield np.ascontiguousarray(
            upper[:, start : start + chunk_size].T, dtype=np.int64
        )


# ----------------------------------------------------------------------
# Streaming builder (external sort + merge)
# ----------------------------------------------------------------------
class StreamingCSRBuilder:
    """Build an on-disk CSR from edge chunks without the full edge list.

    Chunks are canonicalised to ``lo * n + hi`` keys, deduplicated
    per-block and spilled as sorted runs; :meth:`build` external-merges
    the runs into the unique canonical edge stream, derives the reverse
    arcs by a second external sort, and streams the final two-way merge
    straight into the ``indices`` plane. The result is bit-identical to
    :meth:`repro.graph.builder.GraphBuilder.build` — same dedup, same
    ``(src, dst)`` arc order, same dtypes — with peak RSS of
    O(chunk + N) instead of O(|E|).
    """

    def __init__(
        self,
        num_nodes: int,
        directory: "str | os.PathLike | None" = None,
        chunk_arcs: int = DEFAULT_CHUNK_ARCS,
    ):
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if chunk_arcs < 2:
            raise StorageError(f"chunk_arcs must be >= 2, got {chunk_arcs}")
        self._num_nodes = int(num_nodes)
        self._directory = Path(directory) if directory is not None else None
        self._chunk_arcs = int(chunk_arcs)
        self._pending: list[np.ndarray] = []
        self._pending_len = 0
        self._runs: list[Path] = []
        self._spill_dir: "Path | None" = None
        self._built = False

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def _spill_root(self) -> Path:
        if self._spill_dir is None:
            self._spill_dir = Path(
                tempfile.mkdtemp(prefix="spill-", dir=storage_root())
            )
        return self._spill_dir

    def add_edges(self, edges: "np.ndarray | list[tuple[int, int]]") -> None:
        """Add a batch of undirected edges from an ``(m, 2)`` array-like."""
        if self._built:
            raise StorageError("builder already finalized")
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            return
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {arr.shape}")
        if arr.min() < 0 or arr.max() >= self._num_nodes:
            raise GraphError(
                f"edge endpoints must lie in [0, {self._num_nodes}); "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        if np.any(arr[:, 0] == arr[:, 1]):
            bad = int(arr[arr[:, 0] == arr[:, 1]][0, 0])
            raise GraphError(f"self-loop at node {bad} is not allowed")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        self._pending.append(lo * np.int64(self._num_nodes) + hi)
        self._pending_len += len(arr)
        if self._pending_len >= self._chunk_arcs:
            self._spill()

    def add_chunks(self, chunks: Iterable[np.ndarray]) -> None:
        """Consume an iterable of edge chunks (an ``emit_arcs`` stream)."""
        for chunk in chunks:
            self.add_edges(chunk)

    def _spill(self) -> None:
        if not self._pending:
            return
        keys = unique_keys(np.concatenate(self._pending))
        self._pending = []
        self._pending_len = 0
        path = self._spill_root() / f"run-{len(self._runs):06d}.npy"
        np.save(path, keys)
        self._runs.append(path)

    # -- external merge machinery ------------------------------------
    @staticmethod
    def _merge_runs(a_path: Path, b_path: Path, out_path: Path) -> None:
        """Two-way merge of sorted runs (duplicates kept; sizes exact)."""
        a = np.load(a_path, mmap_mode="r")
        b = np.load(b_path, mmap_mode="r")
        out = _npy_format.open_memmap(
            out_path, mode="w+", dtype=np.int64, shape=(len(a) + len(b),)
        )
        ia = ib = io_ = 0
        while ia < len(a) and ib < len(b):
            block_a = np.asarray(a[ia : ia + _MERGE_BLOCK])
            block_b = np.asarray(b[ib : ib + _MERGE_BLOCK])
            # Emit everything in block_a up to block_b's remaining max
            # and vice versa: both bounded cursors advance each round.
            # Everything <= the smaller block maximum can be emitted now
            # (later elements of both runs are >= it); the block owning
            # that maximum is consumed whole, so both cursors progress.
            limit = min(block_a[-1], block_b[-1])
            take_a = int(np.searchsorted(block_a, limit, "right"))
            take_b = int(np.searchsorted(block_b, limit, "right"))
            merged = np.concatenate((block_a[:take_a], block_b[:take_b]))
            merged.sort(kind="stable")
            out[io_ : io_ + len(merged)] = merged
            io_ += len(merged)
            ia += take_a
            ib += take_b
        for rest, cursor in ((a, ia), (b, ib)):
            while cursor < len(rest):
                block = np.asarray(rest[cursor : cursor + _MERGE_BLOCK])
                out[io_ : io_ + len(block)] = block
                io_ += len(block)
                cursor += len(block)
        out.flush()
        del out

    def _collapse_runs(self) -> "Path | None":
        """Pairwise-merge spilled runs down to one sorted run on disk."""
        runs = list(self._runs)
        self._runs = []
        generation = 0
        while len(runs) > 1:
            merged: list[Path] = []
            for i in range(0, len(runs) - 1, 2):
                out = self._spill_root() / f"merge-{generation}-{i // 2:06d}.npy"
                self._merge_runs(runs[i], runs[i + 1], out)
                runs[i].unlink()
                runs[i + 1].unlink()
                merged.append(out)
            if len(runs) % 2 == 1:
                merged.append(runs[-1])
            runs = merged
            generation += 1
        return runs[0] if runs else None

    def build(self, directory: "str | os.PathLike | None" = None) -> MemmapCSR:
        """External-merge the spilled runs into the on-disk CSR."""
        if self._built:
            raise StorageError("builder already finalized")
        self._built = True
        self._spill()
        target = Path(directory) if directory is not None else self._directory
        if target is None:
            target = Path(tempfile.mkdtemp(prefix="csr-", dir=storage_root()))
        n = self._num_nodes
        run = self._collapse_runs()
        try:
            if run is None:
                return save_csr(
                    target,
                    np.zeros(n + 1, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            canon_path, num_edges = self._dedup_run(run)
            reverse_path = self._reverse_sorted(canon_path, num_edges)
            return self._write_planes(target, canon_path, reverse_path, num_edges)
        finally:
            if self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
                self._spill_dir = None

    def _dedup_run(self, run: Path) -> tuple[Path, int]:
        """Drop cross-run duplicates from the merged sorted key stream."""
        source = np.load(run, mmap_mode="r")
        out_path = self._spill_root() / "canonical.bin"
        count = 0
        last = -1
        with out_path.open("wb") as handle:
            for start in range(0, len(source), _MERGE_BLOCK):
                block = np.asarray(source[start : start + _MERGE_BLOCK])
                mask = np.empty(len(block), dtype=bool)
                mask[0] = block[0] != last
                mask[1:] = block[1:] != block[:-1]
                kept = block[mask]
                handle.write(kept.tobytes())
                count += len(kept)
                last = int(block[-1])
        run.unlink()
        return out_path, count

    def _reverse_sorted(self, canon_path: Path, num_edges: int) -> Path:
        """The reverse-arc keys (``hi * n + lo``), externally sorted."""
        n = np.int64(self._num_nodes)
        canon = np.memmap(canon_path, dtype=np.int64, mode="r", shape=(num_edges,))
        runs: list[Path] = []
        for start in range(0, num_edges, self._chunk_arcs):
            block = np.asarray(canon[start : start + self._chunk_arcs])
            rev = (block % n) * n + block // n
            rev.sort(kind="stable")
            path = self._spill_root() / f"rev-{len(runs):06d}.npy"
            np.save(path, rev)
            runs.append(path)
        del canon
        self._runs = runs
        out = self._collapse_runs()
        if out is None:
            out = self._spill_root() / "rev-empty.npy"
            np.save(out, np.empty(0, dtype=np.int64))
        return out

    def _write_planes(
        self, target: Path, canon_path: Path, reverse_path: Path, num_edges: int
    ) -> MemmapCSR:
        """Stream the forward/reverse merge into the final planes."""
        n = self._num_nodes
        num_arcs = 2 * num_edges
        target.mkdir(parents=True, exist_ok=True)
        forward = np.memmap(
            canon_path, dtype=np.int64, mode="r", shape=(num_edges,)
        )
        reverse = np.load(reverse_path, mmap_mode="r")
        indices_path = target / "indices.npy"
        indices = _npy_format.open_memmap(
            indices_path, mode="w+", dtype=np.int64, shape=(num_arcs,)
        )
        counts = np.zeros(n + 1, dtype=np.int64)
        ia = ib = io_ = 0
        while io_ < num_arcs:
            block_a = np.asarray(forward[ia : ia + _MERGE_BLOCK])
            block_b = np.asarray(reverse[ib : ib + _MERGE_BLOCK])
            if len(block_a) and len(block_b):
                limit = min(block_a[-1], block_b[-1])
                take_a = int(np.searchsorted(block_a, limit, "right"))
                take_b = int(np.searchsorted(block_b, limit, "right"))
                merged = np.concatenate((block_a[:take_a], block_b[:take_b]))
                merged.sort(kind="stable")
            elif len(block_a):
                merged, take_a, take_b = block_a, len(block_a), 0
            else:
                merged, take_a, take_b = block_b, 0, len(block_b)
            # Arc key k encodes (src, dst) = (k // n, k % n); forward
            # keys have src < dst, reverse keys src > dst — disjoint, so
            # the merged stream is the lexsorted (src, dst) arc order.
            src = merged // n
            indices[io_ : io_ + len(merged)] = merged % n
            counts[1:] += np.bincount(src, minlength=n)
            io_ += len(merged)
            ia += take_a
            ib += take_b
        indices.flush()
        del indices
        indptr = np.cumsum(counts, out=counts)
        indptr_path = target / "indptr.npy"
        np.save(indptr_path, indptr)
        entries = {
            name: {
                "file": f"{name}.npy",
                "dtype": "<i8",
                "shape": [length],
                "sha256": _digest_file(path),
            }
            for name, path, length in (
                ("indptr", indptr_path, n + 1),
                ("indices", indices_path, num_arcs),
            )
        }
        manifest = {
            "format": STORAGE_FORMAT,
            "num_nodes": n,
            "num_arcs": num_arcs,
            "planes": entries,
        }
        _write_manifest(target, manifest)
        return open_csr(target)


def stream_graph(
    chunks: Iterable[np.ndarray],
    num_nodes: int,
    directory: "str | os.PathLike | None" = None,
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
) -> MemmapCSR:
    """Build an on-disk CSR straight from an edge-chunk stream.

    The one-call form of :class:`StreamingCSRBuilder` for the
    generators' ``emit_arcs`` paths::

        csr = stream_graph(emit_gnp_arcs(n, p, rng=0), num_nodes=n)
        graph = csr.graph()
    """
    builder = StreamingCSRBuilder(num_nodes, directory, chunk_arcs)
    builder.add_chunks(chunks)
    return builder.build()
