"""Derived-plane store: manifest-keyed spill + cross-run reuse.

The out-of-core CSR plane (:mod:`repro.graph.storage`) bounded the
*base* arrays, but every array derived from them — ``arc_sources``,
the upper-edge list and neighbor-category histograms that observations
gather, alias tables, per-run weight cumulatives — still materialized
in RAM at first use, which is exactly the memory (and startup-time)
wall of a weighted-walk sweep at web scale. This module closes that
gap with a content-addressed store for derived arrays in the same
plane format:

* one directory per derived result under ``<cache>/<derivation>/<key>``
  holding raw ``.npy`` planes plus a ``manifest.json`` (dtype / shape /
  SHA-256 per plane, atomically committed after the planes);
* the ``<key>`` is the SHA-256 of (derivation name, derivation version,
  parameters, and the *fingerprints of the source arrays*), so a key is
  valid iff its inputs are bit-identical — no mtimes, no paths;
* source arrays that are themselves on-disk planes fingerprint for free
  via the SHA-256 their sibling manifest already records; RAM sources
  fall back to a streaming content hash.

Because the key is pure content, a *second run* (or a resumed plan)
over the same substrate re-derives nothing: the streaming CSR builder
reproduces bit-identical base planes, their manifest digests match, and
every derivation is a cache hit (``planes.hit`` in the telemetry
counters; ``planes.built`` counts cold constructions).

Construction is chunked: a builder receives a :class:`PlaneWriter`,
creates its output planes as ``w+`` memmaps, and fills them block by
block, so peak RSS during derivation is bounded by the chunk size, not
the plane size. Results reopen as read-only ``np.memmap`` views that
the plane-tokenizing pickler of :mod:`repro.runtime.sharedmem` ships to
pool workers as ``mmap:`` tokens — zero publish bytes, no copies.

Enablement: the store engages when the ambient storage mode is
``memmap`` (``graph_storage("memmap")`` / ``REPRO_GRAPH_STORAGE`` /
``REPRO_SCALE=web``) or when a source array is already file-backed
(which is how spawned pool workers, who inherit env vars but not the
parent's scope stack, land in the same cache). RAM-mode runs with RAM
sources keep today's in-memory behavior. The cache directory resolves
``REPRO_PLANE_CACHE``, then ``REPRO_STORAGE_DIR``'s ``planes/``
subdirectory, then a ``planes/`` sibling of the first file-backed
source, then ``storage_root()/planes``; derivations smaller than
``REPRO_PLANE_THRESHOLD`` bytes (default 64 KiB) stay in RAM, and
``REPRO_PLANE_STORE=off`` disables the store outright.

A torn or tampered manifest — simulated deterministically by the
``corrupt-manifest:file=derived`` directive of
:mod:`repro.runtime.faults` — never crashes a run: the directory is
quarantined (renamed aside, ``planes.quarantined`` counter) and the
derivation rebuilt from its sources.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.lib import format as _npy_format

from repro.exceptions import StorageError
from repro.graph.storage import (
    DEFAULT_CHUNK_ARCS,
    MANIFEST_NAME,
    STORAGE_FORMAT,
    _digest_file,
    _write_manifest,
    active_storage_mode,
    storage_root,
)

__all__ = [
    "DEFAULT_PLANE_THRESHOLD",
    "DerivedPlaneStore",
    "PlaneWriter",
    "build_arc_sources",
    "build_neighbor_histogram",
    "build_upper_edges",
    "clear_plane_memo",
    "derived_arc_sources",
    "derived_neighbor_histogram",
    "derived_upper_edges",
    "node_blocks",
    "plane_store_at",
    "plane_store_for",
    "plane_threshold",
    "source_fingerprint",
]

_LOG = logging.getLogger("repro.graph.planes")

#: Below this many output bytes a derivation stays in RAM (override via
#: ``REPRO_PLANE_THRESHOLD``) — micro-planes cost more in syscalls and
#: cache-directory litter than they save.
DEFAULT_PLANE_THRESHOLD = 1 << 16

#: Bytes hashed per block when content-fingerprinting a RAM source.
_HASH_BLOCK_BYTES = 1 << 22


def plane_threshold() -> int:
    """Minimum derived-plane size (bytes) that spills to disk."""
    env = os.environ.get("REPRO_PLANE_THRESHOLD", "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            raise StorageError(
                f"REPRO_PLANE_THRESHOLD must be an integer, got {env!r}"
            ) from None
    return DEFAULT_PLANE_THRESHOLD


# ----------------------------------------------------------------------
# Source fingerprints
# ----------------------------------------------------------------------
def _file_source(array: np.ndarray) -> "Path | None":
    """The backing ``.npy`` path when ``array`` is a whole mapped plane.

    Walks the ``base`` chain to an ``np.memmap`` (the sharedmem
    pickler's trick) and accepts only a view covering the *entire*
    mapping — a sub-window is not the plane the sibling manifest
    hashed. Copy-on-write mappings are rejected: their pages may have
    diverged from the file.
    """
    if not isinstance(array, np.ndarray) or not array.flags.c_contiguous:
        return None
    base = array
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    if base is None or getattr(base, "filename", None) is None:
        return None
    if getattr(base, "mode", "r") == "c":
        return None
    start = array.__array_interface__["data"][0]
    base_start = base.__array_interface__["data"][0]
    if start != base_start or array.nbytes != base.nbytes:
        return None
    return Path(os.fspath(base.filename))


def _manifest_digest(array: np.ndarray, path: Path) -> "str | None":
    """``array``'s SHA-256 from the manifest next to its backing file."""
    manifest_path = path.parent / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    planes = manifest.get("planes") if isinstance(manifest, dict) else None
    if not isinstance(planes, dict):
        return None
    for meta in planes.values():
        if (
            isinstance(meta, dict)
            and meta.get("file") == path.name
            and meta.get("dtype") == array.dtype.str
            and tuple(meta.get("shape", ())) == array.shape
            and isinstance(meta.get("sha256"), str)
        ):
            return meta["sha256"]
    return None


def _content_digest(array: np.ndarray) -> str:
    """Streaming SHA-256 of a RAM source's raw bytes (bounded blocks)."""
    digest = hashlib.sha256()
    flat = array.reshape(-1) if array.flags.c_contiguous else np.ravel(array)
    block = max(1, _HASH_BLOCK_BYTES // max(flat.itemsize, 1))
    for start in range(0, len(flat), block):
        digest.update(np.ascontiguousarray(flat[start : start + block]).tobytes())
    return digest.hexdigest()


def source_fingerprint(array) -> dict:
    """Content identity of a source array, as a JSON-serializable dict.

    A file-backed plane resolves its SHA-256 from the sibling manifest
    (no data read); anything else is hashed by content. Two
    bit-identical *on-disk* planes — e.g. the same substrate streamed by
    two separate runs into different directories — fingerprint equal,
    which is what makes derived-plane keys survive across runs.
    """
    array = np.asanyarray(array)
    path = _file_source(array)
    digest = _manifest_digest(array, path) if path is not None else None
    if digest is not None:
        kind = "plane"
    else:
        kind, digest = "content", _content_digest(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "kind": kind,
        "sha256": digest,
    }


def _store_key(
    derivation: str, version: int, params: dict, fingerprints: list
) -> str:
    payload = json.dumps(
        {
            "derivation": derivation,
            "version": int(version),
            "params": params,
            "sources": fingerprints,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


# ----------------------------------------------------------------------
# Writer + open/quarantine machinery
# ----------------------------------------------------------------------
class PlaneWriter:
    """Builder-side handle creating output planes in a staging directory.

    :meth:`create` returns a writable array the chunked builder fills
    in place; plane-sized outputs are ``w+`` memmaps, so the build never
    holds a full plane in RAM. The store finalizes (flush, digest,
    manifest) and atomically renames the staging directory into place.
    """

    def __init__(self, directory: Path):
        self._directory = Path(directory)
        self._arrays: dict[str, np.ndarray] = {}

    def create(self, name: str, dtype, shape) -> np.ndarray:
        if name in self._arrays:
            raise StorageError(f"plane {name!r} already created")
        if not name or "/" in name or name.startswith("."):
            raise StorageError(f"invalid plane name {name!r}")
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        if int(np.prod(shape)) == 0:
            # mmap rejects zero-length mappings on some platforms; an
            # empty plane is np.save'd whole at finalize time instead.
            array: np.ndarray = np.empty(shape, dtype=dtype)
        else:
            array = _npy_format.open_memmap(
                self._directory / f"{name}.npy",
                mode="w+",
                dtype=dtype,
                shape=shape,
            )
        self._arrays[name] = array
        return array

    def _finalize(self) -> dict:
        """Flush, digest, and describe every created plane."""
        if not self._arrays:
            raise StorageError("derived-plane build created no planes")
        entries = {}
        for name, array in self._arrays.items():
            path = self._directory / f"{name}.npy"
            if isinstance(array, np.memmap):
                array.flush()
            else:
                np.save(path, array)
            entries[name] = {
                "file": f"{name}.npy",
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "sha256": _digest_file(path),
            }
        self._arrays = {}
        return entries


def _open_derived(directory: Path, derivation: str, version: int) -> dict:
    """Map a committed derived-plane directory (read-only views).

    Raises :class:`StorageError` on a missing/torn/mismatched manifest
    or a plane that disagrees with its manifest entry — the caller
    quarantines and rebuilds.
    """
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no derived-plane manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise StorageError(
            f"torn or corrupt derived-plane manifest at {manifest_path} "
            f"({error})"
        ) from None
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != STORAGE_FORMAT
        or manifest.get("kind") != "derived"
        or manifest.get("derivation") != derivation
        or manifest.get("version") != version
    ):
        raise StorageError(
            f"derived-plane manifest at {manifest_path} does not describe "
            f"{derivation!r} v{version}"
        )
    plane_meta = manifest.get("planes")
    if not isinstance(plane_meta, dict) or not plane_meta:
        raise StorageError(
            f"truncated derived-plane manifest at {manifest_path} "
            "(missing plane entries)"
        )
    planes = {}
    for name, meta in plane_meta.items():
        try:
            file = directory / meta["file"]
            dtype, shape = meta["dtype"], tuple(meta["shape"])
        except (KeyError, TypeError):
            raise StorageError(
                f"truncated derived-plane manifest at {manifest_path} "
                f"(incomplete entry for plane {name!r})"
            ) from None
        try:
            if int(np.prod(shape)) == 0:
                mapped = np.load(file)
            else:
                mapped = _npy_format.open_memmap(file, mode="r")
        except (OSError, ValueError) as error:
            raise StorageError(
                f"cannot map derived plane {file} ({error})"
            ) from None
        if mapped.dtype.str != dtype or mapped.shape != shape:
            raise StorageError(
                f"derived plane {file} is {mapped.dtype.str}{mapped.shape}, "
                f"manifest says {dtype}{shape}"
            )
        view = mapped.view(np.ndarray)
        view.flags.writeable = False
        planes[name] = view
    return planes


def _planes_nbytes(planes: dict) -> int:
    return int(sum(array.nbytes for array in planes.values()))


class DerivedPlaneStore:
    """Content-addressed store of derived plane directories.

    One instance per cache root (see :func:`plane_store_at`); opened
    results are memoized in-process so repeated derivations over the
    same sources cost one dict lookup — the memo holds address space
    (mapped files), not RAM.
    """

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)
        self._memo: dict[tuple[str, str], dict] = {}
        self._lock = threading.Lock()

    def key_of(
        self,
        derivation: str,
        *,
        sources: Sequence,
        version: int = 1,
        params: "dict | None" = None,
    ) -> str:
        """The cache key these inputs resolve to (test/introspection aid)."""
        fingerprints = [source_fingerprint(source) for source in sources]
        return _store_key(derivation, version, dict(params or {}), fingerprints)

    def get_or_build(
        self,
        derivation: str,
        *,
        sources: Sequence,
        build: Callable[[PlaneWriter], None],
        version: int = 1,
        params: "dict | None" = None,
    ) -> dict:
        """Open the derived planes for these inputs, building on miss.

        ``build(writer)`` must create every output plane via
        :meth:`PlaneWriter.create` and fill it; the result is reopened
        read-only and returned as a ``{name: array}`` dict of
        file-backed views. Bit-identical inputs always resolve to the
        same directory — across calls, samplers, processes, and runs.
        """
        from repro.runtime import telemetry  # deferred: keeps graph light

        params = dict(params or {})
        fingerprints = [source_fingerprint(source) for source in sources]
        key = _store_key(derivation, version, params, fingerprints)
        memo_key = (derivation, key)
        with self._lock:
            cached = self._memo.get(memo_key)
        if cached is not None:
            telemetry.counter("planes.hit", 1)
            telemetry.counter("planes.hit_bytes", _planes_nbytes(cached))
            return cached
        directory = self.root / derivation / key
        planes = None
        built = False
        for _attempt in range(3):
            planes = self._try_open(directory, derivation, version)
            if planes is not None:
                break
            planes = self._build(
                directory, derivation, version, params, fingerprints, build
            )
            if planes is not None:
                built = True
                break
        if planes is None:
            raise StorageError(
                f"could not build derived plane {derivation}/{key} under "
                f"{self.root} (repeatedly corrupt?)"
            )
        if built:
            telemetry.counter("planes.built", 1)
            telemetry.counter("planes.built_bytes", _planes_nbytes(planes))
        else:
            telemetry.counter("planes.hit", 1)
            telemetry.counter("planes.hit_bytes", _planes_nbytes(planes))
        with self._lock:
            winner = self._memo.setdefault(memo_key, planes)
        return winner

    def clear_memo(self) -> None:
        """Drop in-process memoized planes (the disk cache is untouched)."""
        with self._lock:
            self._memo.clear()

    # -- internals ----------------------------------------------------
    def _try_open(
        self, directory: Path, derivation: str, version: int
    ) -> "dict | None":
        """Open a committed key directory; quarantine it when corrupt."""
        if not directory.exists():
            return None
        try:
            return _open_derived(directory, derivation, version)
        except StorageError as error:
            self._quarantine(directory, error)
            return None

    def _quarantine(self, directory: Path, error: StorageError) -> None:
        from repro.runtime import telemetry

        for suffix in range(100):
            target = directory.with_name(
                directory.name + ".corrupt" + (f"-{suffix}" if suffix else "")
            )
            try:
                os.rename(directory, target)
                break
            except FileNotFoundError:
                break  # a concurrent builder already moved it aside
            except OSError:
                continue  # target exists from an earlier quarantine
        telemetry.counter("planes.quarantined", 1)
        _LOG.warning(
            "quarantined corrupt derived-plane directory %s (%s); "
            "rebuilding from source planes",
            directory,
            error,
        )

    def _build(
        self,
        directory: Path,
        derivation: str,
        version: int,
        params: dict,
        fingerprints: list,
        build: Callable[[PlaneWriter], None],
    ) -> "dict | None":
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(
                prefix=f".build-{directory.name[:12]}-", dir=directory.parent
            )
        )
        try:
            writer = PlaneWriter(staging)
            build(writer)
            entries = writer._finalize()
            manifest = {
                "format": STORAGE_FORMAT,
                "kind": "derived",
                "derivation": derivation,
                "version": int(version),
                "params": params,
                "sources": fingerprints,
                "planes": entries,
            }
            _write_manifest(staging, manifest, file_kind="derived")
            try:
                os.rename(staging, directory)
            except OSError:
                # Lost the commit race: a concurrent process finished
                # this key first. Discard our staging copy and open the
                # winner's (the outer retry loop handles a corrupt one).
                return self._try_open(directory, derivation, version)
            try:
                return _open_derived(directory, derivation, version)
            except StorageError as error:
                # Our own commit reads back corrupt (torn manifest —
                # the corrupt-manifest fault path): quarantine it and
                # let the retry loop rebuild.
                self._quarantine(directory, error)
                return None
        finally:
            shutil.rmtree(staging, ignore_errors=True)


# ----------------------------------------------------------------------
# Ambient store resolution
# ----------------------------------------------------------------------
_STORES: dict[Path, DerivedPlaneStore] = {}
_STORES_LOCK = threading.Lock()


def plane_store_at(root: "str | os.PathLike") -> DerivedPlaneStore:
    """The (process-cached) store rooted at ``root``."""
    root = Path(root)
    with _STORES_LOCK:
        store = _STORES.get(root)
        if store is None:
            store = _STORES[root] = DerivedPlaneStore(root)
        return store


def clear_plane_memo() -> None:
    """Drop every store's in-process memo (cold-vs-warm benchmarking)."""
    with _STORES_LOCK:
        stores = list(_STORES.values())
    for store in stores:
        store.clear_memo()


def _resolve_root(file_sources: list) -> Path:
    env = os.environ.get("REPRO_PLANE_CACHE", "").strip()
    if env:
        return Path(env)
    storage_env = os.environ.get("REPRO_STORAGE_DIR", "").strip()
    if storage_env:
        return Path(storage_env) / "planes"
    for path in file_sources:
        if path is not None:
            return path.parent / "planes"
    return storage_root() / "planes"


def plane_store_for(*sources, nbytes: "int | None" = None):
    """The ambient derived-plane store for these sources, or ``None``.

    ``None`` means "derive in RAM like always": the store is off
    (``REPRO_PLANE_STORE=off``), the derivation is smaller than
    :func:`plane_threshold`, or the run is a RAM-mode run whose sources
    are RAM arrays. Pass the *estimated output bytes* as ``nbytes`` so
    micro-derivations skip the disk round trip.
    """
    if os.environ.get("REPRO_PLANE_STORE", "").strip().lower() in (
        "off",
        "0",
        "disabled",
    ):
        return None
    if nbytes is not None and nbytes < plane_threshold():
        return None
    arrays = [np.asanyarray(source) for source in sources]
    file_sources = [_file_source(array) for array in arrays]
    if active_storage_mode() != "memmap" and not any(
        path is not None for path in file_sources
    ):
        return None
    return plane_store_at(_resolve_root(file_sources))


# ----------------------------------------------------------------------
# Chunk iteration + the structural derivations
# ----------------------------------------------------------------------
def node_blocks(
    indptr: np.ndarray, chunk_arcs: int = DEFAULT_CHUNK_ARCS
) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(first, stop, lo, hi)`` node ranges of ≤ ``chunk_arcs`` arcs.

    Whole adjacency runs only — every chunked builder in this family is
    bit-identical to its one-shot twin *because* runs never straddle a
    block boundary. A run longer than ``chunk_arcs`` gets a block of its
    own (at least one node always advances).
    """
    if chunk_arcs < 1:
        raise StorageError(f"chunk_arcs must be >= 1, got {chunk_arcs}")
    n = len(indptr) - 1
    node = 0
    while node < n:
        stop = (
            int(np.searchsorted(indptr, int(indptr[node]) + chunk_arcs, "right"))
            - 1
        )
        stop = min(max(stop, node + 1), n)
        yield node, stop, int(indptr[node]), int(indptr[stop])
        node = stop


def build_arc_sources(
    writer: PlaneWriter,
    indptr: np.ndarray,
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
) -> None:
    """Chunked out-of-core twin of ``np.repeat(arange(N), diff(indptr))``."""
    indptr = np.asanyarray(indptr)
    out = writer.create("arc_sources", np.int64, (int(indptr[-1]),))
    for first, stop, lo, hi in node_blocks(indptr, chunk_arcs):
        out[lo:hi] = np.repeat(
            np.arange(first, stop, dtype=np.int64),
            np.diff(np.asarray(indptr[first : stop + 1])),
        )


def derived_arc_sources(
    indptr: np.ndarray, chunk_arcs: int = DEFAULT_CHUNK_ARCS
) -> np.ndarray:
    """Source node of every arc for ``indptr``, via the plane store.

    Keyed on the offsets array alone, so two graphs with identical
    ``indptr`` share one plane.
    """
    indptr = np.asanyarray(indptr)
    num_arcs = int(indptr[-1]) if len(indptr) else 0
    store = plane_store_for(indptr, nbytes=num_arcs * 8)
    if store is None:
        return np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
    planes = store.get_or_build(
        "arc-sources",
        sources=(indptr,),
        build=lambda writer: build_arc_sources(writer, indptr, chunk_arcs),
    )
    return planes["arc_sources"]


def _derive(name: str, sources: tuple, nbytes: int, build, **params) -> dict:
    """Run a chunked ``build(writer)`` through the store or, handing it a
    writer of zeroed RAM arrays, in memory: one program for both paths."""
    store = plane_store_for(*sources, nbytes=nbytes)
    if store is not None:
        return store.get_or_build(name, sources=sources, build=build, params=params)
    planes: dict[str, np.ndarray] = {}
    build(SimpleNamespace(create=lambda plane, dtype, shape: planes.setdefault(
        plane, np.zeros(shape, dtype=dtype)
    )))
    return planes


def build_upper_edges(writer, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS) -> None:
    """The ``(2, |E|)`` plane of ``u < v`` edges in CSR order (row 0 is
    ``u``, row 1 ``v``), int32 when the node ids fit."""
    dtype = np.int32 if len(indptr) <= 2**31 else np.int64
    out = writer.create("upper_edges", dtype, (2, len(indices) // 2))
    at = 0
    for first, stop, lo, hi in node_blocks(indptr, chunk_arcs):
        sources = np.repeat(
            np.arange(first, stop), np.diff(np.asarray(indptr[first : stop + 1]))
        )
        targets = np.asarray(indices[lo:hi])
        upper = sources < targets
        count = int(np.count_nonzero(upper))
        out[:, at : at + count] = sources[upper], targets[upper]
        at += count


def derived_upper_edges(indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS) -> np.ndarray:
    """The upper-edge plane of a simple undirected CSR, via the store."""
    planes = _derive(
        "upper-edges",
        (indptr, indices),
        len(indices) * 4,
        lambda writer: build_upper_edges(writer, indptr, indices, chunk_arcs),
    )
    return planes["upper_edges"]


def _histogram_block(labels, num_categories, indptr, indices, block):
    """Block-local ``(rows, categories, counts)`` of the neighbor histogram:
    sorted ``row * C + label`` keys, one entry per run of equal keys."""
    first, stop, lo, hi = block
    keys = np.repeat(
        np.arange(stop - first, dtype=np.int64) * num_categories,
        np.diff(np.asarray(indptr[first : stop + 1])),
    )
    keys += labels[np.asarray(indices[lo:hi])]
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    rows, categories = np.divmod(keys[starts], num_categories)
    return rows, categories, np.diff(starts, append=len(keys))


def build_neighbor_histogram(
    writer, labels, num_categories, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS
) -> None:
    """Every node's neighbor-category histogram, as a CSR of planes.

    Node ``v``'s neighbors fall in ``categories[indptr[v]:indptr[v+1]]``
    (ascending) with multiplicities ``counts[...]``; each plane takes
    the smallest dtype that holds its values. A first pass over the
    node blocks sizes the rows and a second fills them; a graph that
    is one block is histogrammed once.
    """
    graph = (np.asarray(labels), num_categories, indptr, indices)
    blocks = list(node_blocks(indptr, chunk_arcs))
    out_indptr = writer.create(
        "indptr", np.int32 if len(indices) < 2**31 else np.int64, len(indptr)
    )
    max_count = 0
    for block in blocks:
        first, stop = block[:2]
        rows, _, counts = result = _histogram_block(*graph, block)
        out_indptr[first + 1 : stop + 1] = int(out_indptr[first]) + np.cumsum(
            np.bincount(rows, minlength=stop - first)
        )
        max_count = max(max_count, int(counts.max(initial=0)))
    total = int(out_indptr[-1])
    categories = writer.create(
        "categories", np.min_scalar_type(max(num_categories - 1, 0)), total
    )
    counts = writer.create("counts", np.min_scalar_type(max_count), total)
    for block in blocks:
        if len(blocks) > 1:
            result = _histogram_block(*graph, block)
        lo, hi = int(out_indptr[block[0]]), int(out_indptr[block[1]])
        categories[lo:hi], counts[lo:hi] = result[1:]


def derived_neighbor_histogram(
    labels, num_categories, indptr, indices, chunk_arcs=DEFAULT_CHUNK_ARCS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, categories, counts)`` of the neighbor histogram, via the store."""
    planes = _derive(
        "neighbor-histogram",
        (labels, indptr, indices),
        len(indices) * 4,
        lambda writer: build_neighbor_histogram(
            writer, labels, num_categories, indptr, indices, chunk_arcs
        ),
        num_categories=int(num_categories),
    )
    return planes["indptr"], planes["categories"], planes["counts"]
