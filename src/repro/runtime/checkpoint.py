"""Manifest-keyed checkpoints for paper-scale sweeps and plans.

A paper-scale NRMSE sweep is hours of sampling plus a ladder of
estimation rungs. The executor checkpoints it at three grains inside a
per-sweep directory under the user's checkpoint root:

* ``samples.npz`` — the replicate draw matrices, written once after the
  sampling phase (a killed run resumes estimation without re-walking);
* ``observations.npz`` — the compressed ``observe_both`` measurement of
  every replicate (distinct-node tables, neighbor CSR histograms,
  induced edges), written once after the workers build their ladders.
  On resume the workers seed their prefix ladders straight from these
  arrays instead of re-running the per-replicate observation pass —
  at paper scale the dominant cost of restarting estimation;
* ``rung_<k>.npz`` — the per-replicate estimate rows of ladder rung
  ``k``, one file per completed rung (the resume grain the CLI's
  ``--resume`` promises: a run killed after rung ``k`` recomputes
  nothing up to and including ``k``);
* ``truth.npz`` — the truth category graph the sweep reduces against,
  written once. With the manifest and a full set of rung files this
  makes the sweep *replayable without its substrate*
  (:func:`repro.runtime.executor.replay_sweep`): a resumed plan
  rebuilds neither the world nor the sampler for a completed cell.

The directory name embeds a *manifest key*: a SHA-256 over everything
that determines the sweep's output bit-for-bit — design, replicate
seeds (or pre-drawn sample fingerprints), ladder, estimator knobs, and
content fingerprints of the graph, partition, and sampler state. Any
drift (different seed, edited graph, new sampler parameters) changes
the key, so a stale checkpoint can never leak rows into a non-matching
run; ``resume=False`` additionally clears a matching directory so a
fresh run never trusts old files.

One level up, :class:`PlanCheckpoint` keys a whole experiment plan
(:mod:`repro.experiments.plan`): each sweep cell checkpoints into its
own subdirectory of a plan-keyed directory, and completed cells record
their sweep manifest key in the plan's ``cells.json``, so a killed
``repro experiment fig6 --resume`` replays every completed cell from
its rung files — without rebuilding the cell's substrate — and resumes
computing at the first missing cell/rung.

All writes are atomic (temp file + ``os.replace``), so a kill mid-write
leaves either the previous state or the new one, never a torn file.
Every payload additionally embeds a SHA-256 checksum over its arrays;
readers verify it and *quarantine* any file that fails (truncated by a
full disk, bit-flipped, or hand-edited) by renaming it to
``<name>.corrupt`` — the affected rung/observations are then simply
recomputed, so a corrupt checkpoint degrades a resume instead of
crashing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import threading
from pathlib import Path

import numpy as np

from repro.log import get_logger
from repro.runtime import faults, telemetry

__all__ = [
    "PlanCheckpoint",
    "SweepCheckpoint",
    "manifest_key",
    "read_rung",
    "read_truth",
]

_LOG = get_logger(__name__)

#: Bump when the on-disk layout changes; part of the manifest key.
#: Format 3 added embedded payload checksums, so format-2 files (no
#: checksum) land under different manifest keys and are never misread
#: as corrupt format-3 payloads.
CHECKPOINT_FORMAT = 3

#: The stack row fields stored per rung, in file order.
_ROW_FIELDS = ("sizes_induced", "sizes_star", "weights_induced", "weights_star")

#: Per-replicate array fields of a serialized ``observe_both`` pair.
#: The base fields are shared by both observation views (they are built
#: from one draw compression); the star CSR and induced edges complete
#: the pair. ``design``/``uniform`` ride along as 0-d arrays.
OBSERVATION_FIELDS = (
    "draw_to_distinct",
    "distinct_nodes",
    "distinct_categories",
    "distinct_multiplicities",
    "distinct_weights",
    "induced_edges",
    "distinct_degrees",
    "neighbor_indptr",
    "neighbor_categories",
    "neighbor_counts",
    "design",
    "uniform",
    "num_draws",
)


def manifest_key(manifest: dict) -> str:
    """Stable short key of a sweep manifest (sorted-key JSON, SHA-256)."""
    canonical = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _atomic_write(path: Path, writer) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        writer(handle)
    os.replace(tmp, path)


def _payload_checksum(arrays: "dict[str, np.ndarray]") -> str:
    """SHA-256 over a payload's arrays (name + dtype + shape + bytes).

    Field order is canonicalized by sorting names, so the checksum is a
    pure function of the payload contents — the same digest whether it
    is computed before a save or after a verified load.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.asarray(arrays[name])
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _quarantine(path: Path) -> None:
    """Move a corrupt payload aside as ``<name>.corrupt`` (or drop it).

    The rename preserves the evidence for postmortems while clearing
    the canonical name so the runtime recomputes and rewrites it; if
    even the rename fails the file is unlinked — a corrupt checkpoint
    must never be re-read as truth.
    """
    target = path.with_name(path.name + ".corrupt")
    _LOG.warning("quarantining corrupt checkpoint payload %s", path)
    telemetry.counter("checkpoint.quarantined", 1)
    telemetry.instant("checkpoint.quarantine", cat="checkpoint", file=str(path))
    try:
        os.replace(path, target)
    except OSError:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced cleanup
            pass


def _load_verified(path: Path) -> "dict[str, np.ndarray] | None":
    """Load an npz payload and verify its embedded checksum.

    Returns the payload's arrays (checksum field stripped), or ``None``
    after quarantining the file when it is unreadable, missing its
    checksum, or fails verification. A missing file is plain ``None``.
    """
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except Exception:
        _quarantine(path)
        return None
    stored = arrays.pop("checksum", None)
    if stored is None or str(stored) != _payload_checksum(arrays):
        _quarantine(path)
        return None
    return arrays


def _save_payload(
    path: Path, arrays: dict, kind: str, compressed: bool = False
) -> None:
    """Atomically write a checksummed npz payload of the given kind.

    ``kind`` (``rung``/``observations``/``samples``/``truth``) is the
    hook the fault harness matches ``corrupt-checkpoint:file=KIND``
    directives against: an armed fault truncates the file *after* the
    atomic write, modeling mid-write power loss or disk-full torn state
    that slipped past ``os.replace``.
    """
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    arrays["checksum"] = np.asarray(_payload_checksum(arrays))
    save = np.savez_compressed if compressed else np.savez
    with telemetry.span(
        "checkpoint.save", cat="checkpoint", kind=kind, file=path.name
    ):
        _atomic_write(path, lambda h: save(h, **arrays))
    telemetry.counter("checkpoint.saves", 1)
    if faults.take("corrupt-checkpoint", file=kind) is not None:
        data = path.read_bytes()
        path.write_bytes(data[: max(len(data) // 2, 1)])


def read_rung(path: Path, size: int) -> "tuple[np.ndarray, ...] | None":
    """Rows of one persisted rung file, or ``None`` if absent/mismatched.

    Module-level so :func:`repro.runtime.executor.replay_sweep` can
    read a recorded sweep directory without opening (and therefore
    re-fingerprinting) a :class:`SweepCheckpoint`. A corrupt file is
    quarantined; a *valid* file whose rung size disagrees with the
    requested ladder is left in place and simply not used.
    """
    arrays = _load_verified(path)
    if arrays is None:
        return None
    try:
        if int(arrays["size"]) != int(size):
            return None
        telemetry.counter("checkpoint.rungs_loaded", 1)
        return tuple(arrays[field] for field in _ROW_FIELDS)
    except (KeyError, ValueError):
        _quarantine(path)
        return None


def read_truth(directory: Path, names: tuple) -> "object | None":
    """The persisted truth category graph of a sweep directory.

    Rebuilds the :class:`~repro.graph.category_graph.CategoryGraph` a
    run reduced against from ``truth.npz`` (see
    :meth:`SweepCheckpoint.save_truth`); arrays round-trip npz exactly,
    so a replayed reduction is bit-identical to the original one.
    """
    from repro.graph.category_graph import CategoryGraph

    path = directory / "truth.npz"
    arrays = _load_verified(path)
    if arrays is None:
        return None
    try:
        return CategoryGraph(
            arrays["sizes"],
            arrays["weights"],
            names=names,
            cuts=arrays.get("cuts"),
        )
    except (KeyError, ValueError):
        _quarantine(path)
        return None


class SweepCheckpoint:
    """One sweep's checkpoint directory (see module docstring).

    Parameters
    ----------
    root:
        The user-facing checkpoint root; the sweep lives in
        ``root / f"sweep-{key}"``.
    manifest:
        JSON-serializable description of everything output-determining;
        stored alongside the data for inspection and validated against
        the directory name on resume.
    resume:
        When false, an existing matching directory is cleared first.
    """

    def __init__(self, root: "str | os.PathLike", manifest: dict, resume: bool):
        self.manifest = dict(manifest, format=CHECKPOINT_FORMAT)
        self.key = manifest_key(self.manifest)
        self.directory = Path(root) / f"sweep-{self.key}"
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / "manifest.json"
        if not resume:
            self._clear()
        elif manifest_path.exists():
            try:
                stored = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                stored = None
            if stored != self.manifest:  # pragma: no cover - key collision
                self._clear()
        payload = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(manifest_path, lambda h: h.write(payload.encode()))

    def _clear(self) -> None:
        for pattern in ("*.npz", "*.tmp", "*.corrupt"):
            for stale in self.directory.glob(pattern):
                stale.unlink()

    # ------------------------------------------------------------------
    # Samples (written once, after the sampling phase)
    # ------------------------------------------------------------------
    @property
    def samples_path(self) -> Path:
        return self.directory / "samples.npz"

    def load_samples(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """The checkpointed ``(nodes, weights)`` matrices, if present."""
        arrays = _load_verified(self.samples_path)
        if arrays is None:
            return None
        try:
            return arrays["nodes"], arrays["weights"]
        except KeyError:
            _quarantine(self.samples_path)
            return None

    def save_samples(self, nodes: np.ndarray, weights: np.ndarray) -> None:
        _save_payload(
            self.samples_path,
            {"nodes": nodes, "weights": weights},
            kind="samples",
        )

    # ------------------------------------------------------------------
    # Observations (written once, after the ladder-build phase)
    # ------------------------------------------------------------------
    @property
    def observations_path(self) -> Path:
        return self.directory / "observations.npz"

    def load_observations(self, expected: int) -> "list[dict] | None":
        """Per-replicate observation field dicts, if present and complete.

        ``expected`` is the replication count; a file from a run with a
        different count (impossible under matching manifests, but cheap
        to verify) is ignored rather than trusted.
        """
        arrays = _load_verified(self.observations_path)
        if arrays is None:
            return None
        try:
            if int(arrays["count"]) != int(expected):
                return None
            return [
                {f: arrays[f"r{rep:04d}_{f}"] for f in OBSERVATION_FIELDS}
                for rep in range(expected)
            ]
        except (KeyError, ValueError):
            _quarantine(self.observations_path)
            return None

    def save_observations(self, observations: "list[dict]") -> None:
        """Persist per-replicate observation fields (compressed npz)."""
        arrays = {"count": np.int64(len(observations))}
        for rep, fields in enumerate(observations):
            for f in OBSERVATION_FIELDS:
                arrays[f"r{rep:04d}_{f}"] = np.asarray(fields[f])
        _save_payload(
            self.observations_path,
            arrays,
            kind="observations",
            compressed=True,
        )

    # ------------------------------------------------------------------
    # Truth arrays (written once; enable substrate-free replay)
    # ------------------------------------------------------------------
    @property
    def truth_path(self) -> Path:
        return self.directory / "truth.npz"

    def save_truth(self, truth) -> None:
        """Persist the truth category graph the sweep reduces against.

        Together with the manifest (sizes, replication count, category
        names, truth mode) and the rung files, this makes a completed
        sweep replayable by :func:`repro.runtime.executor.replay_sweep`
        without rebuilding its substrate. Written once — under a
        matching manifest the truth is identical by construction.
        """
        if self.truth_path.exists():
            return
        arrays = {"sizes": truth.sizes, "weights": truth.weights}
        if truth.cuts is not None:
            arrays["cuts"] = truth.cuts
        _save_payload(self.truth_path, arrays, kind="truth")

    # ------------------------------------------------------------------
    # Rung rows (one file per completed ladder rung)
    # ------------------------------------------------------------------
    def rung_path(self, rung_index: int) -> Path:
        return self.directory / f"rung_{rung_index:03d}.npz"

    def load_rung(
        self, rung_index: int, size: int
    ) -> "tuple[np.ndarray, ...] | None":
        """Rows of a completed rung, or ``None`` if absent/mismatched."""
        return read_rung(self.rung_path(rung_index), size)

    def save_rung(self, rung_index: int, size: int, rows: tuple) -> None:
        arrays = dict(zip(_ROW_FIELDS, rows), size=np.int64(size))
        _save_payload(self.rung_path(rung_index), arrays, kind="rung")

    def completed_rungs(self, sizes) -> list[int]:
        """Indices of rungs with a valid checkpoint file, given the ladder."""
        return [
            si
            for si, size in enumerate(sizes)
            if self.load_rung(si, int(size)) is not None
        ]


def _safe_cell_name(key: str) -> str:
    """Filesystem-safe directory name for a plan cell key.

    Sanitized names carry a short digest of the raw key so two keys
    that sanitize identically (``"a/b"`` vs ``"a-b"``) cannot share a
    directory.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", key) or "cell"
    if safe == key:
        return safe
    return f"{safe}-{hashlib.sha256(key.encode()).hexdigest()[:6]}"


class PlanCheckpoint:
    """One experiment plan's checkpoint directory.

    The plan layer above :class:`SweepCheckpoint`: the directory name
    keys the *plan* manifest (experiment id, cell keys, scale, master
    seed), and each sweep cell receives its own subdirectory to use as
    its sweep-checkpoint root — inside which the cell's executor run
    creates its own manifest-keyed sweep directory. Safety is therefore
    double-keyed: a stale plan cannot be resumed under a different cell
    grid, and a stale cell cannot leak rows into a sweep whose seeds,
    substrate, or estimator knobs drifted.

    Resume semantics fall out of the layering: cells whose sweeps are
    fully checkpointed replay from their rung files without spawning
    workers, and the first cell with a missing rung resumes computing
    exactly there. Completed cells additionally record their sweep
    manifest key in ``cells.json`` (:meth:`record_cell`), which is what
    lets a resumed plan replay a fully rung-cached cell via
    :func:`repro.runtime.executor.replay_sweep` without rebuilding its
    substrate just to re-derive that key.

    Thread-safe: cell registry writes are serialized by a lock (cell
    *data* needs none — every cell owns a disjoint directory).
    """

    def __init__(self, root: "str | os.PathLike", manifest: dict, resume: bool):
        self.manifest = dict(manifest, format=CHECKPOINT_FORMAT)
        self.key = manifest_key(self.manifest)
        self._cells_lock = threading.Lock()
        self.directory = Path(root) / f"plan-{self.key}"
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / "plan.json"
        if not resume:
            self._clear()
        elif manifest_path.exists():
            try:
                stored = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                stored = None
            if stored != self.manifest:  # pragma: no cover - key collision
                self._clear()
        payload = json.dumps(self.manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(manifest_path, lambda h: h.write(payload.encode()))

    def _clear(self) -> None:
        for stale in self.directory.iterdir():
            if stale.is_dir():
                shutil.rmtree(stale)
            elif stale.name != "plan.json":
                stale.unlink()

    def cell_root(self, key: str) -> Path:
        """The sweep-checkpoint root directory for one plan cell."""
        return self.directory / _safe_cell_name(key)

    # ------------------------------------------------------------------
    # Completed-cell registry (substrate-free resume)
    # ------------------------------------------------------------------
    @property
    def cells_path(self) -> Path:
        return self.directory / "cells.json"

    def recorded_cells(self) -> dict[str, str]:
        """``{cell key: sweep manifest key}`` of completed cells."""
        try:
            mapping = json.loads(self.cells_path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return mapping if isinstance(mapping, dict) else {}

    def record_cell(self, cell_key: str, sweep_key: str) -> None:
        """Record a completed cell's sweep manifest key (thread-safe).

        The recorded key is *trusted* by the substrate-free replay path
        (under this plan's own manifest key), so callers must record
        only after the sweep is fully checkpointed — a key always names
        a complete, replayable directory or replay falls back to the
        build-and-fingerprint path.
        """
        with self._cells_lock:
            mapping = self.recorded_cells()
            if mapping.get(cell_key) == sweep_key:
                return
            mapping[cell_key] = sweep_key
            payload = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
            _atomic_write(
                self.cells_path, lambda h: h.write(payload.encode())
            )
