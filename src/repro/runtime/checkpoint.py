"""Plan-keyed checkpoints: one result file per finished sweep cell.

Each sweep cell of an experiment plan is one replicated Eq. 17
experiment, a pure function of the plan manifest and the cell key
(determinism contract point 1). So the cell is what a checkpoint
persists: :class:`PlanCheckpoint` keys a directory by the plan manifest
(experiment id, cell grid, compile context such as scale preset and
master seed), and :func:`repro.runtime.plan.run_plan` writes each
finished sweep cell's :class:`~repro.stats.replication.SweepResult`
there as ``<cell>.npz``: the sample sizes, the four NRMSE and four
coverage arrays, and the truth category graph. A file's presence is
the record that its cell finished. A killed
``repro experiment fig6 --resume`` replays every finished cell from its
file, without building the cell's substrate, and recomputes the rest.

Every write is atomic (temp file + ``os.replace``), so a kill mid-write
leaves no file rather than a torn one. Every file also embeds a SHA-256
checksum over its arrays; a file that fails verification (truncated by
a full disk, bit-flipped, hand-edited) is *quarantined* by renaming it
to ``<name>.corrupt``, and its cell is recomputed, so a corrupt
checkpoint degrades a resume instead of crashing or poisoning it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np

from repro.exceptions import ReproError
from repro.graph.category_graph import CategoryGraph
from repro.log import get_logger
from repro.runtime import faults, telemetry
from repro.stats.replication import KINDS, SweepResult

__all__ = ["PlanCheckpoint", "manifest_key"]

_LOG = get_logger(__name__)

#: Bump when the on-disk layout changes; part of the manifest key, so
#: files of an older layout land under other plan directories and are
#: never misread. Format 4 holds one result file per sweep cell.
CHECKPOINT_FORMAT = 4

#: The per-kind result fields of a cell file.
_FIELDS = ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage")


def manifest_key(manifest: dict) -> str:
    """Stable short key of a manifest (sorted-key JSON, SHA-256)."""
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


def _save_payload(path: Path, arrays: dict, kind: str) -> None:
    """Atomically write a checksummed npz payload of the given kind.

    ``kind`` is the hook the fault harness matches
    ``corrupt-checkpoint:file=KIND`` directives against: an armed fault
    truncates the file *after* the atomic write, modeling mid-write
    power loss or disk-full torn state that slipped past ``os.replace``.
    """
    arrays = {name: np.asarray(value) for name, value in arrays.items()}
    arrays["checksum"] = np.asarray(_payload_checksum(arrays))
    with telemetry.span(
        "checkpoint.save", cat="checkpoint", kind=kind, file=path.name
    ):
        _atomic_write(path, lambda h: np.savez(h, **arrays))
    telemetry.counter("checkpoint.saves", 1)
    if faults.take("corrupt-checkpoint", file=kind) is not None:
        data = path.read_bytes()
        path.write_bytes(data[: max(len(data) // 2, 1)])


def _safe_cell_name(key: str) -> str:
    """Filesystem-safe file stem for a plan cell key.

    Sanitized names carry a short digest of the raw key so two keys
    that sanitize identically (``"a/b"`` vs ``"a-b"``) cannot share a
    file.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", key) or "cell"
    if safe == key:
        return safe
    return f"{safe}-{hashlib.sha256(key.encode()).hexdigest()[:6]}"


def _result_arrays(result: SweepResult) -> dict:
    """The npz fields of a :class:`SweepResult` (inverse of
    :func:`_result_from`)."""
    truth = result.truth
    arrays = {
        "sample_sizes": result.sample_sizes,
        "truth_sizes": truth.sizes,
        "truth_weights": truth.weights,
        "truth_names": np.asarray(truth.names, dtype=str),
    }
    if truth.cuts is not None:
        arrays["truth_cuts"] = truth.cuts
    for field in _FIELDS:
        for kind in KINDS:
            arrays[f"{field}_{kind}"] = getattr(result, field)[kind]
    return arrays


def _result_from(arrays: dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` from its npz fields.

    Arrays round-trip npz exactly, so the replayed result holds the
    bytes the cell computed.
    """
    truth = CategoryGraph(
        arrays["truth_sizes"],
        arrays["truth_weights"],
        names=tuple(str(name) for name in arrays["truth_names"]),
        cuts=arrays.get("truth_cuts"),
    )
    return SweepResult(
        sample_sizes=arrays["sample_sizes"],
        truth=truth,
        **{
            field: {kind: arrays[f"{field}_{kind}"] for kind in KINDS}
            for field in _FIELDS
        },
    )


class PlanCheckpoint:
    """One experiment plan's checkpoint directory (see module docstring).

    Parameters
    ----------
    root:
        The user-facing checkpoint root; the plan lives in
        ``root / f"plan-{key}"``.
    manifest:
        JSON-serializable description of the plan (experiment id, cell
        keys, compile context); its key names the directory, and it is
        stored as ``plan.json`` for inspection.
    resume:
        When false, the directory's files from an earlier run are
        cleared first, so a fresh run never trusts them.
    """

    def __init__(self, root: "str | os.PathLike", manifest: dict, resume: bool):
        self.manifest = dict(manifest, format=CHECKPOINT_FORMAT)
        self.key = manifest_key(self.manifest)
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

    def cell_path(self, key: str) -> Path:
        """The result file of one plan cell."""
        return self.directory / f"{_safe_cell_name(key)}.npz"

    def load_cell(self, key: str) -> "SweepResult | None":
        """The finished cell's :class:`SweepResult`, or ``None``.

        ``None`` when the cell never finished; a corrupt file is
        quarantined first, so the cell is recomputed and rewritten.
        """
        path = self.cell_path(key)
        arrays = _load_verified(path)
        if arrays is None:
            return None
        try:
            return _result_from(arrays)
        except (KeyError, ValueError, ReproError):
            _quarantine(path)
            return None

    def save_cell(self, key: str, result: SweepResult) -> None:
        """Persist a finished sweep cell's result (atomic, checksummed)."""
        _save_payload(self.cell_path(key), _result_arrays(result), kind="cell")
