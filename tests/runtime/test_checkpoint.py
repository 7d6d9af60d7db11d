"""Cell-grain checkpoints: a killed plan resumes bit-identically.

The scenario the subsystem exists for: a paper-scale plan dies while a
cell is in flight. Every finished sweep cell has written its result to
one checksummed file under the plan-keyed directory; re-running with
``resume=True`` must (a) replay those cells from their files rather
than recomputing them and (b) finish with output bit-identical to the
uninterrupted run — whichever executor wrote the checkpoint and
whichever resumes it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.plan import SweepCell, SweepJob, SweepPlan
from repro.generators import planted_category_graph
from repro.runtime.checkpoint import CHECKPOINT_FORMAT, _payload_checksum
from repro.runtime.plan import run_plan
from repro.sampling import RandomWalkSampler, StratifiedWeightedWalkSampler

from tests.runtime.test_executor import assert_sweeps_equal

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 5
CELLS = ("swrw", "rw", "crawls")


def _plan(seed=SEED):
    """Three sweep cells over one planted graph: two fresh-draw designs
    and one pre-drawn, cross-sample cell."""

    def world():
        return planted_category_graph(k=6, scale=60, rng=7)

    def fresh(design):
        def build(resources):
            graph, partition = resources["world"]
            sampler = (
                StratifiedWeightedWalkSampler(graph, partition)
                if design == "swrw"
                else RandomWalkSampler(graph)
            )
            return SweepJob(
                graph=graph,
                partition=partition,
                sizes=LADDER,
                sampler=sampler,
                replications=REPLICATIONS,
                rng=seed,
            )

        return build

    def crawls(resources):
        graph, partition = resources["world"]
        samples = RandomWalkSampler(graph).sample_many(
            LADDER[-1], REPLICATIONS, rng=seed + 1
        )
        return SweepJob(
            graph=graph,
            partition=partition,
            sizes=LADDER,
            samples=list(samples),
            truth_mode="cross-sample",
        )

    builds = {"swrw": fresh("swrw"), "rw": fresh("rw"), "crawls": crawls}
    return SweepPlan(
        name="checkpoint-probe",
        cells=tuple(
            SweepCell(key=key, build=builds[key], needs=("world",))
            for key in CELLS
        ),
        resources={"world": world},
        context={"seed": seed},
    )


def _run(root=None, *, workers=None, resume=False, seed=SEED):
    return run_plan(
        _plan(seed),
        executor="serial" if workers is None else "process",
        workers=workers,
        checkpoint=root,
        resume=resume,
    )


def _assert_plans_equal(expected, actual, context):
    assert list(expected) == list(actual), context
    for key in expected:
        assert_sweeps_equal(expected[key], actual[key], f"{context}: {key}")


@pytest.fixture(scope="module")
def serial():
    return _run()


def _plan_dir(root):
    (plan_dir,) = root.glob("plan-*")
    return plan_dir


@pytest.mark.usefixtures("no_env_faults")
def test_checkpointed_run_writes_manifest_and_cell_files(serial, tmp_path):
    result = _run(tmp_path, workers=2)
    _assert_plans_equal(serial, result, "checkpointed run")
    plan_dir = _plan_dir(tmp_path)
    names = sorted(path.name for path in plan_dir.iterdir())
    assert names == sorted(["plan.json"] + [f"{key}.npz" for key in CELLS])
    manifest = json.loads((plan_dir / "plan.json").read_text())
    assert manifest["plan"] == "checkpoint-probe"
    assert manifest["cells"] == list(CELLS)
    assert manifest["format"] == CHECKPOINT_FORMAT == 4
    # The file holds the cell's SweepResult, byte for byte.
    with np.load(plan_dir / "swrw.npz") as data:
        assert data["sample_sizes"].tolist() == list(LADDER)
        for field in ("size_nrmse", "weight_nrmse", "size_coverage"):
            for kind in ("induced", "star"):
                want = getattr(serial["swrw"], field)[kind]
                got = data[f"{field}_{kind}"]
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (field, kind)
        np.testing.assert_array_equal(
            data["truth_weights"], serial["swrw"].truth.weights
        )
        assert tuple(data["truth_names"]) == serial["swrw"].truth.names


@pytest.mark.parametrize(
    "writer, resumer",
    [(None, 3), (3, None)],
    ids=["serial-then-3-workers", "3-workers-then-serial"],
)
def test_killed_mid_cell_resumes_bit_identically(
    serial, tmp_path, writer, resumer
):
    """A kill during cell 1 leaves cell 0's file only; the resumed run,
    on the other executor, replays cell 0 and recomputes the rest."""
    _run(tmp_path, workers=writer)
    plan_dir = _plan_dir(tmp_path)
    for key in CELLS[1:]:
        (plan_dir / f"{key}.npz").unlink()
    resumed = _run(tmp_path, workers=resumer, resume=True)
    _assert_plans_equal(serial, resumed, "resume after a mid-cell kill")
    for key in CELLS:
        assert (plan_dir / f"{key}.npz").exists(), key


@pytest.mark.usefixtures("no_env_faults")
def test_resume_really_reads_the_checkpoint(serial, tmp_path):
    """A tampered cell file (with a valid checksum) surfaces on resume.

    The tamper re-stamps the payload checksum, modeling a result that
    was *computed* differently rather than corrupted on disk — the one
    case the integrity layer must NOT mask, or this test could pass
    with a resume path that silently recomputes everything.
    """
    _run(tmp_path)
    path = _plan_dir(tmp_path) / "swrw.npz"
    data = dict(np.load(path))
    data.pop("checksum")
    data["size_nrmse_induced"] = data["size_nrmse_induced"] + 1.0
    data["checksum"] = np.asarray(_payload_checksum(data))
    np.savez(path, **data)
    tampered = _run(tmp_path, workers=2, resume=True)
    assert not np.array_equal(
        serial["swrw"].size_nrmse["induced"],
        tampered["swrw"].size_nrmse["induced"],
        equal_nan=True,
    ), "resume ignored the persisted cell"
    # A fresh (resume=False) run clears the directory and recomputes.
    fresh = _run(tmp_path, workers=2)
    _assert_plans_equal(serial, fresh, "fresh run after tampering")


@pytest.mark.usefixtures("no_env_faults")
def test_checksumless_rewrite_is_quarantined_and_recomputed(serial, tmp_path):
    """A cell file failing checksum verification degrades, not poisons.

    Rewriting the file without a checksum models on-disk corruption
    (bit rot, a hand edit): the resumed run must quarantine the file as
    ``*.corrupt``, recompute the cell, and still match serial exactly.
    """
    _run(tmp_path, workers=2)
    path = _plan_dir(tmp_path) / "rw.npz"
    data = dict(np.load(path))
    data.pop("checksum")
    data["size_nrmse_induced"] = data["size_nrmse_induced"] + 1.0
    np.savez(path, **data)
    resumed = _run(tmp_path, resume=True)
    _assert_plans_equal(serial, resumed, "resume past a quarantined cell")
    assert path.with_name("rw.npz.corrupt").exists()
    assert path.exists(), "the cell was not rewritten"


def test_torn_cell_file_is_quarantined_and_recomputed(serial, tmp_path):
    """A cell file cut short (a torn write) is quarantined, and the
    cell recomputed and rewritten."""
    _run(tmp_path)
    path = _plan_dir(tmp_path) / "crawls.npz"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    resumed = _run(tmp_path, workers=2, resume=True)
    _assert_plans_equal(serial, resumed, "resume past a torn cell")
    assert path.with_name("crawls.npz.corrupt").exists()
    with np.load(path) as rewritten:
        assert "checksum" in rewritten.files


def test_different_seeds_use_different_manifest_directories(tmp_path):
    _run(tmp_path, seed=SEED)
    _run(tmp_path, seed=SEED + 1)
    plan_dirs = sorted(tmp_path.glob("plan-*"))
    assert len(plan_dirs) == 2
    # The fresh seed-(SEED + 1) run left the seed-SEED files alone.
    for plan_dir in plan_dirs:
        assert len(list(plan_dir.glob("*.npz"))) == len(CELLS)


def test_fresh_checkpoint_clears_stale_files(serial, tmp_path):
    _run(tmp_path)
    plan_dir = _plan_dir(tmp_path)
    stale = [plan_dir / "gone.npz", plan_dir / "rw.npz.corrupt"]
    for path in stale:
        path.write_bytes(b"stale")
    before = (plan_dir / "swrw.npz").stat().st_mtime_ns
    fresh = _run(tmp_path, workers=2)
    _assert_plans_equal(serial, fresh, "fresh run over stale files")
    assert not any(path.exists() for path in stale)
    assert (plan_dir / "swrw.npz").stat().st_mtime_ns != before, (
        "a fresh run must rewrite, not replay, its cells"
    )


@pytest.mark.usefixtures("no_env_faults")
def test_fully_checkpointed_sweep_replays_without_resampling(
    serial, tmp_path, monkeypatch
):
    """Resuming a *finished* plan is a pure replay from the cell files:
    no sampler draws a single replicate."""
    from repro.sampling.base import Sampler

    _run(tmp_path, workers=2)

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a replayed plan resampled")

    monkeypatch.setattr(Sampler, "sample_many", explode)
    replayed = _run(tmp_path, resume=True)
    _assert_plans_equal(serial, replayed, "pure replay")


@pytest.mark.usefixtures("no_env_faults")
def test_resume_skips_the_observation_rebuild(serial, tmp_path, monkeypatch):
    """A resumed plan never re-measures a finished cell's samples.

    ``observe_both`` is monkeypatched to explode; fork-context workers
    inherit the patch, so bit-identical resumed output proves no
    observation pass ran, in the driver or in a worker. The persistent
    pool is reset after patching so the resumed run forks *fresh*
    workers that carry the tripwire (pooled workers pre-date the
    patch).
    """
    from repro.runtime.pool import reset_default_pools

    _run(tmp_path)

    import repro.stats.prefix as prefix_module

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("resume rebuilt observe_both")

    monkeypatch.setattr(prefix_module, "observe_both", explode)
    reset_default_pools()
    try:
        resumed = _run(tmp_path, workers=2, resume=True)
    finally:
        reset_default_pools()
    _assert_plans_equal(serial, resumed, "observation-free resume")
