"""Replicate rows return through shared-memory reply slots.

Each shard of a process sweep writes its ``j``-th replicate's rows, at
every rung, into slot ``j % 2`` of its own reply block, and the driver
folds them from there. The slots are reused every other replicate of a
shard, so any row the reduction keeps past its fold (the cross-sample
pseudo-truth's held blocks) must be copied out first: the sweeps below
give each shard enough replicates to reuse a slot and must equal the
serial sweep byte for byte, also as the cell of a checkpointed plan,
whose file on disk must hold those bytes too. The reply itself names
only the replicate, and every reply block is unlinked, on every exit
path the runtime recovers from.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.plan import SweepCell, SweepJob, SweepPlan
from repro.generators import planted_category_graph
from repro.runtime import faults, pool, sharedmem
from repro.runtime.executor import ProcessSweepExecutor
from repro.runtime.plan import run_plan
from repro.runtime.pool import reset_default_pools
from repro.sampling import RandomWalkSampler
from repro.stats import run_nrmse_sweep, run_nrmse_sweep_from_samples

LADDER = (40, 120, 240, 360)
#: Three replicates per shard at 2 workers: each shard's third
#: overwrites the slot its first used.
REPLICATIONS = 6
SEED = 4321
FIELDS = ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage")


@pytest.fixture(scope="module")
def world():
    return planted_category_graph(k=6, scale=60, rng=7)


@pytest.fixture(scope="module")
def crawls(world):
    graph, _ = world
    return list(
        RandomWalkSampler(graph).sample_many(LADDER[-1], REPLICATIONS, rng=SEED)
    )


def assert_bytes_equal(serial, parallel, context):
    for attr in FIELDS:
        for kind in ("induced", "star"):
            got = getattr(parallel, attr)[kind]
            want = getattr(serial, attr)[kind]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f"{context}: {attr}[{kind}]"


def run_as_cell(job, checkpoint):
    """``job`` as the one cell of a plan at 2 workers, checkpointed
    under ``checkpoint`` unless it is ``None``."""
    plan = SweepPlan(
        name="slots",
        cells=(SweepCell(key="only", build=lambda resources: job),),
        context={"seed": SEED},
    )
    return run_plan(plan, executor="process", workers=2, checkpoint=checkpoint)[
        "only"
    ]


def assert_cell_file_bytes(root, expected):
    with np.load(next(root.glob("plan-*")) / "only.npz") as data:
        for attr in FIELDS:
            for kind in ("induced", "star"):
                got, want = data[f"{attr}_{kind}"], getattr(expected, attr)[kind]
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), f"file {attr}[{kind}]"


# ----------------------------------------------------------------------
# Slot reuse: rows kept past their fold are copies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("checkpoint", [False, True])
@pytest.mark.parametrize("truth_mode", ["exact", "cross-sample"])
def test_predrawn_sweeps_survive_slot_reuse(
    world, crawls, tmp_path, truth_mode, checkpoint, request
):
    if checkpoint:
        request.getfixturevalue("no_env_faults")
    graph, partition = world
    serial = run_nrmse_sweep_from_samples(
        graph, partition, crawls, LADDER, executor="serial",
        truth_mode=truth_mode,
    )
    job = SweepJob(
        graph=graph, partition=partition, sizes=LADDER, samples=crawls,
        truth_mode=truth_mode,
    )
    parallel = run_as_cell(job, tmp_path if checkpoint else None)
    assert_bytes_equal(serial, parallel, f"{truth_mode}, checkpoint={checkpoint}")
    if checkpoint:
        assert_cell_file_bytes(tmp_path, serial)


@pytest.mark.usefixtures("no_env_faults")
def test_checkpointed_fresh_draw_rungs_survive_slot_reuse(world, tmp_path):
    graph, partition = world
    serial = run_nrmse_sweep(
        graph, partition, RandomWalkSampler(graph), LADDER,
        replications=REPLICATIONS, rng=SEED, executor="serial",
    )
    job = SweepJob(
        graph=graph, partition=partition, sizes=LADDER,
        sampler=RandomWalkSampler(graph), replications=REPLICATIONS, rng=SEED,
    )
    parallel = run_as_cell(job, tmp_path)
    assert_bytes_equal(serial, parallel, "checkpointed fresh draw")
    assert_cell_file_bytes(tmp_path, serial)


@pytest.mark.parametrize("truth_mode", ["exact", "cross-sample"])
def test_many_rungs_on_more_shards_than_cores(world, crawls, truth_mode):
    """Twelve rungs on six single-replicate shards racing the driver on
    a small box; a heartbeat deadline bounds the run if a shard ever
    stalls."""
    graph, partition = world
    ladder = tuple(range(30, LADDER[-1] + 1, 30))
    serial = run_nrmse_sweep_from_samples(
        graph, partition, crawls, ladder, executor="serial",
        truth_mode=truth_mode,
    )
    executor = ProcessSweepExecutor(workers=REPLICATIONS, task_timeout=30)
    parallel = run_nrmse_sweep_from_samples(
        graph, partition, crawls, ladder, executor=executor,
        truth_mode=truth_mode,
    )
    assert_bytes_equal(serial, parallel, f"12 rungs, {truth_mode}")
    assert not executor.failover_log


# ----------------------------------------------------------------------
# The mechanism: no rows on the pipe
# ----------------------------------------------------------------------
def test_rows_replies_carry_no_array(world, crawls, monkeypatch):
    graph, partition = world
    replies = []
    parse_reply = pool.parse_reply

    def recording_parse_reply(message, expected, index):
        if message[0] == "rows":
            replies.append(message)
        return parse_reply(message, expected, index)

    monkeypatch.setattr(pool, "parse_reply", recording_parse_reply)
    parallel = run_nrmse_sweep_from_samples(
        graph, partition, crawls, LADDER, executor="process", workers=2
    )
    monkeypatch.undo()
    serial = run_nrmse_sweep_from_samples(
        graph, partition, crawls, LADDER, executor="serial"
    )
    assert_bytes_equal(serial, parallel, "rows through the slots")
    assert sorted(message[1:] for message in replies) == [
        (r,) for r in range(REPLICATIONS)
    ]
    for message in replies:
        assert not any(isinstance(part, np.ndarray) for part in message)


# ----------------------------------------------------------------------
# No reply block outlives its run
# ----------------------------------------------------------------------
@pytest.fixture
def run_blocks(monkeypatch):
    """Names of every shared-memory block the run's pools made, and of
    the reply blocks among them, recorded as each pool closes."""
    names, replies = set(), set()
    allocate, close = sharedmem.SharedArrayPool.allocate, sharedmem.SharedArrayPool.close

    def recording_allocate(self, shape, dtype=np.float64):
        token = allocate(self, shape, dtype)
        replies.add(token[1])
        return token

    def recording_close(self):
        names.update(self.block_names)
        close(self)

    monkeypatch.setattr(sharedmem.SharedArrayPool, "allocate", recording_allocate)
    monkeypatch.setattr(sharedmem.SharedArrayPool, "close", recording_close)
    return names, replies


def assert_no_block_left(run_blocks, shards):
    names, replies = run_blocks
    assert len(replies) >= shards, "the run allocated no reply blocks"
    assert replies <= names, "a reply block's pool was never closed"
    shm = Path("/dev/shm")
    if shm.is_dir():
        left = sorted(name for name in names if (shm / name).exists())
        assert not left, f"blocks left in /dev/shm: {left}"
    # Nor does the driver keep a mapping of one.
    assert not names & set(sharedmem._ATTACHED), "driver still maps a block"


def predrawn_sweep(world, crawls, executor):
    graph, partition = world
    return run_nrmse_sweep_from_samples(
        graph, partition, crawls, LADDER, executor=executor
    )


@pytest.fixture(scope="module")
def serial_predrawn(world, crawls):
    return predrawn_sweep(world, crawls, "serial")


def test_a_clean_sweep_leaves_no_block(world, crawls, serial_predrawn, run_blocks):
    result = predrawn_sweep(world, crawls, ProcessSweepExecutor(workers=2))
    assert_bytes_equal(serial_predrawn, result, "clean")
    assert_no_block_left(run_blocks, 2)


def test_a_killed_worker_leaves_no_block(
    world, crawls, serial_predrawn, run_blocks, monkeypatch
):
    # A fresh budget for the environment plan, whatever ran before.
    monkeypatch.setattr(faults, "_ENV_PLANS", {})
    monkeypatch.setenv("REPRO_FAULTS", "kill-worker:replicate=2,shard=1")
    executor = ProcessSweepExecutor(workers=2)
    result = predrawn_sweep(world, crawls, executor)
    assert [entry["slot"] for entry in executor.failover_log] == [1]
    assert_bytes_equal(serial_predrawn, result, "killed at replicate 5")
    assert_no_block_left(run_blocks, 2)


@pytest.mark.usefixtures("no_env_faults")
def test_a_condemned_hung_worker_leaves_no_block(
    world, crawls, serial_predrawn, run_blocks
):
    executor = ProcessSweepExecutor(workers=2, task_timeout=0.75)
    with faults.inject("hang-worker:shard=0"):
        result = predrawn_sweep(world, crawls, executor)
    assert any(entry["timeout"] for entry in executor.failover_log)
    assert_bytes_equal(serial_predrawn, result, "hung and condemned")
    assert_no_block_left(run_blocks, 2)


@pytest.mark.usefixtures("no_env_faults")
def test_in_process_degradation_leaves_no_block(
    world, crawls, serial_predrawn, run_blocks
):
    reset_default_pools()
    try:
        with faults.inject("fail-respawn:times=8"):
            with pytest.warns(RuntimeWarning, match="in-process serial"):
                result = predrawn_sweep(
                    world, crawls, ProcessSweepExecutor(workers=2)
                )
    finally:
        reset_default_pools()
    assert_bytes_equal(serial_predrawn, result, "in-process channel")
    assert_no_block_left(run_blocks, 2)


def test_reply_blocks_count_as_reply_bytes_not_published_bytes():
    from repro.runtime.telemetry import telemetry_scope

    with telemetry_scope() as recorder:
        with sharedmem.SharedArrayPool() as shared:
            token = shared.allocate((3, 5))
            view = sharedmem.attach(token)
            view[...] = 1.0
            assert view.flags.writeable and view.sum() == 15.0
            del view
            sharedmem.release([token[1]])
    counters = recorder.metrics_summary()["counters"]
    assert counters["shm.reply_bytes"] == 3 * 5 * 8
    assert counters["shm.published_bytes"] == 0
