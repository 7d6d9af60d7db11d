"""Fault tolerance: every injected failure recovers to the same bytes.

The acceptance bar of the fault-tolerant runtime: a worker SIGKILLed
mid-rung, a task that hangs past its heartbeat deadline, a worker pool
that cannot (re)spawn, and a checkpoint file corrupted on disk must all
degrade — never crash — and the recovered run's output must be
byte-identical to an undisturbed serial run. Failures are *scheduled
inputs* here (:mod:`repro.runtime.faults`), so every recovery path runs
deterministically on every push.
"""

from __future__ import annotations

import os
import queue

import pytest

from repro.exceptions import EstimationError
from repro.generators import planted_category_graph
from repro.runtime import faults, runtime_options
from repro.runtime.executor import ProcessSweepExecutor
from repro.runtime.faults import FaultPlan, parse_faults
from repro.runtime.pool import (
    WorkerFailure,
    default_pool,
    read_spill,
    reset_default_pools,
)
from repro.sampling import StratifiedWeightedWalkSampler
from repro.stats import run_nrmse_sweep

from tests.runtime.test_executor import assert_sweeps_equal

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 99


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=6, scale=60, rng=7)
    return graph, partition


@pytest.fixture(scope="module")
def serial(world):
    graph, partition = world
    return run_nrmse_sweep(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="serial",
    )


def _sweep(world, executor):
    graph, partition = world
    return run_nrmse_sweep(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor=executor,
    )


# ----------------------------------------------------------------------
# Fault spec grammar
# ----------------------------------------------------------------------
def test_parse_faults_grammar():
    plan = parse_faults("kill-worker:rung=1,shard=0,times=2; hang-worker")
    assert [fault.kind for fault in plan] == ["kill-worker", "hang-worker"]
    assert plan[0].params == {"rung": 1, "shard": 0}
    assert plan[0].times == 2
    assert plan[1].params == {} and plan[1].times == 1


def test_parse_faults_rejects_unknown_kind():
    with pytest.raises(EstimationError, match="unknown fault kind"):
        parse_faults("explode-kernel")


def test_parse_faults_rejects_malformed_parameter():
    with pytest.raises(EstimationError, match="key=value"):
        parse_faults("kill-worker:rung")


def test_parse_faults_rejects_nonpositive_times():
    with pytest.raises(EstimationError, match="times"):
        parse_faults("kill-worker:times=0")


def test_fault_budgets_are_consumed_at_issue_time():
    plan = FaultPlan.parse("kill-worker:shard=1,times=2")
    assert plan.take("kill-worker", shard=0) is None  # wrong shard
    assert plan.take("kill-worker", shard=1) is not None
    assert plan.pending("kill-worker") == 1
    assert plan.take("kill-worker", shard=1) is not None
    assert plan.take("kill-worker", shard=1) is None  # budget drained


def test_env_faults_only_arm_inside_runtime_scopes(monkeypatch):
    """REPRO_FAULTS must not strike direct (non-runtime) checkpoint use."""
    monkeypatch.setenv(
        "REPRO_FAULTS", "corrupt-checkpoint:file=test-probe,times=1"
    )
    assert faults.take("corrupt-checkpoint", file="test-probe") is None
    with faults.env_scope():
        assert faults.take("corrupt-checkpoint", file="test-probe") is not None
        assert faults.take("corrupt-checkpoint", file="test-probe") is None


# ----------------------------------------------------------------------
# Shard failover: mid-rung worker death
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mid_rung_worker_kill_recovers_bit_identically(workers, world, serial):
    executor = ProcessSweepExecutor(workers=workers)
    with faults.inject("kill-worker:rung=1,shard=0"):
        result = _sweep(world, executor)
    assert_sweeps_equal(serial, result, f"kill recovery workers={workers}")
    assert executor.failover_log, "the injected kill never triggered failover"
    entry = executor.failover_log[0]
    assert entry["slot"] == 0
    assert entry["pid"] is not None
    assert not entry["timeout"]


def test_kill_on_the_queued_last_rung_recovers_bit_identically(world, serial):
    """The kill strikes while the driver folds rung 1: shard 1 already
    holds its queued rung-2 command, which the replacement re-runs."""
    executor = ProcessSweepExecutor(workers=2)
    with faults.inject("kill-worker:rung=2,shard=1"):
        result = _sweep(world, executor)
    assert_sweeps_equal(serial, result, "kill on the queued rung")
    assert [entry["slot"] for entry in executor.failover_log] == [1]
    assert "rung 2" in executor.failover_log[0]["phase"]


@pytest.mark.parametrize("name", ["bfs", "forest_fire"])
def test_mid_traversal_worker_kill_recovers_bit_identically(name, world):
    """A worker killed while running a traversal frontier kernel.

    ``phase=sample`` strikes after the batched BFS / Forest Fire kernel
    drew its shard's replicates but before the ``sampled`` reply — the
    visited bitmaps and outputs die with the process, and the
    replacement task must redraw the same replicates from the original
    seeds. Recovery must be byte-identical to an undisturbed serial
    run.
    """
    from repro.sampling import BreadthFirstSampler, ForestFireSampler

    graph, partition = world
    factory = {
        "bfs": lambda: BreadthFirstSampler(graph),
        "forest_fire": lambda: ForestFireSampler(graph),
    }[name]
    kwargs = dict(replications=REPLICATIONS, rng=SEED)
    undisturbed = run_nrmse_sweep(
        graph, partition, factory(), LADDER, executor="serial", **kwargs
    )
    executor = ProcessSweepExecutor(workers=2)
    with faults.inject("kill-worker:phase=sample,shard=0"):
        result = run_nrmse_sweep(
            graph, partition, factory(), LADDER, executor=executor, **kwargs
        )
    assert_sweeps_equal(undisturbed, result, f"mid-traversal kill [{name}]")
    assert executor.failover_log, "the injected kill never triggered failover"
    entry = executor.failover_log[0]
    assert entry["slot"] == 0
    assert entry["phase"] == "sampled", entry
    assert not entry["timeout"]


def test_phase_sample_spec_yields_the_sample_kill_directive():
    with faults.inject("kill-worker:phase=sample,shard=2"):
        assert faults.take_worker_directives(0) == ()
        assert faults.take_worker_directives(2) == (("kill", "sample"),)
        assert faults.take_worker_directives(2) == ()  # budget drained


def test_hung_worker_times_out_and_fails_over(world, serial):
    executor = ProcessSweepExecutor(workers=2, task_timeout=0.75)
    with faults.inject("hang-worker:shard=0"):
        result = _sweep(world, executor)
    assert_sweeps_equal(serial, result, "hang recovery")
    assert any(entry["timeout"] for entry in executor.failover_log), (
        "the hang was not classified as a heartbeat timeout"
    )


def test_retry_exhaustion_raises_structured_worker_failure(world):
    executor = ProcessSweepExecutor(workers=2, max_retries=1)
    with faults.inject("kill-worker:rung=0,shard=0,times=10"):
        with pytest.raises(WorkerFailure) as excinfo:
            _sweep(world, executor)
    failure = excinfo.value
    assert failure.slot == 0
    assert len(failure.retries) == 2  # the first attempt plus one retry
    message = str(failure)
    assert "shard 0" in message
    assert "pid" in message and "exitcode" in message
    assert "replicates" in message


# ----------------------------------------------------------------------
# Graceful degradation: spawn failures
# ----------------------------------------------------------------------
def test_spawn_failure_degrades_to_in_process_serial(world, serial):
    reset_default_pools()
    executor = ProcessSweepExecutor(workers=2)
    try:
        with faults.inject("fail-respawn:times=8"):
            with pytest.warns(RuntimeWarning, match="in-process serial"):
                result = _sweep(world, executor)
    finally:
        reset_default_pools()
    assert_sweeps_equal(serial, result, "in-process serial degradation")


def test_spawn_failure_with_a_survivor_multiplexes_shards(world, serial):
    reset_default_pools()
    pool = default_pool()
    pool.ensure(1)  # the lone survivor, spawned before faults arm
    executor = ProcessSweepExecutor(workers=3)
    try:
        with faults.inject("fail-respawn:times=8"):
            with pytest.warns(RuntimeWarning, match="multiplexing"):
                result = _sweep(world, executor)
    finally:
        reset_default_pools()
    assert_sweeps_equal(serial, result, "fewer-workers degradation")


# ----------------------------------------------------------------------
# Failover inside a DAG plan run
# ----------------------------------------------------------------------
def test_mid_plan_worker_kill_is_byte_identical():
    from repro.experiments import run_experiment
    from tests.experiments.test_experiments import TINY
    from tests.runtime.test_plan import assert_results_equal

    serial_result = run_experiment("fig6", preset=TINY, rng=0)
    with faults.inject("kill-worker:rung=0"), runtime_options(
        executor="process", workers=2, plan_scheduler="dag"
    ):
        chaotic = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(serial_result, chaotic, "fig6 with mid-rung kill")


# ----------------------------------------------------------------------
# Checkpoint corruption: quarantine and recompute
# ----------------------------------------------------------------------
def test_corrupted_rung_write_is_quarantined_on_resume(world, serial, tmp_path):
    with faults.inject("corrupt-checkpoint:file=rung,times=1"):
        first = _sweep(
            world, ProcessSweepExecutor(workers=2, checkpoint=tmp_path)
        )
    assert_sweeps_equal(serial, first, "run with a corrupted rung write")
    resumed = _sweep(
        world,
        ProcessSweepExecutor(workers=2, checkpoint=tmp_path, resume=True),
    )
    assert_sweeps_equal(serial, resumed, "resume past injected corruption")
    sweep_dir = next(tmp_path.glob("sweep-*"))
    assert list(sweep_dir.glob("*.corrupt")), (
        "the truncated rung file was not quarantined"
    )


def test_corrupt_observations_fall_back_to_recomputing(world, serial, tmp_path):
    _sweep(world, ProcessSweepExecutor(workers=2, checkpoint=tmp_path))
    sweep_dir = next(tmp_path.glob("sweep-*"))
    (sweep_dir / "rung_001.npz").unlink()
    (sweep_dir / "rung_002.npz").unlink()
    path = sweep_dir / "observations.npz"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])  # torn write
    resumed = _sweep(
        world,
        ProcessSweepExecutor(workers=2, checkpoint=tmp_path, resume=True),
    )
    assert_sweeps_equal(serial, resumed, "resume past corrupt observations")
    assert (sweep_dir / "observations.npz.corrupt").exists()
    assert (sweep_dir / "observations.npz").exists(), (
        "the observations were not re-persisted after quarantine"
    )


# ----------------------------------------------------------------------
# The silent-failure window: spill files
# ----------------------------------------------------------------------
def test_worker_spills_its_traceback_when_the_reply_pipe_breaks():
    from repro.runtime.pool import _task_main

    def broken_reply(*parts):
        raise BrokenPipeError("parent is gone")

    # An unpicklable payload makes serve_shard raise immediately; the
    # broken reply models the parent tearing down mid-error. The
    # traceback must survive via the spill file.
    _task_main(7, b"not a pickle", {}, queue.SimpleQueue(), broken_reply)
    spill = read_spill(os.getpid())
    assert spill is not None and "Traceback" in spill
    assert read_spill(os.getpid()) is None  # reading clears the spill


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
def test_env_knobs_reach_the_executor(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_RETRIES", "4")
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
    executor = ProcessSweepExecutor(workers=1)
    assert executor.max_retries == 4
    assert executor.task_timeout == 2.5
    monkeypatch.setenv("REPRO_MAX_RETRIES", "nope")
    with pytest.raises(EstimationError, match="REPRO_MAX_RETRIES"):
        ProcessSweepExecutor(workers=1)


def test_cli_flags_install_ambient_fault_knobs(monkeypatch):
    from repro.cli import _runtime_scope, build_parser
    from repro.runtime import active_options

    # Isolate from ambient runtime env (the chaos CI job exports
    # REPRO_EXECUTOR=process, which would mask the executor check).
    for name in (
        "REPRO_EXECUTOR",
        "REPRO_WORKERS",
        "REPRO_MAX_RETRIES",
        "REPRO_TASK_TIMEOUT",
    ):
        monkeypatch.delenv(name, raising=False)

    parser = build_parser()
    args = parser.parse_args(
        ["run", "fig6", "--max-retries", "5", "--task-timeout", "30"]
    )
    with _runtime_scope(args):
        options = active_options()
        assert options.max_retries == 5
        assert options.task_timeout == 30.0
        # Tuning knobs alone must not force the process executor.
        assert options.executor is None


def test_negative_max_retries_is_rejected():
    with pytest.raises(EstimationError, match="max_retries"):
        ProcessSweepExecutor(workers=1, max_retries=-1)
