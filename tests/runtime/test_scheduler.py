"""The plan schedule: bit-equality, kill/resume, substrate-free replay.

``run_plan`` runs every plan, serial or parallel, one cell at a time in
plan order. A parallel plan — each cell on its own process executor,
every cell's shard tasks on the one persistent worker pool — produces
**byte-identical** output to the serial plan for any worker count; a
killed plan resumes to the same bytes; and a finished cell resumes from
its checkpoint file without its substrate ever being built.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import EstimationError, ExperimentError
from repro.experiments import run_experiment
from repro.experiments.plan import (
    PlanResources,
    SweepCell,
    SweepJob,
    SweepPlan,
)
from repro.generators import planted_category_graph
from repro.runtime import runtime_options, telemetry_scope
from repro.runtime.plan import run_plan
from repro.runtime.pool import default_pool, reset_default_pools
from repro.sampling import RandomWalkSampler
from repro.stats import run_nrmse_sweep

from tests.experiments.test_experiments import TINY
from tests.runtime.test_executor import assert_sweeps_equal
from tests.runtime.test_plan import assert_results_equal


@pytest.fixture(scope="module")
def fig6_serial():
    return run_experiment("fig6", preset=TINY, rng=0)


@pytest.fixture(scope="module")
def fig4_serial():
    return run_experiment("fig4", preset=TINY, rng=0)


# ----------------------------------------------------------------------
# Bit-equality: process executor vs serial plan
# ----------------------------------------------------------------------
# The test names keep "dag" from the retired concurrent schedule so the
# suite's test ids stay stable; every run below is the one plan loop.
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fig6_dag_bit_identical_for_any_worker_count(workers, fig6_serial):
    with runtime_options(executor="process", workers=workers):
        parallel = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, parallel, f"fig6 workers={workers}")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fig4_dag_bit_identical_for_any_worker_count(workers, fig4_serial):
    with runtime_options(executor="process", workers=workers):
        parallel = run_experiment("fig4", preset=TINY, rng=0)
    assert_results_equal(fig4_serial, parallel, f"fig4 workers={workers}")


@pytest.mark.parametrize(
    "experiment", ["fig3", "fig5", "fig7", "table1", "table2", "ablations"]
)
def test_every_other_experiment_is_dag_bit_identical_too(experiment):
    """The acceptance bar covers the whole registry, not just the two
    widest plans (fig4/fig6 get the 1/2/3-worker treatment above)."""
    serial = run_experiment(experiment, preset=TINY, rng=0)
    with runtime_options(executor="process", workers=2):
        parallel = run_experiment(experiment, preset=TINY, rng=0)
    assert_results_equal(serial, parallel, f"{experiment} serial-vs-process")


def test_parallel_plan_runs_one_cell_at_a_time(fig6_serial, tmp_path):
    """A ``--workers 2`` plan runs its cells in plan order, never two at
    once: no two traced ``cell`` spans overlap in time."""
    trace_path = tmp_path / "trace.json"
    with telemetry_scope(trace=trace_path):
        with runtime_options(executor="process", workers=2):
            traced = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, traced, "traced fig6")
    cells = sorted(
        (event["ts"], event["ts"] + event["dur"], event["args"]["key"])
        for event in json.loads(trace_path.read_text())["traceEvents"]
        if event["ph"] == "X"
        and event["name"] == "cell"
        and event["cat"] == "plan"
    )
    assert len(cells) == 5
    for (_, end, key), (start, _, next_key) in zip(cells, cells[1:]):
        assert end <= start, f"cells {key} and {next_key} overlap"


# ----------------------------------------------------------------------
# Kill/resume
# ----------------------------------------------------------------------
def test_mid_plan_kill_with_two_cells_in_flight_resumes_to_same_bytes(
    fig6_serial, tmp_path
):
    """Two successive kills, each losing the cell in flight; ``--resume``
    must finish the plan to the same bytes, serially.

    The ``--workers 2`` checkpoint is pruned to what two kills leave
    behind when each struck a different cell: cells 1 and 2 have no
    file, the others do.
    """
    with runtime_options(executor="process", workers=2, checkpoint=tmp_path):
        first = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, first, "checkpointed run")
    plan_dir = next(tmp_path.glob("plan-*"))
    cell_files = sorted(plan_dir.glob("*.npz"))
    assert len(cell_files) == 5
    for cell_file in cell_files[1:3]:
        cell_file.unlink()

    with runtime_options(executor="serial", checkpoint=tmp_path, resume=True):
        resumed = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, resumed, "resume after mid-plan kill")
    assert sorted(plan_dir.glob("*.npz")) == cell_files


# ----------------------------------------------------------------------
# Substrate-free replay of finished cells
# ----------------------------------------------------------------------
def _probe_plan(calls: dict):
    """One fresh-draw sweep cell over one counted resource."""

    def factory():
        calls["resource"] += 1
        return planted_category_graph(k=4, scale=120, rng=3)

    def build(resources: PlanResources) -> SweepJob:
        calls["build"] += 1
        graph, partition = resources["sub"]
        return SweepJob(
            graph=graph,
            partition=partition,
            sizes=(30, 90),
            sampler=RandomWalkSampler(graph),
            replications=3,
            rng=7,
        )

    return SweepPlan(
        name="probe-replay",
        cells=(SweepCell(key="only", build=build, needs=("sub",)),),
        resources={"sub": factory},
        context={"seed": 7},
    )


@pytest.mark.usefixtures("no_env_faults")
def test_fully_cached_cell_resumes_without_rebuilding_its_substrate(tmp_path):
    calls = {"resource": 0, "build": 0}
    first = run_plan(
        _probe_plan(calls), executor="process", workers=2, checkpoint=tmp_path
    )
    assert calls == {"resource": 1, "build": 1}
    cell_file = next(tmp_path.glob("plan-*")) / "only.npz"
    assert cell_file.exists()

    replay_calls = {"resource": 0, "build": 0}
    replayed = run_plan(
        _probe_plan(replay_calls),
        executor="serial",
        checkpoint=tmp_path,
        resume=True,
    )
    # The whole point: neither the resource nor the cell substrate was
    # ever constructed — the result came from the cell file alone.
    assert replay_calls == {"resource": 0, "build": 0}
    assert_sweeps_equal(first["only"], replayed["only"], "substrate-free replay")
    assert replayed["only"].truth.names == first["only"].truth.names

    # A missing cell file sends the cell down the build path (and the
    # bytes still match).
    cell_file.unlink()
    fallback_calls = {"resource": 0, "build": 0}
    fallback = run_plan(
        _probe_plan(fallback_calls),
        executor="process",
        workers=2,
        checkpoint=tmp_path,
        resume=True,
    )
    assert fallback_calls == {"resource": 1, "build": 1}
    assert_sweeps_equal(first["only"], fallback["only"], "rebuilt cell")
    assert cell_file.exists()


def test_recorded_cells_survive_for_every_sweep_cell(tmp_path):
    with runtime_options(executor="process", workers=2, checkpoint=tmp_path):
        run_experiment("fig6", preset=TINY, rng=0)
    plan_dir = next(tmp_path.glob("plan-*"))
    assert {path.stem for path in plan_dir.glob("*.npz")} == {
        "MHRW09", "RW09", "UIS09", "RW10", "S-WRW10"
    }
    others = {path.name for path in plan_dir.iterdir()} - {
        path.name for path in plan_dir.glob("*.npz")
    }
    assert others == {"plan.json"}, "cell files are the only record"


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------
def test_persistent_pool_reuses_workers_across_sweeps():
    graph, partition = planted_category_graph(k=4, scale=120, rng=5)
    reset_default_pools()

    def sweep():
        return run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            (30, 90),
            replications=4,
            rng=11,
            executor="process",
            workers=2,
        )

    first = sweep()
    pids = default_pool().worker_pids()
    assert len(pids) >= 2
    second = sweep()
    assert default_pool().worker_pids() == pids, (
        "a second sweep must reuse the live workers, not respawn"
    )
    assert_sweeps_equal(first, second, "pooled back-to-back sweeps")


def _assert_workers_map_no_unlinked_block():
    """No pool worker still maps a ``psm_*`` block that was unlinked
    (observable on Linux as ``(deleted)`` lines in ``/proc/<pid>/maps``)."""
    import pathlib
    import time

    if not pathlib.Path("/proc").exists():  # pragma: no cover - non-Linux
        pytest.skip("needs /proc to observe worker mappings")
    deadline = time.monotonic() + 10.0
    while True:  # retire messages drain asynchronously
        pinned = {
            pid: sum(
                1
                for line in pathlib.Path(f"/proc/{pid}/maps")
                .read_text()
                .splitlines()
                if "psm_" in line and "(deleted)" in line
            )
            for pid in default_pool().worker_pids()
        }
        if not any(pinned.values()) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert not any(pinned.values()), pinned


def test_plan_resource_blocks_are_retired_from_persistent_workers():
    """A finished plan must not leak its resource arrays into workers.

    Cell-local blocks are retired per cell; the plan's *ambient*
    resource blocks are retired when the plan ends. Without that, every
    plan run pins one dead copy of its substrate in each persistent
    worker for the process lifetime.
    """
    with runtime_options(executor="process", workers=2):
        run_experiment("fig6", preset=TINY, rng=0)
    _assert_workers_map_no_unlinked_block()


def test_workers_forked_mid_plan_drop_the_inherited_resource_mappings():
    """Workers forked while the driver maps the plan's resource blocks
    must not keep the driver's mappings of them.

    After a pool reset, the plan's first cell publishes the fig6 world
    into the ambient pool and only then forks the workers, so each
    worker starts with the driver's own mappings of those blocks.
    Retires release only a worker's attachments; the inherited ones are
    dropped when the worker starts.
    """
    reset_default_pools()
    with runtime_options(executor="process", workers=2):
        run_experiment("fig6", preset=TINY, rng=0)
    assert default_pool().worker_pids(), "the plan forked no worker"
    _assert_workers_map_no_unlinked_block()


def test_worker_failures_leave_the_pool_usable():
    """A task error surfaces as EstimationError without killing workers."""
    from tests.runtime.test_executor import _ExplodingSampler

    graph, partition = planted_category_graph(k=4, scale=120, rng=5)
    run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        (30, 90),
        replications=4,
        rng=11,
        executor="process",
        workers=2,
    )
    pids = default_pool().worker_pids()
    with pytest.raises(EstimationError, match="boom inside the worker"):
        run_nrmse_sweep(
            graph,
            partition,
            _ExplodingSampler(graph),
            (30, 90),
            replications=4,
            rng=11,
            executor="process",
            workers=2,
        )
    assert default_pool().worker_pids() == pids, (
        "task errors must not take down the persistent workers"
    )


# ----------------------------------------------------------------------
# Declared dependencies and thread-safe resources
# ----------------------------------------------------------------------
def test_undeclared_needs_rejected_at_compile_time():
    def build(resources):  # pragma: no cover - never built
        raise AssertionError

    with pytest.raises(ExperimentError, match="undeclared resources"):
        SweepPlan(
            name="bad",
            cells=(SweepCell(key="x", build=build, needs=("nope",)),),
        )
    with pytest.raises(ExperimentError, match="finalize needs undeclared"):
        SweepPlan(
            name="bad",
            cells=(),
            finalize_needs=("nope",),
        )


def test_plan_resources_build_once_under_concurrency():
    builds = []

    def factory():
        builds.append(1)
        return object()

    resources = PlanResources({"x": factory})
    with ThreadPoolExecutor(max_workers=8) as threads:
        values = list(threads.map(lambda _: resources["x"], range(16)))
    assert len(builds) == 1
    assert all(value is values[0] for value in values)


def test_plan_resources_propagate_factory_failures_to_every_waiter():
    def factory():
        raise RuntimeError("substrate exploded")

    resources = PlanResources({"x": factory})
    with pytest.raises(RuntimeError, match="substrate exploded"):
        resources["x"]
    # Later accessors see the same failure instead of a hang or rebuild.
    with pytest.raises(RuntimeError, match="substrate exploded"):
        resources["x"]


def test_describe_renders_the_dag():
    from repro.experiments import compile_experiment

    description = compile_experiment("fig6", preset=TINY, rng=0).describe()
    assert "[resource] world" in description
    assert "<- world" in description
    assert "[finalize] <- world" in description
