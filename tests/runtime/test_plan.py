"""Plan-level golden equivalence and kill/resume behavior.

The acceptance bar of the SweepPlan refactor: every experiment runs
through a compiled plan, serial and ``--workers N`` outputs are
bit-identical for any worker count — including the *pre-drawn* paths
(fig6's crawl sweeps, the ablation plug-in study) that used to reduce
serially — and a killed checkpointed plan resumes to the same bytes at
the first unfinished cell.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import compile_experiment, run_experiment
from repro.experiments.plan import (
    ComputeCell,
    PlanResources,
    SweepCell,
    SweepJob,
    SweepPlan,
)
from repro.exceptions import ExperimentError
from repro.runtime import runtime_options
from repro.runtime.plan import run_plan

from tests.experiments.test_experiments import TINY


def assert_results_equal(expected, actual, context=""):
    """Bit-level equality of two ``{id: ExperimentResult}`` dicts."""
    assert list(expected) == list(actual), context
    for rid in expected:
        old, new = expected[rid], actual[rid]
        assert old.title == new.title, (context, rid)
        assert list(old.series) == list(new.series), (context, rid)
        for label, (xs, ys) in old.series.items():
            assert np.array_equal(
                np.asarray(xs), np.asarray(new.series[label][0]), equal_nan=True
            ), (context, rid, label)
            assert np.array_equal(
                np.asarray(ys), np.asarray(new.series[label][1]), equal_nan=True
            ), (context, rid, label)
        assert old.table == new.table, (context, rid)
        assert old.render() == new.render(), (context, rid)


@pytest.fixture(scope="module")
def fig6_serial():
    return run_experiment("fig6", preset=TINY, rng=0)


@pytest.fixture(scope="module")
def plugin_serial():
    from repro.experiments import run_ablations

    return run_ablations(which=("plugin",), preset=TINY, rng=0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fig6_predrawn_cells_bit_identical_for_any_worker_count(
    workers, fig6_serial
):
    with runtime_options(executor="process", workers=workers):
        parallel = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, parallel, f"fig6 workers={workers}")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ablation_plugin_bit_identical_for_any_worker_count(
    workers, plugin_serial
):
    from repro.experiments import run_ablations

    with runtime_options(executor="process", workers=workers):
        parallel = run_ablations(which=("plugin",), preset=TINY, rng=0)
    assert_results_equal(plugin_serial, parallel, f"plugin workers={workers}")


def test_killed_fig6_plan_resumes_to_the_same_bytes(fig6_serial, tmp_path):
    """A parallel fig6 run killed mid-cell resumes bit-identically.

    The kill is simulated by pruning the checkpoint to the state a real
    kill during cell 2 leaves (cell files land atomically, one per
    finished cell): cell 1's file only.
    """
    with runtime_options(
        executor="process", workers=2, checkpoint=tmp_path
    ):
        first = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, first, "checkpointed run")
    plan_dir = next(tmp_path.glob("plan-*"))
    cell_files = sorted(plan_dir.glob("*.npz"))
    assert len(cell_files) == 5, "one result file per fig6 cell"
    for cell_file in cell_files[1:]:
        cell_file.unlink()

    with runtime_options(
        executor="process", workers=3, checkpoint=tmp_path, resume=True
    ):
        resumed = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(fig6_serial, resumed, "resumed after mid-cell kill")
    # The resumed run wrote every cell's file again.
    assert sorted(plan_dir.glob("*.npz")) == cell_files


@pytest.mark.usefixtures("no_env_faults")
def test_plan_resume_reuses_persisted_cells(tmp_path, monkeypatch):
    """Resume must replay finished cells, not re-measure their samples.

    With the fork start method the workers inherit the parent's
    monkeypatched modules, so making ``observe_both`` explode proves
    no resumed cell ran a ladder, in the driver or in a worker. The
    persistent worker pool is reset *after* patching — pooled workers
    forked by earlier sweeps would otherwise pre-date the patch and
    defuse the tripwire.
    """
    from repro.experiments import run_ablations
    from repro.runtime.pool import reset_default_pools

    with runtime_options(executor="process", workers=2, checkpoint=tmp_path):
        first = run_ablations(which=("plugin",), preset=TINY, rng=0)
    plan_dir = next(tmp_path.glob("plan-*"))
    assert len(list(plan_dir.glob("*.npz"))) == 3

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("resume re-measured a replicate sample")

    import repro.stats.prefix as prefix_module

    monkeypatch.setattr(prefix_module, "observe_both", explode)
    reset_default_pools()
    try:
        with runtime_options(
            executor="process", workers=2, checkpoint=tmp_path, resume=True
        ):
            resumed = run_ablations(which=("plugin",), preset=TINY, rng=0)
    finally:
        # The patched module is baked into the fresh workers; retire
        # them so later tests fork clean ones.
        reset_default_pools()
    assert_results_equal(first, resumed, "replayed cells")


def test_compile_experiment_exposes_every_registry_entry():
    from repro.experiments import experiment_ids

    for experiment_id in experiment_ids():
        plan = compile_experiment(experiment_id, preset=TINY, rng=0)
        assert plan.cells, experiment_id
        description = plan.describe()
        for cell in plan.cells:
            assert cell.key in description
    with pytest.raises(ExperimentError, match="unknown experiment"):
        compile_experiment("fig99")


def test_every_replicated_experiment_has_sweep_cells():
    """The paper's replicated artifacts must ride the sweep executor."""
    expected_sweeps = {
        "fig3": 5,       # five shared graph configurations
        "fig4": 12,      # four datasets x three designs
        "fig6": 5,       # five pre-drawn crawl collections
        "ablations": 3,  # three Eq. (16) plug-in variants
    }
    for experiment_id, count in expected_sweeps.items():
        plan = compile_experiment(experiment_id, preset=TINY, rng=0)
        assert len(plan.sweep_cells) == count, experiment_id


@pytest.mark.usefixtures("no_env_faults")
def test_serial_run_resumes_a_parallel_plan_checkpoint(tmp_path):
    """Serial and parallel runs of one plan share its checkpoint
    directory: a serial ``--resume`` replays every cell a ``--workers``
    run wrote, leaving the files as they were."""
    from repro.experiments import run_ablations
    from repro.runtime import telemetry_scope

    with runtime_options(executor="process", workers=2, checkpoint=tmp_path):
        first = run_ablations(which=("plugin",), preset=TINY, rng=0)
    plan_dir = next(tmp_path.glob("plan-*"))
    files_before = {
        path.name: path.read_bytes() for path in plan_dir.glob("*.npz")
    }
    assert len(files_before) == 3

    metrics_path = tmp_path / "metrics.json"
    with telemetry_scope(metrics=metrics_path), runtime_options(
        executor="serial", checkpoint=tmp_path, resume=True
    ):
        resumed = run_ablations(which=("plugin",), preset=TINY, rng=0)
    assert_results_equal(first, resumed, "serial resume of a parallel run")
    counters = json.loads(metrics_path.read_text())["counters"]
    assert counters["plan.cells_replayed"] == 3
    assert counters["checkpoint.saves"] == 0
    assert {
        path.name: path.read_bytes() for path in plan_dir.glob("*.npz")
    } == files_before


def test_plans_with_different_context_use_different_directories(tmp_path):
    """Scale/seed are part of the plan key: runs never share (or clear)
    each other's checkpoint directories."""
    from repro.experiments import run_ablations

    for seed in (0, 1):
        with runtime_options(
            executor="process", workers=2, checkpoint=tmp_path
        ):
            run_ablations(which=("plugin",), preset=TINY, rng=seed)
    plan_dirs = sorted(tmp_path.glob("plan-*"))
    assert len(plan_dirs) == 2
    # The seed-0 artifacts survived the fresh (non-resume) seed-1 run.
    for plan_dir in plan_dirs:
        assert len(list(plan_dir.glob("*.npz"))) == 3


def test_fresh_sweep_jobs_reject_cross_sample_truth():
    from repro.generators import planted_category_graph
    from repro.sampling import RandomWalkSampler

    graph, partition = planted_category_graph(k=4, scale=200, rng=0)
    with pytest.raises(ExperimentError, match="pre-drawn knob"):
        SweepJob(
            graph=graph,
            partition=partition,
            sizes=(10,),
            sampler=RandomWalkSampler(graph),
            replications=2,
            rng=0,
            truth_mode="cross-sample",
        )


def test_fresh_sweep_jobs_require_a_seed():
    from repro.generators import planted_category_graph
    from repro.sampling import RandomWalkSampler

    graph, partition = planted_category_graph(k=4, scale=200, rng=0)
    with pytest.raises(ExperimentError, match="need rng="):
        SweepJob(
            graph=graph,
            partition=partition,
            sizes=(10,),
            sampler=RandomWalkSampler(graph),
            replications=2,
        )


def test_duplicate_cell_keys_rejected():
    def build(resources):  # pragma: no cover - never built
        raise AssertionError

    with pytest.raises(ExperimentError, match="duplicate cell keys"):
        SweepPlan(
            name="bad",
            cells=(
                SweepCell(key="x", build=build),
                ComputeCell(key="x", compute=lambda resources: None),
            ),
            finalize=lambda outputs, resources: {},
        )


def test_sweep_job_validates_its_mode():
    from repro.generators import planted_category_graph
    from repro.sampling import RandomWalkSampler

    graph, partition = planted_category_graph(k=4, scale=200, rng=0)
    with pytest.raises(ExperimentError, match="exactly one"):
        SweepJob(graph=graph, partition=partition, sizes=(10,))
    with pytest.raises(ExperimentError, match="replications"):
        SweepJob(
            graph=graph,
            partition=partition,
            sizes=(10,),
            sampler=RandomWalkSampler(graph),
        )


def test_unknown_plan_resource_is_a_clear_error():
    resources = PlanResources({"known": lambda: 1})
    assert resources["known"] == 1
    assert "known" in resources
    with pytest.raises(ExperimentError, match="unknown plan resource"):
        resources["missing"]


def test_run_plan_rejects_executor_instances():
    from repro.runtime import ProcessSweepExecutor

    plan = SweepPlan(
        name="probe",
        cells=(ComputeCell(key="only", compute=lambda resources: 1),),
    )
    with pytest.raises(ExperimentError, match="executor names"):
        run_plan(plan, executor=ProcessSweepExecutor(workers=1))


def test_plan_runner_runs_compute_cells_in_process():
    seen = []

    def compute(resources):
        seen.append(resources["token"])
        return "payload"

    plan = SweepPlan(
        name="probe",
        cells=(ComputeCell(key="only", compute=compute),),
        finalize=lambda outputs, resources: dict(outputs),
        resources={"token": lambda: 41 + 1},
    )
    outputs = run_plan(plan)
    assert outputs == {"only": "payload"}
    assert seen == [42]
