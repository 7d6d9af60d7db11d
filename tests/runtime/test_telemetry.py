"""Runtime telemetry plane: schema round-trips, output-neutrality,
fault attribution, and the logging knob.

The contract under test is determinism point 6
(:mod:`repro.runtime`): telemetry observes a run — spans, counters,
instants, shipped from workers over the existing reply channel — but
never participates in it. Recording a full trace changes no output
byte at any worker count; with recording off every probe is a single
``None`` check returning a shared null span.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.exceptions import ReproError
from repro.generators import planted_category_graph
from repro.log import configure_logging, get_logger, resolve_level
from repro.runtime import faults, runtime_options, telemetry_scope
from repro.runtime import telemetry
from repro.runtime.executor import ProcessSweepExecutor
from repro.runtime.pool import default_pool, reset_default_pools
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


def _spans(trace, name=None, cat=None):
    return [
        event
        for event in trace["traceEvents"]
        if event["ph"] == "X"
        and (name is None or event["name"] == name)
        and (cat is None or event["cat"] == cat)
    ]


def _instants(trace, name=None, cat=None):
    return [
        event
        for event in trace["traceEvents"]
        if event["ph"] == "i"
        and (name is None or event["name"] == name)
        and (cat is None or event["cat"] == cat)
    ]


# ----------------------------------------------------------------------
# Recorder round-trip and schema validation
# ----------------------------------------------------------------------
def test_recorder_round_trips_spans_counters_gauges(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    with telemetry_scope(trace=trace_path, metrics=metrics_path) as recorder:
        assert telemetry.enabled()
        assert telemetry.recorder() is recorder
        with telemetry.span("rung", cat="driver", rung=1, size=120):
            telemetry.counter("checkpoint.saves", 2)
            telemetry.counter("checkpoint.saves", 3)
            telemetry.gauge("shm.peak_pool_bytes", 100)
            telemetry.gauge("shm.peak_pool_bytes", 50)  # max wins
        telemetry.instant("failover", cat="failover", slot=0)
    assert not telemetry.enabled()

    trace = json.loads(trace_path.read_text())
    assert telemetry.validate_trace(trace) == 1
    assert telemetry.validate_trace_file(trace_path) == 1
    (span,) = _spans(trace, name="rung")
    assert span["cat"] == "driver"
    assert span["args"]["rung"] == 1 and span["args"]["size"] == 120
    assert span["dur"] >= 1
    (instant,) = _instants(trace, name="failover")
    assert instant["s"] == "p"
    # Metadata rows name the driver process row.
    process_rows = [
        event
        for event in trace["traceEvents"]
        if event["ph"] == "M" and event["name"] == "process_name"
    ]
    assert any(row["args"]["name"] == "driver" for row in process_rows)

    metrics = telemetry.validate_metrics_file(metrics_path)
    assert metrics["schema"] == telemetry.METRICS_SCHEMA
    assert metrics["counters"]["checkpoint.saves"] == 5
    assert metrics["gauges"]["shm.peak_pool_bytes"] == 100
    assert metrics["phases"]["driver"]["rung"]["count"] == 1
    assert metrics["phases"]["driver"]["rung"]["seconds"] > 0
    assert metrics["failover"]["events"][0]["event"] == "failover"
    assert metrics["wall_seconds"] > 0


def test_merge_remote_folds_a_worker_payload():
    import os

    recorder = telemetry.TelemetryRecorder(process_label="driver")
    # Stands in for a worker-side collector; in production the payload
    # crosses a real process boundary, here only the label differs.
    remote = telemetry.TelemetryRecorder(process_label="worker test")
    with remote.span("rung", cat="worker", rung=0):
        pass
    remote.counter("faults.injected", 3)
    recorder.merge_remote(remote.drain())
    recorder.merge_remote(None)  # in-process collectors ship nothing
    recorder.finish()
    events = recorder.trace_events()
    assert any(
        event["ph"] == "X" and event["name"] == "rung" for event in events
    )
    metrics = recorder.metrics_summary()
    assert metrics["counters"]["faults.injected"] == 3
    pid = str(os.getpid())
    assert pid in metrics["workers"]
    assert 0.0 <= metrics["workers"][pid]["utilization"] <= 1.0


def test_validators_reject_malformed_documents():
    with pytest.raises(ReproError, match="traceEvents"):
        telemetry.validate_trace({})
    with pytest.raises(ReproError, match="schema"):
        telemetry.validate_metrics({"schema": "other"})


# ----------------------------------------------------------------------
# Disabled fast path: observability must cost a None check
# ----------------------------------------------------------------------
def test_disabled_probes_are_shared_noops():
    assert not telemetry.enabled()
    first = telemetry.span("anything", cat="driver")
    second = telemetry.span("else", cat="worker", rung=3)
    assert first is second  # one shared null span, no allocation
    with first:
        pass
    telemetry.counter("checkpoint.saves", 1)  # all silently dropped
    telemetry.gauge("shm.peak_pool_bytes", 9)
    telemetry.instant("failover", cat="failover")
    assert telemetry.recorder() is None


def test_worker_collector_is_off_when_not_requested():
    collector, ship = telemetry.worker_collector(None)
    assert collector is None and not ship


# ----------------------------------------------------------------------
# Fault attribution: injected chaos lands in the trace, correctly tagged
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("no_env_faults")
def test_killed_worker_leaves_failover_instant_with_rung_phase(
    world, serial, tmp_path
):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    executor = ProcessSweepExecutor(workers=2)
    with telemetry_scope(trace=trace_path, metrics=metrics_path):
        with faults.inject("kill-worker:replicate=1,shard=0"):
            result = _sweep(world, executor)
    assert_sweeps_equal(serial, result, "traced kill recovery")
    assert executor.failover_log

    trace = json.loads(trace_path.read_text())
    telemetry.validate_trace(trace)
    injected = _instants(trace, name="fault.injected")
    assert any(
        event["args"]["kind"] == "kill-worker" for event in injected
    ), "the injected kill never reached the trace"
    recoveries = _instants(trace, name="failover", cat="failover")
    assert recoveries, "the recovery never reached the trace"
    # Shard 0's second replicate is replicate 2 at two workers.
    assert any(
        "replicate 2" in event["args"]["phase"] for event in recoveries
    ), "failover instant lost its phase attribution"

    metrics = telemetry.validate_metrics_file(metrics_path)
    assert metrics["counters"]["failover.recoveries"] >= 1
    assert metrics["counters"]["faults.injected"] >= 1
    assert metrics["failover"]["recoveries"] >= 1
    assert any(
        event["event"] == "failover" for event in metrics["failover"]["events"]
    )


@pytest.mark.usefixtures("no_env_faults")
def test_hung_worker_failover_is_tagged_as_timeout(world, serial, tmp_path):
    trace_path = tmp_path / "trace.json"
    executor = ProcessSweepExecutor(workers=2, task_timeout=0.75)
    with telemetry_scope(trace=trace_path):
        with faults.inject("hang-worker:shard=0"):
            result = _sweep(world, executor)
    assert_sweeps_equal(serial, result, "traced hang recovery")
    trace = json.loads(trace_path.read_text())
    assert any(
        event["args"]["timeout"]
        for event in _instants(trace, name="failover", cat="failover")
    ), "the hang was not tagged timeout=True in the trace"


@pytest.mark.usefixtures("no_env_faults")
def test_degradation_to_serial_leaves_a_degrade_marker(
    world, serial, tmp_path
):
    reset_default_pools()
    trace_path = tmp_path / "trace.json"
    executor = ProcessSweepExecutor(workers=2)
    try:
        with telemetry_scope(trace=trace_path):
            with faults.inject("fail-respawn:times=8"):
                with pytest.warns(RuntimeWarning, match="in-process serial"):
                    result = _sweep(world, executor)
    finally:
        reset_default_pools()
    assert_sweeps_equal(serial, result, "traced serial degradation")
    trace = json.loads(trace_path.read_text())
    degrades = _instants(trace, name="degrade", cat="failover")
    assert degrades, "degradation never reached the trace"
    assert any(
        "in-process serial" in event["args"]["message"] for event in degrades
    )


# ----------------------------------------------------------------------
# Failover logs surface uniformly (the stale-log fix)
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("no_env_faults")
def test_failover_log_resets_between_runs(world, monkeypatch):
    # The clean-run assertion below needs the run to actually be clean:
    # shield it from any armed chaos environment (the CI chaos job).
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    executor = ProcessSweepExecutor(workers=2)
    with faults.inject("kill-worker:replicate=1,shard=0"):
        _sweep(world, executor)
    assert executor.failover_log
    _sweep(world, executor)  # an undisturbed run on the same instance
    assert executor.failover_log == [], (
        "a clean run kept the previous run's failover log"
    )


@pytest.mark.usefixtures("no_env_faults")
def test_run_from_samples_surfaces_the_failover_log(world):
    graph, partition = world
    sampler = StratifiedWeightedWalkSampler(graph, partition)
    samples = [
        sampler.sample(LADDER[-1], rng=seed)
        for seed in range(REPLICATIONS)
    ]
    executor = ProcessSweepExecutor(workers=2)
    from repro.stats.replication import run_nrmse_sweep_from_samples

    with faults.inject("kill-worker:replicate=1,shard=0"):
        run_nrmse_sweep_from_samples(
            graph, partition, samples, LADDER, executor=executor
        )
    assert executor.failover_log, (
        "the pre-drawn path dropped its failover log"
    )
    assert executor.failover_log[0]["slot"] == 0


# ----------------------------------------------------------------------
# Worker spans cross the process boundary
# ----------------------------------------------------------------------
def test_worker_rows_and_spans_reach_the_parent_trace(world, tmp_path):
    reset_default_pools()  # force fresh spawns inside the scope
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    try:
        with telemetry_scope(trace=trace_path, metrics=metrics_path):
            _sweep(world, ProcessSweepExecutor(workers=2))
    finally:
        reset_default_pools()
    trace = json.loads(trace_path.read_text())
    telemetry.validate_trace(trace)
    worker_rows = {
        event["args"]["name"]
        for event in trace["traceEvents"]
        if event["ph"] == "M"
        and event["name"] == "process_name"
        and event["args"]["name"].startswith("worker ")
    }
    # >= rather than ==: under an armed chaos environment (REPRO_FAULTS)
    # a struck worker respawns, adding a third row.
    assert len(worker_rows) >= 2, "expected one timeline row per worker"
    for name in ("sample", "observe", "rung"):
        assert _spans(trace, name=name, cat="worker"), (
            f"worker {name!r} spans never shipped to the parent"
        )
    assert _spans(trace, name="replicate", cat="driver")
    metrics = telemetry.validate_metrics_file(metrics_path)
    assert len(metrics["workers"]) >= 2
    assert metrics["counters"]["pool.workers_spawned"] >= 2
    assert metrics["counters"]["shm.published_bytes"] > 0
    assert metrics["counters"]["shm.retired_bytes"] > 0


def test_fig6_plan_trace_is_output_neutral_and_nested(tmp_path):
    """The acceptance run: a 2-worker fig6 plan under ``--trace`` is
    byte-identical to the untraced run, and its trace carries per-worker
    timeline rows with plan -> cell -> replicate span nesting."""
    from repro.experiments import run_experiment
    from tests.experiments.test_experiments import TINY
    from tests.runtime.test_plan import assert_results_equal

    serial_result = run_experiment("fig6", preset=TINY, rng=0)
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    with telemetry_scope(trace=trace_path, metrics=metrics_path):
        with runtime_options(executor="process", workers=2):
            traced = run_experiment("fig6", preset=TINY, rng=0)
    assert_results_equal(serial_result, traced, "fig6 traced vs untraced")

    trace = json.loads(trace_path.read_text())
    telemetry.validate_trace(trace)
    (plan_span,) = _spans(trace, name="plan", cat="plan")
    cell_spans = _spans(trace, name="cell", cat="plan")
    assert cell_spans, "no cell spans in the plan trace"
    replicate_spans = _spans(trace, name="replicate", cat="driver")
    assert replicate_spans, "no driver replicate spans in the plan trace"

    def contains(outer, inner):
        return (
            outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        )

    assert all(contains(plan_span, cell) for cell in cell_spans), (
        "cell spans escape the plan span"
    )
    sweep_cells = [c for c in cell_spans if c["args"].get("kind") == "sweep"]
    assert all(
        any(contains(cell, replicate) for cell in sweep_cells)
        for replicate in replicate_spans
    ), "replicate spans escape every sweep-cell span"
    # Worker task spans are labelled by the cell that dispatched them.
    task_labels = {
        span["args"].get("task")
        for span in _spans(trace, cat="worker")
    }
    assert task_labels & {cell["args"]["key"] for cell in sweep_cells}, (
        "worker spans lost their cell attribution"
    )

    metrics = telemetry.validate_metrics_file(metrics_path)
    assert metrics["workers"], "no worker utilization rows"
    assert metrics["counters"]["shm.published_bytes"] > 0
    # Zero on a quiet run; an armed chaos environment (REPRO_FAULTS) may
    # legitimately add recoveries — either way count and events agree.
    assert metrics["failover"]["recoveries"] == len(
        [
            event
            for event in metrics["failover"]["events"]
            if event["event"] == "failover"
        ]
    )


# ----------------------------------------------------------------------
# Logging hygiene
# ----------------------------------------------------------------------
def test_get_logger_lives_under_the_repro_hierarchy():
    assert get_logger("repro.runtime.pool").name == "repro.runtime.pool"
    assert get_logger("custom").name == "repro.custom"
    root = logging.getLogger("repro")
    assert any(
        isinstance(handler, logging.NullHandler)
        for handler in root.handlers
    ), "library import must attach a NullHandler"


def test_resolve_level_accepts_names_and_rejects_junk():
    assert resolve_level("debug") == logging.DEBUG
    assert resolve_level("WARNING") == logging.WARNING
    assert resolve_level(15) == 15
    with pytest.raises(ReproError, match="unknown log level"):
        resolve_level("loud")


def test_configure_logging_is_a_noop_without_a_request(monkeypatch):
    monkeypatch.delenv("REPRO_LOG", raising=False)
    root = logging.getLogger("repro")
    before = list(root.handlers)
    configure_logging()
    assert list(root.handlers) == before


def test_configure_logging_verbose_installs_one_stream_handler():
    root = logging.getLogger("repro")
    try:
        configure_logging(verbose=True)
        streams = [
            handler
            for handler in root.handlers
            if isinstance(handler, logging.StreamHandler)
            and not isinstance(handler, logging.NullHandler)
        ]
        assert len(streams) == 1
        assert root.level == logging.DEBUG
        configure_logging(verbose=True)  # idempotent
        assert [
            handler
            for handler in root.handlers
            if isinstance(handler, logging.StreamHandler)
            and not isinstance(handler, logging.NullHandler)
        ] == streams
    finally:
        for handler in list(root.handlers):
            if isinstance(handler, logging.StreamHandler) and not isinstance(
                handler, logging.NullHandler
            ):
                root.removeHandler(handler)
        root.setLevel(logging.NOTSET)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_trace_and_metrics_flags_write_valid_files(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_LOG", raising=False)
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert (
        main(
            [
                "run",
                "table1",
                "--trace",
                str(trace_path),
                "--metrics",
                str(metrics_path),
            ]
        )
        == 0
    )
    assert telemetry.validate_trace_file(trace_path) > 0
    metrics = telemetry.validate_metrics_file(metrics_path)
    assert metrics["phases"], "a CLI run recorded no phases at all"
