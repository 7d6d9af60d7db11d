"""Shard-count invariance and error handling of the process executor.

The determinism contract of :mod:`repro.runtime`: a sweep routed
through ``executor="process"`` is **bit-identical** to the serial
engine for any worker count, for every design family — batched frontier
kernels, the alias next-hop, the union-CSR multigraph walk, and the
sequential-fallback designs alike.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import EstimationError, SamplingError
from repro.generators import gnm, planted_category_graph
from repro.graph import CategoryPartition
from repro.runtime import ProcessSweepExecutor, runtime_options
from repro.sampling import (
    BreadthFirstSampler,
    ForestFireSampler,
    MultigraphRandomWalkSampler,
    RandomWalkSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
)
from repro.sampling.base import Sampler
from repro.stats import run_nrmse_sweep, run_nrmse_sweep_from_samples

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 1234

DESIGNS = {
    "rw": lambda g, p, rel: RandomWalkSampler(g),
    "swrw-alias": lambda g, p, rel: StratifiedWeightedWalkSampler(
        g, p, next_hop="alias"
    ),
    "multigraph": lambda g, p, rel: MultigraphRandomWalkSampler([g, rel]),
    # no batch kernel: exercises the executor's sequential fallback
    "uis": lambda g, p, rel: UniformIndependenceSampler(g),
    # without-replacement traversal kernels (set-semantics frontier)
    "bfs": lambda g, p, rel: BreadthFirstSampler(g),
    "forest_fire": lambda g, p, rel: ForestFireSampler(g),
}


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=6, scale=60, rng=7)
    relation = gnm(graph.num_nodes, max(graph.num_edges // 3, 1), rng=11)
    return graph, partition, relation


@pytest.fixture(scope="module")
def serial_sweeps(world):
    graph, partition, relation = world
    return {
        name: run_nrmse_sweep(
            graph,
            partition,
            factory(graph, partition, relation),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="serial",
        )
        for name, factory in DESIGNS.items()
    }


def assert_sweeps_equal(a, b, context=""):
    assert np.array_equal(a.sample_sizes, b.sample_sizes)
    for kind in ("induced", "star"):
        for attr in (
            "size_nrmse",
            "weight_nrmse",
            "size_coverage",
            "weight_coverage",
        ):
            assert np.array_equal(
                getattr(a, attr)[kind], getattr(b, attr)[kind], equal_nan=True
            ), f"{context}: {attr}[{kind}] diverged"


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_process_executor_bit_identical_for_any_worker_count(
    name, workers, world, serial_sweeps
):
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        DESIGNS[name](graph, partition, relation),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=workers,
    )
    assert_sweeps_equal(
        serial_sweeps[name], parallel, f"{name} workers={workers}"
    )


def test_workers_beyond_replications_are_clamped(world, serial_sweeps):
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=REPLICATIONS + 5,
    )
    assert_sweeps_equal(serial_sweeps["rw"], parallel, "over-sharded")


def test_runtime_options_route_sweeps_through_the_executor(
    world, serial_sweeps
):
    graph, partition, relation = world
    with runtime_options(executor="process", workers=2):
        ambient = run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
        )
    assert_sweeps_equal(serial_sweeps["rw"], ambient, "ambient options")


def test_environment_routes_sweeps_through_the_executor(
    world, serial_sweeps, monkeypatch
):
    graph, partition, relation = world
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    from_env = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
    )
    assert_sweeps_equal(serial_sweeps["rw"], from_env, "env routing")


class _ExplodingSampler(Sampler):
    """Fallback-path sampler that fails inside the worker process."""

    @property
    def design(self) -> str:
        return "exploding"

    @property
    def uniform(self) -> bool:
        return True

    def sample(self, n, rng=None):
        raise SamplingError("boom inside the worker")


def test_worker_failures_surface_with_their_traceback(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="boom inside the worker"):
        run_nrmse_sweep(
            graph,
            partition,
            _ExplodingSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="process",
            workers=2,
        )


class _NoDrawSampler(UniformIndependenceSampler):
    """A sampler that fails the test if a sweep ever draws from it."""

    def sample(self, n, rng=None):
        raise AssertionError("sampled despite an invalid sweep")

    def sample_many(self, n, replications, rng=None):
        raise AssertionError("sampled despite an invalid sweep")


#: case -> (entry point, overrides, the exact EstimationError message)
BAD_SWEEPS = {
    "replications=0": (
        "fresh", {"replications": 0}, "replications must be positive, got 0"
    ),
    "sample_sizes=(0,)": (
        "fresh", {"sample_sizes": (0,)}, "sample_sizes must be positive integers"
    ),
    "weight_size_plugin": (
        "fresh",
        {"weight_size_plugin": "bogus"},
        "unknown weight_size_plugin 'bogus'",
    ),
    "mean_degree_model": (
        "fresh",
        {"mean_degree_model": "bogus"},
        "unknown mean_degree_model 'bogus'; use 'per-category' or 'global'",
    ),
    "predrawn mean_degree_model": (
        "predrawn",
        {"mean_degree_model": "bogus"},
        "unknown mean_degree_model 'bogus'; use 'per-category' or 'global'",
    ),
    "truth_mode": (
        "predrawn", {"truth_mode": "bogus"}, "unknown truth_mode 'bogus'"
    ),
    "samples shorter than the top rung": (
        "predrawn",
        {"sample_sizes": (40, LADDER[-1] + 1)},
        f"every sample must have at least {LADDER[-1] + 1} draws for this sweep",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_bad_sweep_inputs_fail_alike_before_any_work(executor, case, world):
    """Every executor rejects a bad sweep with the same named error,
    before a replicate is drawn or a worker is dispatched."""
    from repro.stats import run_nrmse_sweep_from_samples

    graph, partition, relation = world
    mode, overrides, message = BAD_SWEEPS[case]
    if mode == "fresh":
        kwargs = dict(
            sample_sizes=LADDER, replications=REPLICATIONS, rng=SEED
        )
        kwargs.update(overrides)
        sweep = run_nrmse_sweep
        source = _NoDrawSampler(graph)
    else:
        kwargs = dict(sample_sizes=LADDER)
        kwargs.update(overrides)
        sweep = run_nrmse_sweep_from_samples
        source = [
            UniformIndependenceSampler(graph).sample(LADDER[-1], rng=seed)
            for seed in range(2)
        ]
    with pytest.raises(EstimationError) as raised:
        sweep(graph, partition, source, executor=executor, **kwargs)
    assert str(raised.value) == message


def test_invalid_executor_arguments_rejected(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="unknown executor"):
        run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="threads",
        )
    with pytest.raises(EstimationError, match="workers must be >= 1"):
        ProcessSweepExecutor(workers=0)


def test_executor_instance_rejects_conflicting_knobs(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="not both"):
        run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor=ProcessSweepExecutor(workers=2),
            workers=4,
        )


def test_inner_scope_can_switch_resume_off(monkeypatch):
    from repro.runtime import active_options

    monkeypatch.setenv("REPRO_RESUME", "1")
    assert active_options().resume is True
    with runtime_options(resume=False):
        assert active_options().resume is False
    assert active_options().resume is True


def test_cli_resume_requires_checkpoint(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "fig3a", "--resume"])
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_bare_process_knobs_imply_the_process_executor(world, serial_sweeps):
    """workers=/checkpoint= without executor= must not silently run serial."""
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        workers=2,
    )
    assert_sweeps_equal(serial_sweeps["rw"], parallel, "implied process")


def test_malformed_workers_env_names_the_variable(monkeypatch):
    from repro.runtime.config import active_options

    monkeypatch.setenv("REPRO_WORKERS", "two")
    with pytest.raises(EstimationError, match="REPRO_WORKERS"):
        active_options()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_workers_env_rejected(monkeypatch, value):
    """REPRO_WORKERS=0/-2 must raise, not be silently accepted."""
    from repro.runtime.config import active_options

    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(EstimationError, match="REPRO_WORKERS must be >= 1"):
        active_options()


def test_driver_never_holds_a_replicate_stack():
    """The driver reduces each rung as its shard rows arrive.

    With C = 200 categories, one (R, K, C, C) float64 stack of weight
    estimates is 14.6 MiB. Filling whole stacks before reducing held
    two of them (one per measurement kind) on top of the returned
    (K, C, C) surfaces. Streaming holds one rung's rows at a time, so
    the driver's traced peak, net of the result it returns, stays below
    a single stack.
    """
    c, r, k = 200, 8, 6
    graph = gnm(c * 10, c * 40, rng=3)
    partition = CategoryPartition(np.arange(graph.num_nodes) % c)
    samples = list(
        UniformIndependenceSampler(graph).sample_many(600, r, rng=5)
    )
    sizes = np.linspace(100, 600, k).astype(np.int64)

    def sweep():
        return run_nrmse_sweep_from_samples(
            graph, partition, samples, sizes, executor="process", workers=2
        )

    serial = run_nrmse_sweep_from_samples(
        graph, partition, samples, sizes, executor="serial"
    )
    sweep()  # spawns the pool and caches the observation planes
    tracemalloc.start()
    try:
        result = sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_sweeps_equal(serial, result, "streamed reduction")
    kept = sum(
        getattr(result, attr)[kind].nbytes
        for attr in ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage")
        for kind in ("induced", "star")
    )
    stack = r * k * c * c * np.dtype(np.float64).itemsize
    assert peak - kept < stack, (
        f"driver peak {peak / 2**20:.1f} MiB holds more than the "
        f"{kept / 2**20:.1f} MiB result plus one {stack / 2**20:.1f} MiB stack"
    )


def test_serial_sweep_never_holds_a_replicate_stack():
    """The serial sweep folds each replicate's rows as its ladder
    produces them.

    The case is the driver test's above. Filling whole (R, K, C, C)
    stacks before reducing held two of them; the running sums hold one
    (C, C) plane and two int32 count planes per open rung and weight
    field, so the traced peak, net of the result, stays below a single
    stack.
    """
    c, r, k = 200, 8, 6
    graph = gnm(c * 10, c * 40, rng=3)
    partition = CategoryPartition(np.arange(graph.num_nodes) % c)
    samples = list(
        UniformIndependenceSampler(graph).sample_many(600, r, rng=5)
    )
    sizes = np.linspace(100, 600, k).astype(np.int64)

    def sweep():
        return run_nrmse_sweep_from_samples(
            graph, partition, samples, sizes, executor="serial"
        )

    first = sweep()  # caches the observation planes
    tracemalloc.start()
    try:
        result = sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_sweeps_equal(first, result, "repeated serial sweep")
    kept = sum(
        getattr(result, attr)[kind].nbytes
        for attr in ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage")
        for kind in ("induced", "star")
    )
    stack = r * k * c * c * np.dtype(np.float64).itemsize
    assert peak - kept < stack, (
        f"serial peak {peak / 2**20:.1f} MiB holds more than the "
        f"{kept / 2**20:.1f} MiB result plus one {stack / 2**20:.1f} MiB stack"
    )


def test_each_shard_gets_its_next_rung_before_this_one_is_folded(
    world, monkeypatch
):
    """A shard's worker computes rung si+1 while the driver folds its
    rung-si rows: its next command is on the channel before the fold."""
    from repro.runtime.pool import PersistentWorkerPool
    from repro.stats.replication import RungReducer

    events = []
    open_task = PersistentWorkerPool.open_task
    fold = RungReducer.fold

    class RecordingChannel:
        def __init__(self, channel, first):
            self._channel, self._first = channel, first

        def send(self, kind, *parts):
            if kind in ("rung", "skip"):
                events.append(("send", self._first, parts[0]))
            self._channel.send(kind, *parts)

        def __getattr__(self, name):
            return getattr(self._channel, name)

    def recording_open_task(pool, handle, payload, cfg):
        channel = open_task(pool, handle, payload, cfg)
        return RecordingChannel(channel, cfg["shard"][0])

    def recording_fold(reducer, si, rows):
        events.append(("fold", si, len(rows[0])))
        fold(reducer, si, rows)

    monkeypatch.setattr(PersistentWorkerPool, "open_task", recording_open_task)
    monkeypatch.setattr(RungReducer, "fold", recording_fold)
    graph, partition, _ = world
    samples = list(
        UniformIndependenceSampler(graph).sample_many(LADDER[-1], 6, rng=SEED)
    )
    parallel = run_nrmse_sweep_from_samples(
        graph, partition, samples, LADDER, executor="process", workers=2
    )
    monkeypatch.undo()
    serial = run_nrmse_sweep_from_samples(
        graph, partition, samples, LADDER, executor="serial"
    )
    assert_sweeps_equal(serial, parallel, "queued rungs")

    firsts = sorted({first for kind, first, _ in events if kind == "send"})
    assert firsts == [0, 3]
    for si in range(len(LADDER)):
        folds = [i for i, e in enumerate(events) if e[:2] == ("fold", si)]
        # One fold per shard, in slot (= replicate) order.
        assert [events[i][2] for i in folds] == [3, 3]
        for slot, first in enumerate(firsts):
            sent = events.index(("send", first, si))
            assert sent < folds[slot]
            if si + 1 < len(LADDER):
                assert events.index(("send", first, si + 1)) < folds[slot]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("workers", [None, 2])
def test_cross_sample_sweep_is_silent_on_infinite_estimates(workers):
    """Some full-length star size estimates are inf here, so one
    category's cross-sample pseudo-truth is inf and the squared error of
    an inf replicate is inf - inf: a NaN replicate, dropped without a
    RuntimeWarning on either executor, with the whole-stack oracle's
    bytes."""
    from repro.graph import Graph
    from tests.oracles import reference_sweep_from_samples

    graph = Graph.from_edges(4, [[0, 1], [1, 2]])
    partition = CategoryPartition(np.array([0, 1, 0, 1]))
    samples = list(
        UniformIndependenceSampler(graph).sample_many(8, 12, rng=0)
    )
    sizes = [2, 4, 8]
    result = run_nrmse_sweep_from_samples(
        graph,
        partition,
        samples,
        sizes,
        truth_mode="cross-sample",
        executor="serial" if workers is None else "process",
        workers=workers,
    )
    expected = reference_sweep_from_samples(
        graph, partition, samples, sizes, truth_mode="cross-sample"
    )
    for attr in ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage"):
        for kind in ("induced", "star"):
            got, want = getattr(result, attr)[kind], getattr(expected, attr)[kind]
            assert got.tobytes() == want.tobytes(), (attr, kind)
    # NRMSE against an infinite pseudo-truth is undefined.
    assert np.isnan(result.size_nrmse["star"][:, 1]).all()
