"""Golden regression: fast sweep paths vs the seed reference sweep.

``run_nrmse_sweep`` runs the fast paths only (batched frontier
sampling, incremental prefix ladder); the seed algorithms survive as
the test oracle :func:`tests.oracles.reference_sweep` (a per-replicate
``sample()`` loop, re-subsetting every rung). On a fixed seed and
preset-sized world, the two must produce **bit-identical** NRMSE
surfaces for every design — including the alias-table S-WRW, whose
kernel is exercised end-to-end through the full estimator stack here (the unit-level contracts live in
``tests/sampling/test_equivalence.py``).

The same bar extends to the :mod:`repro.runtime` process executor:
``executor="process", workers=2`` must reproduce the serial fast path
bit for bit, for every registered design.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import planted_category_graph
from repro.sampling import (
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
)
from repro.stats import run_nrmse_sweep
from tests.oracles import reference_sweep

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 1234


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=6, scale=60, rng=7)
    return graph, partition


DESIGNS = {
    "uis": lambda g, p: UniformIndependenceSampler(g),
    "rw": lambda g, p: RandomWalkSampler(g),
    "mhrw": lambda g, p: MetropolisHastingsSampler(g),
    "rwj": lambda g, p: RandomWalkWithJumpsSampler(g, alpha=6.0),
    "swrw": lambda g, p: StratifiedWeightedWalkSampler(g, p),
    "swrw-alias": lambda g, p: StratifiedWeightedWalkSampler(
        g, p, next_hop="alias"
    ),
}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_fast_sweep_bit_identical_to_sequential_subset(name, world):
    graph, partition = world
    factory = DESIGNS[name]
    fast = run_nrmse_sweep(
        graph,
        partition,
        factory(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
    )
    reference = reference_sweep(
        graph,
        partition,
        factory(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
    )
    assert np.array_equal(fast.sample_sizes, reference.sample_sizes)
    for kind in ("induced", "star"):
        for attr in (
            "size_nrmse",
            "weight_nrmse",
            "size_coverage",
            "weight_coverage",
        ):
            assert np.array_equal(
                getattr(fast, attr)[kind],
                getattr(reference, attr)[kind],
                equal_nan=True,
            ), f"{name}: {attr}[{kind}] diverged from the reference path"


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_process_executor_bit_identical_to_serial_sweep(name, world):
    graph, partition = world
    factory = DESIGNS[name]
    serial = run_nrmse_sweep(
        graph,
        partition,
        factory(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="serial",
    )
    parallel = run_nrmse_sweep(
        graph,
        partition,
        factory(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=2,
    )
    assert np.array_equal(serial.sample_sizes, parallel.sample_sizes)
    for kind in ("induced", "star"):
        for attr in (
            "size_nrmse",
            "weight_nrmse",
            "size_coverage",
            "weight_coverage",
        ):
            assert np.array_equal(
                getattr(serial, attr)[kind],
                getattr(parallel, attr)[kind],
                equal_nan=True,
            ), f"{name}: {attr}[{kind}] diverged between executors"


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_sweep_bit_identical_with_telemetry_enabled(workers, world, tmp_path):
    """The telemetry plane is output-neutral: recording a full trace
    changes no byte of the NRMSE surfaces, at any worker count."""
    from repro.runtime import telemetry_scope
    from repro.runtime.telemetry import (
        validate_metrics_file,
        validate_trace_file,
    )

    graph, partition = world
    factory = DESIGNS["swrw"]
    plain = run_nrmse_sweep(
        graph,
        partition,
        factory(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=workers,
    )
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    with telemetry_scope(trace=trace, metrics=metrics):
        traced = run_nrmse_sweep(
            graph,
            partition,
            factory(graph, partition),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="process",
            workers=workers,
        )
    assert np.array_equal(plain.sample_sizes, traced.sample_sizes)
    for kind in ("induced", "star"):
        for attr in (
            "size_nrmse",
            "weight_nrmse",
            "size_coverage",
            "weight_coverage",
        ):
            assert np.array_equal(
                getattr(plain, attr)[kind],
                getattr(traced, attr)[kind],
                equal_nan=True,
            ), f"{attr}[{kind}] changed with telemetry enabled"
    assert validate_trace_file(trace) > 0
    validate_metrics_file(metrics)
