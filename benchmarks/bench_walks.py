"""Bench: batched multi-walker engine + incremental prefix sweeps.

Times the replicated NRMSE sweep (the engine behind Figs. 3, 4, 6) on
the Fig. 3 base substrate, comparing the production path (batched
frontier sampling, incremental prefix ladder) against the seed
reference sweep :func:`tests.oracles.reference_sweep` (a per-replicate
``sample()`` loop, re-subsetting every rung — the test oracle that pins
the fast path bit for bit), for each walk design: RW, MHRW, RWJ, S-WRW
with both next-hop engines (exact keyed inverse-CDF search and O(1)
alias tables). The BFS traversal row times the batched frontier kernel
against the per-stream sequential fallback (``_stack_sequential``). A
subset of designs is additionally swept through the
:mod:`repro.runtime` process executor at several worker counts; every
record self-describes its executor mode and worker count (plus the
runner's core count in the workload), so serial and multi-worker rows
stay comparable across PRs and runners. Results are written to
``BENCH_walks.json`` at the repo root under a per-scale key, so
``REPRO_SCALE=paper`` runs extend the same trajectory file the default
``small`` runs seed (the batched engine's advantage grows with walk
length).

Assertions:

* correctness — fast and reference sweeps are bit-for-bit identical
  (always enforced; the alias engine is bit-identical *to its own
  sequential twin*, its statistical contract vs the keyed search lives
  in ``tests/sampling/test_equivalence.py``);
* wall-clock — the batched+incremental sweep beats the
  ``tests/oracles.py`` reference by a healthy margin (skipped under
  ``--skip-timing-asserts`` / ``REPRO_SKIP_TIMING`` for constrained
  runners).

Run from the repository root, so ``tests.oracles`` imports::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_walks.py

At PR-1 time on the dev machine, against the *pre-PR seed* (whose
observation pipeline was slower still than today's reference paths),
the R=64, 5-rung small-preset sweep measured: RW 3.28s -> 0.30s
(11.0x), MHRW 3.51s -> 0.34s (10.5x), RWJ 4.06s -> 0.38s (10.8x),
S-WRW 4.70s -> 0.78s (6.0x, then bounded by a per-step Python
bisection loop in the weighted kernel). Those figures are recorded in
the JSON under ``seed_baseline_at_pr_time``; the alias rows have no
seed entry (the seed had no batched path for them at all).
The weighted kernel has since replaced that loop with one
``np.searchsorted`` per step over a lexicographic ``(source, local
cumulative)`` arc key, which keeps S-WRW search bit-identical to its
sequential twin and puts it close to the alias engine.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.generators.planted import PlantedModelConfig, planted_category_graph
from repro.rng import derive_rng, ensure_rng, spawn_rngs
from repro.sampling import (
    BreadthFirstSampler,
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    StratifiedWeightedWalkSampler,
)
from repro.sampling.batch import _stack_sequential, sample_streams
from repro.stats import run_nrmse_sweep
from tests.oracles import reference_sweep

#: Acceptance workload: R >= 64 replicate walks, >= 5 ladder rungs.
REPLICATIONS = 64
REPEATS = 2

#: Designs additionally swept through the repro.runtime process
#: executor, and the worker counts tried (capped by available cores —
#: rows are recorded regardless, but a 1-core runner cannot and is not
#: expected to demonstrate parallel speedup).
EXECUTOR_DESIGNS = ("rw", "swrw-alias")
EXECUTOR_WORKERS = (2, 4)

#: Pre-PR-1 seed timings for the small-preset workload (dev machine).
SEED_BASELINE = {"rw": 3.28, "mhrw": 3.51, "rwj": 4.06, "swrw": 4.70}

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_walks.json"


def _samplers(graph, partition):
    return {
        "rw": RandomWalkSampler(graph),
        "mhrw": MetropolisHastingsSampler(graph),
        "rwj": RandomWalkWithJumpsSampler(graph, alpha=7.0),
        "swrw": StratifiedWeightedWalkSampler(graph, partition),
        "swrw-alias": StratifiedWeightedWalkSampler(
            graph, partition, next_hop="alias"
        ),
    }


def _best_of(fn, repeats=REPEATS):
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _telemetry_breakdown(fn) -> dict:
    """One extra *untimed* instrumented run: per-phase seconds plus the
    peak-RSS and shared-memory gauges. Kept out of the timed repeats so
    recording overhead can never skew a recorded wall-clock figure."""
    from repro.runtime import telemetry_scope

    with telemetry_scope() as recorder:
        fn()
    metrics = recorder.metrics_summary()
    return {
        "phase_seconds": {
            f"{cat}.{name}": row["seconds"]
            for cat, names in sorted(metrics["phases"].items())
            for name, row in sorted(names.items())
        },
        "worker_utilization": {
            pid: row["utilization"]
            for pid, row in sorted(metrics["workers"].items())
        },
        "shm_published_bytes": metrics["counters"]["shm.published_bytes"],
        "shm_peak_pool_bytes": metrics["gauges"].get("shm.peak_pool_bytes", 0),
        "driver_peak_rss_bytes": metrics["gauges"].get("driver_peak_rss_bytes"),
        "worker_peak_rss_bytes": metrics["gauges"].get("worker_peak_rss_bytes"),
    }


def _sweeps_equal(a, b) -> bool:
    for kind in ("induced", "star"):
        for attr in ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage"):
            if not np.array_equal(
                getattr(a, attr)[kind], getattr(b, attr)[kind], equal_nan=True
            ):
                return False
    return True


def _merge_record(scale_name: str, record: dict) -> dict:
    """Fold this run into the per-scale trajectory file."""
    scales: dict = {}
    if _JSON_PATH.exists():
        try:
            existing = json.loads(_JSON_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        if "scales" in existing:
            scales = existing["scales"]
        elif "workload" in existing:
            # Legacy single-record layout (PR 1): keep it under its scale.
            scales[existing["workload"].get("scale", "small")] = {
                "workload": existing.get("workload", {}),
                "designs": existing.get("designs", {}),
            }
    scales[scale_name] = record
    return {"seed_baseline_at_pr_time": SEED_BASELINE, "scales": scales}


def test_batched_sweep_speedup(preset, timing_asserts):
    config = PlantedModelConfig(k=20, alpha=0.5, scale=preset.planted_scale)
    graph, partition = planted_category_graph(config, rng=derive_rng(0, 3, 4))
    sizes = preset.fig3_sample_sizes
    ladder = tuple(s for s in sizes if s <= 3 * graph.num_nodes) or sizes[:5]

    cores = os.cpu_count() or 1
    record = {
        "workload": {
            "replications": REPLICATIONS,
            "ladder": list(ladder),
            "scale": preset.name,
            "graph_nodes": graph.num_nodes,
            "graph_edges": graph.num_edges,
            "cpu_cores": cores,
        },
        "designs": {},
    }
    print()
    samplers = _samplers(graph, partition)
    fast_sweeps: dict[str, object] = {}
    for name, sampler in samplers.items():
        # executor="serial" pins the row to in-process execution even
        # when the environment (e.g. CI's REPRO_EXECUTOR=process job)
        # defaults sweeps to the parallel path — rows must match their
        # recorded executor metadata.
        fast_time, fast = _best_of(
            lambda: run_nrmse_sweep(
                graph, partition, sampler, ladder,
                replications=REPLICATIONS, rng=0, executor="serial",
            )
        )
        fast_sweeps[name] = (fast_time, fast)
        ref_time, reference = _best_of(
            lambda: reference_sweep(
                graph, partition, sampler, ladder,
                replications=REPLICATIONS, rng=0,
            ),
            repeats=1,
        )
        assert _sweeps_equal(fast, reference), (
            f"{name}: batched+incremental sweep diverged from the "
            "sequential+subset reference"
        )
        speedup = ref_time / fast_time
        record["designs"][name] = {
            # Every entry self-describes how it executed, so serial and
            # multi-worker rows stay comparable across PRs.
            "executor": {"mode": "serial", "workers": 1},
            "batched_incremental_seconds": round(fast_time, 4),
            "sequential_subset_seconds": round(ref_time, 4),
            "speedup_vs_reference": round(speedup, 2),
        }
        print(
            f"  {name:>10}: batched {fast_time:6.3f}s  "
            f"sequential-reference {ref_time:6.3f}s  ({speedup:.1f}x)"
        )

    # Multi-worker rows: the same fast sweep through the repro.runtime
    # process executor. Always bit-identical; faster only with cores.
    for name in EXECUTOR_DESIGNS:
        sampler = samplers[name]
        single_time, single = fast_sweeps[name]
        for workers in EXECUTOR_WORKERS:
            par_time, parallel = _best_of(
                lambda: run_nrmse_sweep(
                    graph, partition, sampler, ladder,
                    replications=REPLICATIONS, rng=0,
                    executor="process", workers=workers,
                )
            )
            assert _sweeps_equal(parallel, single), (
                f"{name}: process executor (workers={workers}) diverged "
                "from the single-process sweep"
            )
            speedup = single_time / par_time
            record["designs"][f"{name}@process-w{workers}"] = {
                "executor": {"mode": "process", "workers": workers},
                "batched_incremental_seconds": round(par_time, 4),
                "single_process_seconds": round(single_time, 4),
                "speedup_vs_single_process": round(speedup, 2),
                "telemetry": _telemetry_breakdown(
                    lambda: run_nrmse_sweep(
                        graph, partition, sampler, ladder,
                        replications=REPLICATIONS, rng=0,
                        executor="process", workers=workers,
                    )
                ),
            }
            print(
                f"  {name:>10}: process x{workers} {par_time:6.3f}s  "
                f"single-process {single_time:6.3f}s  ({speedup:.1f}x)"
            )

    # Traversal baseline: the BFS set-semantics frontier kernel against
    # its per-replicate sequential twin, at the kernel level (no
    # estimator pipeline — the row measures exactly the vectorization
    # win of repro.sampling.traversal). Bit-equality always asserted.
    traversal_n = graph.num_nodes // 2
    bfs = BreadthFirstSampler(graph)
    # Both sides take best-of: the interpreter twin's wall clock is the
    # noisier of the two (allocator/GC jitter across ~n*R pop loops),
    # and a single noisy run would distort the recorded ratio.
    batched_time, batched = _best_of(
        lambda: sample_streams(
            bfs, traversal_n, spawn_rngs(ensure_rng(0), REPLICATIONS)
        ),
        repeats=2 * REPEATS,
    )
    twin_time, twin = _best_of(
        lambda: _stack_sequential(
            bfs, traversal_n, spawn_rngs(ensure_rng(0), REPLICATIONS)
        ),
    )
    assert np.array_equal(batched.nodes, twin.nodes), (
        "bfs: batched frontier kernel diverged from the sequential twin"
    )
    speedup = twin_time / batched_time
    record["designs"]["bfs"] = {
        "executor": {"mode": "serial", "workers": 1},
        "kernel": "traversal-frontier",
        "sample_size": traversal_n,
        "batched_kernel_seconds": round(batched_time, 4),
        "sequential_twin_seconds": round(twin_time, 4),
        "speedup_vs_sequential_twin": round(speedup, 2),
    }
    print(
        f"  {'bfs':>11}: batched {batched_time:6.3f}s  "
        f"sequential-twin {twin_time:6.3f}s  ({speedup:.1f}x)"
    )

    _JSON_PATH.write_text(
        json.dumps(_merge_record(preset.name, record), indent=2) + "\n"
    )
    print(f"  -> {_JSON_PATH.name} written ({preset.name} scale)")

    if timing_asserts:
        # The oracle reference already benefits from the vectorized
        # observation pipeline, so the bar here is lower than the >=10x
        # measured against the true pre-PR-1 seed.
        for name in samplers:
            row = record["designs"][name]
            assert row["speedup_vs_reference"] >= 1.5, (name, row)
        assert record["designs"]["rw"]["speedup_vs_reference"] >= 2.0, record
        # The alias engine must not regress S-WRW: its batched sweep
        # stays within a whisker of (and typically beats) the
        # keyed-search kernel's.
        swrw = record["designs"]["swrw"]["batched_incremental_seconds"]
        alias = record["designs"]["swrw-alias"]["batched_incremental_seconds"]
        assert alias <= 1.25 * swrw, record["designs"]
        # Parallel speedup needs parallel hardware and enough work per
        # shard to amortize process startup: assert the >=1.5x bar for
        # 2 workers on the medium/paper presets when >=2 cores exist.
        if cores >= 2 and preset.name != "small":
            for name in EXECUTOR_DESIGNS:
                row = record["designs"][f"{name}@process-w2"]
                assert row["speedup_vs_single_process"] >= 1.5, (name, row)
        # Traversal frontier kernel: a pure NumPy-vs-interpreter win,
        # demonstrable even on a 1-core runner.
        row = record["designs"]["bfs"]
        assert row["speedup_vs_sequential_twin"] >= 3.0, row
