"""Bench: plan-level wall clock — serial vs the process executor.

Times whole experiment *plans* (the grids behind Figs. 4/6) end to end
under two execution modes:

* ``serial`` — the in-process serial executor (no workers at all);
* ``process-wN`` — the process executor: one cell at a time, in plan
  order, each cell's replicates sharded over the persistent worker
  pool.

Both modes must produce byte-identical results (always asserted — this
is the determinism contract at the plan grain); the wall-clock rows are
written to ``BENCH_plans.json`` at the repo root under a per-scale key,
like ``BENCH_walks.json``, so ``REPRO_SCALE=paper`` runs extend the
same trajectory file. Each record self-describes its worker count and
the runner's core count. The rows carry no timing bar.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.experiments import run_experiment
from repro.runtime import runtime_options
from repro.runtime.pool import reset_default_pools

#: Plans benched: fig4 (four dataset resources x three designs) and
#: fig6 (five pre-drawn crawl cells over one shared world).
EXPERIMENTS = ("fig4", "fig6")
WORKERS = 2

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_plans.json"


def _results_equal(a, b) -> bool:
    if list(a) != list(b):
        return False
    for rid in a:
        if list(a[rid].series) != list(b[rid].series):
            return False
        for label, (xs, ys) in a[rid].series.items():
            bx, by = b[rid].series[label]
            if not np.array_equal(np.asarray(xs), np.asarray(bx), equal_nan=True):
                return False
            if not np.array_equal(np.asarray(ys), np.asarray(by), equal_nan=True):
                return False
        if a[rid].table != b[rid].table:
            return False
    return True


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _merge_record(scale_name: str, record: dict) -> dict:
    scales: dict = {}
    if _JSON_PATH.exists():
        try:
            existing = json.loads(_JSON_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        scales = existing.get("scales", {})
    scales[scale_name] = record
    return {
        "description": (
            "plan-level wall clock: serial vs process executor "
            "(byte-identical outputs asserted for every row)"
        ),
        "scales": scales,
    }


def test_plan_wall_clock(preset):
    cores = os.cpu_count() or 1
    record = {
        "workload": {
            "experiments": list(EXPERIMENTS),
            "scale": preset.name,
            "workers": WORKERS,
            "cpu_cores": cores,
        },
        "plans": {},
    }
    print()
    for experiment in EXPERIMENTS:
        serial_time, serial = _timed(
            lambda: run_experiment(experiment, rng=0, preset=preset)
        )

        def process_run():
            with runtime_options(executor="process", workers=WORKERS):
                return run_experiment(experiment, rng=0, preset=preset)

        # Fresh workers, so the row pays the pool's spawn cost once, as
        # a fresh ``repro run --workers`` process does.
        reset_default_pools()
        process_time, parallel = _timed(process_run)

        assert _results_equal(serial, parallel), (
            f"{experiment}: process output diverged from serial"
        )

        # One extra untimed instrumented run: the per-phase breakdown
        # plus peak-RSS / shared-memory gauges, kept out of the timed
        # rows so recording can never skew wall clock.
        from benchmarks.bench_walks import _telemetry_breakdown

        record["plans"][experiment] = {
            "serial_seconds": round(serial_time, 4),
            f"process-w{WORKERS}_seconds": round(process_time, 4),
            "telemetry": _telemetry_breakdown(process_run),
        }
        print(
            f"  {experiment:>6}: serial {serial_time:6.3f}s  "
            f"process x{WORKERS} {process_time:6.3f}s"
        )

    _JSON_PATH.write_text(
        json.dumps(_merge_record(preset.name, record), indent=2) + "\n"
    )
    print(f"  -> {_JSON_PATH.name} written ({preset.name} scale)")
