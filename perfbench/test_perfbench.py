"""Self-tests for the benchmark's own logic (no ``repro`` run needed).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _series(**curves):
    return {
        "metadata": {"title": "t"},
        "series": {label: {"x": list(range(1, len(ys) + 1)), "y": ys} for label, ys in curves.items()},
    }


def _write(directory: Path, outputs: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in outputs.items():
        (directory / f"{name}.json").write_text(json.dumps(data))
    return directory


def _fig3a(k49_star_end=0.001):
    return {
        "fig3a": _series(
            **{
                "k=5/induced": [0.09, 0.02, 0.002],
                "k=5/star": [0.04, 0.01, 0.0017],
                "k=49/induced": [0.1, 0.03, 0.003],
                "k=49/star": [0.04, 0.008, k49_star_end],
            }
        )
    }


def test_digest_is_stable_and_sensitive(tmp_path):
    a = _write(tmp_path / "a", _fig3a())
    b = _write(tmp_path / "b", _fig3a())
    assert checks.digest(a) == checks.digest(b)
    # Non-JSON outputs (CSV, text renderings) are not part of the digest.
    (b / "fig3a.txt").write_text("chart")
    assert checks.digest(a) == checks.digest(b)
    c = _write(tmp_path / "c", _fig3a(k49_star_end=0.0011))
    assert checks.digest(a) != checks.digest(c)


def test_claims_accept_the_paper_shape():
    assert checks.fig3a_claims(_fig3a()) == []


def test_claims_reject_a_corrupted_series():
    # k=49 star no longer converges and ends above k=5: both claims break.
    broken = checks.fig3a_claims(_fig3a(k49_star_end=0.05))
    assert any("k=49/star" in problem for problem in broken)
    assert any("k=49 star curve" in problem for problem in broken)
    assert checks.fig3a_claims({}) == ["fig3a: output missing"]


def test_fig6_claims_reject_induced_beating_star():
    weights = _series(**{"RW10/induced": [3.0, 1.0], "RW10/star": [2.0, 1.5]})
    sizes = _series(**{"S-WRW10/induced": [1.0, 0.5], "S-WRW10/star": [0.8, 0.3]})
    outputs = {"fig6a": sizes, "fig6b": sizes, "fig6c": weights, "fig6d": weights}
    assert checks.fig6_claims(outputs) == [
        "fig6c: RW10 star 1.5 >= induced 1",
        "fig6d: RW10 star 1.5 >= induced 1",
    ]


def test_set_check_flags_the_odd_digest_and_a_reference_mismatch():
    runs = [run.Run(1.0, 1.0, 1.0, 0, digest=d) for d in ("x", "x", "y")]
    run.check_digests(runs)
    assert [r.ok for r in runs] == [True, True, False]
    runs = [run.Run(1.0, 1.0, 1.0, 0, digest=d) for d in ("x", "y")]
    run.check_digests(runs)  # a tie: no digest can be trusted
    assert [r.ok for r in runs] == [False, False]
    runs = [run.Run(1.0, 1.0, 1.0, 0, digest="x")]
    run.check_digests(runs, reference="z")
    assert not runs[0].ok


def test_self_time_of_crawls_excludes_nested_sampling():
    ms = 1_000_000
    spans = [
        ["facebook.crawls", 1, 0, 100 * ms, None],
        ["sampling.swrw.sample", 1, 10 * ms, 40 * ms, 0],
        ["sampling.rw.sample", 1, 50 * ms, 60 * ms, 0],
        ["facebook.world", 2, 20 * ms, 150 * ms, None],  # another thread
    ]
    times = tracing.layer_times(spans)
    assert abs(times["facebook.crawls"][0] - 0.060) < 1e-12
    assert abs(times["sampling.swrw.sample"][0] - 0.030) < 1e-12
    assert times["facebook.crawls"][1] == 1
    # Coverage is a union across threads, not a sum.
    assert abs(tracing.covered_seconds(spans) - 0.150) < 1e-12


def test_tracer_nests_per_thread():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer[4] is None and inner[4] == 0
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


def test_env_scrub_drops_repro_knobs_and_isolates_dirs(tmp_path):
    base = {
        "PATH": "/bin",
        "REPRO_EXECUTOR": "process",
        "REPRO_FAULTS": "kill:1",
        "REPRO_PLANE_CACHE": "/shared/planes",
        "PYTHONPATH": "/elsewhere",
        "OPENBLAS_NUM_THREADS": "8",
    }
    env = run.scrubbed_env(base, tmp_path)
    assert "REPRO_EXECUTOR" not in env and "REPRO_FAULTS" not in env
    assert env["PATH"] == "/bin"
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(run.SRC)
    for key in ("REPRO_STORAGE_DIR", "REPRO_PLANE_CACHE", "TMPDIR"):
        path = Path(env[key])
        assert path.is_dir() and path.parent == tmp_path and not os.listdir(path)
    assert "REPRO_EXECUTOR" in base  # the caller's environment is untouched


def test_host_speed_reads_the_pinned_cpu_or_every_cpu():
    ref = run.PROBE_REF_S
    before, after = {0: ref, 1: 2 * ref}, {0: ref, 1: 4 * ref}
    assert run.host_speed(before, after, cpu=0) == 1.0
    assert abs(run.host_speed(before, after, cpu=1) - 1 / 3) < 1e-12
    assert abs(run.host_speed(before, after, cpu=None) - 0.5) < 1e-12


def test_probe_covers_every_allowed_cpu_and_restores_affinity():
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {None}
    times = run.probe_cpus()
    assert set(times) == allowed and all(t > 0 for t in times.values())
    if hasattr(os, "sched_getaffinity"):
        assert os.sched_getaffinity(0) == allowed


def test_layer_metrics_cover_every_declared_name():
    trace = {"spans": [["import", 1, 0, 500_000_000, None]], "counters": {}, "metrics": None}
    values = run.layer_metrics(trace, traced_wall=1.0, untraced_wall=0.9)
    assert set(values) == set(run.per_layer_names())
    assert abs(values["import.self_s"] - 0.5) < 1e-12
    assert abs(values["trace.unattributed_ratio"] - 0.5) < 1e-12
    assert abs(values["trace.overhead_s"] - 0.1) < 1e-12


def test_benchmark_json_matches_the_driver():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    units = dict(run.END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
