"""Outside-in benchmark of the ``repro`` CLI.

    python3 perfbench/run.py --workload fig4-serial --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Every measured run is a fresh ``python -m repro run ...`` process built
from this checkout's ``src/``, started with every inherited ``REPRO_*``
variable dropped and its own empty directories for ``--out``,
``--metrics``, ``REPRO_STORAGE_DIR``, ``REPRO_PLANE_CACHE`` and
``TMPDIR``; in-process caches never carry from one run to the next. The
load is a closed loop: one run at a time.

``--trace 0`` repeats the workload until ``--seconds`` is spent (at
least twice) and reports the end-to-end metrics as medians; times are
scaled by the host speed probed around each run (:func:`host_speed`).
``--trace 1`` makes one untraced run and one traced run
(``perfbench/tracing.py``) and reports the per-layer split. Each set
checks its outputs: every run exits 0, its output digest matches the
rest of its set (and, for a ``--workers`` workload, a serial run at the
same seed; the traced set makes that serial run and timed sets reuse
its digest), and the paper's shape claims hold (``perfbench/checks.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See
``perfbench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: Serial output digests by (command, source fingerprint, seed), so a
#: parallel set skips its serial reference run when one already ran.
REFERENCES = WORK / "references"
PINNED = Path(__file__).resolve().parent / "digests.json"

#: An invocation must exit within 180 s; stop starting runs well before.
TIME_LIMIT_S = 150.0
#: Timed repetitions per ``--trace 0`` set, whatever ``--seconds`` says.
MIN_REPS = 2
#: ``repro experiment ... --show-plan`` repetitions behind ``setup_s``.
SETUP_REPS = 5
MIB = 1024 * 1024
#: Every run's BLAS pools get one thread, whatever the caller set. With a
#: pool per core, an eigensolve ran twice as fast when the host's other
#: core happened to be idle, so the wall measured the neighbours' load;
#: ``--workers`` stays the only parallelism a workload measures.
BLAS_THREADS = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: The host-speed probe: ``PROBE_OPS`` dict updates take about
#: ``PROBE_REF_S`` on an idle core of the 2.1 GHz Xeon the bounds were
#: set on. A core whose neighbours keep it busy runs it 1.3-1.6 times
#: slower, for stretches of 10-40 s; see :func:`host_speed`.
PROBE_OPS = 60_000
PROBE_REF_S = 0.008


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    flags: tuple[str, ...]

    @property
    def parallel(self) -> bool:
        return "--workers" in self.flags

    def serial(self) -> "Workload":
        """The same command without ``--workers``: by the determinism
        contract it must produce the same bytes."""
        flags = list(self.flags)
        if self.parallel:
            at = flags.index("--workers")
            del flags[at : at + 2]
        return Workload(self.name, self.experiment, tuple(flags))

    @property
    def output_key(self) -> str:
        """Commands that must produce identical bytes share this key."""
        return " ".join([self.experiment, *self.serial().flags])


#: Scales are chosen so one run takes a few seconds: a set then holds
#: enough runs for its median to be steady on a noisy shared machine.
#: ``fig4 --workers 2`` is not here: at medium scale its outputs differ
#: from the serial run's on some seeds, so it would fail its own output
#: check (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4-serial", "fig4", ("--scale", "small")),
        Workload("fig3a-serial", "fig3a", ("--scale", "medium")),
        Workload("fig6-w2", "fig6", ("--scale", "medium", "--workers", "2")),
    )
}

END_TO_END = (
    ("wall_ref_s", "s"),
    ("setup_s", "s"),
    ("cpu_ref_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("draws_per_ref_s", "1/s"),
)

#: Per-layer metric -> (span or counter it reads, what it reports).
#: ``self_s`` is summed self time, ``calls`` the span count, ``count`` a
#: counter total.
LAYER_SPANS = {
    "import.self_s": ("import", "self_s"),
    "experiments.compile_s": ("experiments.compile", "self_s"),
    "experiments.finalize_s": ("experiments.finalize", "self_s"),
    "experiments.save_s": ("experiments.save", "self_s"),
    "generators.planted_s": ("generators.planted", "self_s"),
    "datasets.load_s": ("datasets.load", "self_s"),
    "community.leading_eigenvector_s": ("community.leading_eigenvector", "self_s"),
    "community.bisections": ("community.bisections", "count"),
    "facebook.world_s": ("facebook.world", "self_s"),
    "facebook.crawls_s": ("facebook.crawls", "self_s"),
    "observation.observe_both_s": ("observation.observe_both", "self_s"),
    "stats.ladder_estimates_s": ("stats.ladder_estimates", "self_s"),
    "stats.rungs": ("stats.ladder_estimates", "calls"),
    "stats.reduce_s": ("stats.reduce", "self_s"),
    "graph.truth_s": ("graph.truth", "self_s"),
    "runtime.executor_s": ("runtime.executor", "self_s"),
}
DESIGNS = ("uis", "rw", "mhrw", "swrw")
RUNTIME_METRICS = (
    "runtime.spawn_s",
    "runtime.dispatch_s",
    "runtime.driver_wait_s",
    "runtime.resource_s",
    "runtime.worker_busy_s",
    "runtime.worker_utilization",
    "runtime.shm_published_mb",
    "runtime.worker_peak_rss_mb",
    "runtime.failovers",
)


def _unit(name: str) -> str:
    if name.endswith("draws_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio") or name.endswith("_utilization"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    names = list(LAYER_SPANS)
    for design in DESIGNS:
        names += [
            f"sampling.{design}.sample_s",
            f"sampling.{design}.draws",
            f"sampling.{design}.draws_per_s",
        ]
    names += list(RUNTIME_METRICS)
    names += ["trace.unattributed_s", "trace.unattributed_ratio", "trace.overhead_s"]
    return names


# ----------------------------------------------------------------------
# Running one process
# ----------------------------------------------------------------------
@dataclass
class Run:
    """One child process: what it cost and what it produced."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    #: See :func:`host_speed`; set on timed runs only.
    host_speed: float | None = None
    digest: str | None = None
    broken: list[str] = field(default_factory=list)
    outputs: dict | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.digest is not None and not self.broken


def scrubbed_env(base: dict[str, str], run_dir: Path) -> dict[str, str]:
    """The environment of one run: no inherited ``REPRO_*`` knob, this
    checkout's sources, BLAS pools of one thread (:data:`BLAS_THREADS`),
    and fresh per-run storage, plane-cache and temp directories (created
    here)."""
    env = {
        key: value
        for key, value in base.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(SRC)
    env.update(BLAS_THREADS)
    for key, sub in (
        ("REPRO_STORAGE_DIR", "storage"),
        ("REPRO_PLANE_CACHE", "planes"),
        ("TMPDIR", "tmp"),
    ):
        path = run_dir / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: list[str], run_dir: Path, timeout: float, cpu: int | None = None) -> Run:
    """Run ``argv`` to completion in its own session; rusage via wait4.

    ``wait4`` reports user+sys time of the child and every descendant it
    reaped (its pool workers), and the largest RSS among them. Whatever
    the child leaves behind in its session is killed and reaped. With
    ``cpu`` the child is pinned to that CPU.
    """
    env = scrubbed_env(os.environ, run_dir)
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=run_dir, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, Ctrl-C): take the run down with us.
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    _reap_orphans()
    return Run(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MIB,
        exit_code=proc.returncode,
    )


def _become_subreaper() -> None:
    """Adopt orphaned descendants so :func:`_reap_orphans` can wait on them."""
    if sys.platform.startswith("linux"):
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_orphans(patience_s: float = 10.0) -> None:
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            # An adopted descendant is still exiting after SIGKILL.
            time.sleep(0.01)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class Bench:
    """One invocation: a workload, a seed, and a time budget."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._serial = 0
        #: Every workload run made, timed or not; each counts as attempted.
        self.runs: list[Run] = []
        self.knobs = self._query_program()

    def _fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.dir / f"{self._serial:03d}-{label}"
        path.mkdir()
        return path

    def _spawn(self, argv: list[str], run_dir: Path, cpu: int | None = None) -> Run:
        remaining = TIME_LIMIT_S + 20.0 - (time.perf_counter() - self.started)
        return spawn(argv, run_dir, max(5.0, remaining), cpu)

    def _query_program(self) -> dict:
        """Byte-compile this checkout's ``repro`` (the build step), then
        read its preset knobs and library versions."""
        flags = self.workload.flags
        script = (
            "import compileall, json, platform, numpy, scipy, repro\n"
            f"compileall.compile_dir({str(SRC)!r}, quiet=1)\n"
            "from repro.experiments.config import SCALE_PRESETS\n"
            f"p = SCALE_PRESETS[{flags[flags.index('--scale') + 1]!r}]\n"
            "print(json.dumps({'replications': p.replications,"
            " 'walks_2009': p.walks_2009, 'walks_2010': p.walks_2010,"
            " 'repro_file': repro.__file__, 'python': platform.python_version(),"
            " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))\n"
        )
        run_dir = self._fresh_dir("query")
        run = self._spawn([sys.executable, "-c", script], run_dir)
        text = (run_dir / "stdout.txt").read_text().strip()
        if run.exit_code != 0 or not text:
            raise SystemExit(f"cannot import repro from {SRC}:\n{(run_dir / 'stderr.txt').read_text()}")
        knobs = json.loads(text.splitlines()[-1])
        if not Path(knobs["repro_file"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"repro resolved to {knobs['repro_file']}, not {SRC}")
        return knobs

    def cli_args(self, workload: Workload | None = None) -> list[str]:
        workload = workload or self.workload
        return ["run", workload.experiment, *workload.flags, "--seed", str(self.seed)]

    def show_plan_walls(self, count: int) -> list[float]:
        """Wall of ``count`` fresh ``repro experiment ... --show-plan`` runs."""
        argv = [sys.executable, "-m", "repro", "experiment", *self.cli_args()[1:], "--show-plan"]
        walls = []
        for _ in range(count):
            run_dir = self._fresh_dir("plan")
            run = self._spawn(argv, run_dir)
            if run.exit_code != 0:
                raise SystemExit(f"--show-plan failed:\n{(run_dir / 'stderr.txt').read_text()}")
            walls.append(run.wall_s)
            shutil.rmtree(run_dir)
        return walls

    def run_once(self, workload: Workload | None = None, traced: bool = False, cpu: int | None = None):
        """One run of a workload, pinned to ``cpu`` if given; returns
        ``(Run, trace data or None)``."""
        workload = workload or self.workload
        run_dir = self._fresh_dir("traced" if traced else "run")
        out_dir, metrics, spans = run_dir / "out", run_dir / "metrics.json", run_dir / "spans.json"
        args = [*self.cli_args(workload), "--out", str(out_dir)]
        if traced:
            if workload.parallel:
                args += ["--metrics", str(metrics)]
            argv = [sys.executable, str(Path(tracing.__file__).resolve()), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        run = self._spawn(argv, run_dir, cpu)
        trace = None
        if run.exit_code == 0:
            run.digest = checks.digest(out_dir)
            run.outputs = checks.load_outputs(out_dir)
            run.broken = checks.CLAIMS[workload.experiment](run.outputs)
            if traced:
                trace = json.loads(spans.read_text())
                trace["metrics"] = json.loads(metrics.read_text()) if metrics.exists() else None
        else:
            tail = (run_dir / "stderr.txt").read_text()[-2000:]
            run.broken.append(f"exit code {run.exit_code}:\n{tail}")
        shutil.rmtree(run_dir)
        self.runs.append(run)
        return run, trace

    def repeat(self) -> list[Run]:
        """Timed runs until ``--seconds`` is spent, at least ``MIN_REPS``.

        Every CPU is probed before and after each run. A serial workload
        runs pinned to the CPU that probed fastest; each run records its
        :func:`host_speed`.
        """
        runs: list[Run] = []
        start = time.perf_counter()
        before = probe_cpus()
        while True:
            cpu = None if self.workload.parallel else min(before, key=before.get)
            run = self.run_once(cpu=cpu)[0]
            after = probe_cpus()
            run.host_speed = host_speed(before, after, cpu)
            runs.append(run)
            before = after
            typical = statistics.median(r.wall_s for r in runs)
            now = time.perf_counter()
            if len(runs) >= MIN_REPS and now - start + typical > self.seconds:
                return runs
            if now - self.started + typical > TIME_LIMIT_S:
                return runs

    def _reference_file(self) -> Path:
        key = hashlib.sha256(self.workload.output_key.encode()).hexdigest()[:12]
        return REFERENCES / f"{key}-{source_fingerprint()}-s{self.seed}.txt"

    def reference_digest(self, run_if_missing: bool) -> str | None:
        """For a parallel workload, the serial digest at this seed: stored
        by an earlier serial run from the same sources, else (when asked)
        one extra untimed serial run now."""
        if not self.workload.parallel:
            return None
        stored = self._reference_file()
        if run_if_missing and not stored.exists():
            run, _ = self.run_once(self.workload.serial())
            if run.ok:
                REFERENCES.mkdir(parents=True, exist_ok=True)
                stored.write_text(run.digest)
        return stored.read_text() if stored.exists() else None


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def _probe_loop() -> float:
    """Seconds for a fixed pure-Python loop; the median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(PROBE_OPS):
            table[i & 1023] = table.get(i & 1023, 0) + i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_cpus() -> dict[int | None, float]:
    """:func:`_probe_loop` on each CPU this process may use, by CPU
    number (``{None: seconds}`` where affinity is not available)."""
    if not hasattr(os, "sched_getaffinity"):
        return {None: _probe_loop()}
    allowed = os.sched_getaffinity(0)
    times = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _probe_loop()
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def host_speed(before: dict, after: dict, cpu: int | None) -> float:
    """``PROBE_REF_S`` over the mean probe time around a run: on ``cpu``
    for a pinned run, else on every CPU. 1.0 on a core as fast as the
    reference, 0.67 on one that runs the probe 1.5 times slower."""
    cpus = list(before) if cpu is None else [cpu]
    return PROBE_REF_S / statistics.mean([*(before[c] for c in cpus), *(after[c] for c in cpus)])


def source_fingerprint() -> str:
    """Hash of every ``src/**/*.py``: names a build of the program."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def check_digests(runs: list[Run], reference: str | None = None) -> None:
    """Mark runs whose output digest disagrees with the reference, or
    (without one) with the most common digest of their set. A tie
    leaves no digest to trust, so every run of the set fails."""
    expected = reference
    if reference is None:
        ranked = Counter(r.digest for r in runs if r.digest is not None).most_common(2)
        if ranked and (len(ranked) == 1 or ranked[0][1] > ranked[1][1]):
            expected = ranked[0][0]
    for run in runs:
        if run.digest is not None and run.digest != expected:
            against = "the serial run at this seed" if reference else "the rest of its set"
            run.broken.append(f"output digest {run.digest[:12]} differs from {against}")


def drift_note(key: str, seed: int, digest: str | None) -> str:
    """The digest against the one pinned for this seed; never a failure
    (a deliberate trajectory change moves it)."""
    pinned = json.loads(PINNED.read_text()).get(key, {}).get(str(seed))
    if digest is None:
        return "digest: none (no successful run)"
    if pinned is None:
        return f"digest: {digest} (none pinned for this seed)"
    state = "matches pinned" if pinned == digest else f"DRIFT from pinned {pinned}"
    return f"digest: {digest} ({state})"


def report(bench: Bench, metrics: dict[str, tuple[float, str, int]]) -> dict:
    """Print the human table and return the result object."""
    failed = sum(not r.ok for r in bench.runs)
    good = next((r for r in bench.runs if r.ok), None)
    print(drift_note(bench.workload.output_key, bench.seed, good.digest if good else None))
    print("  run walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in bench.runs))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit:6s} (n={count})")
    print(f"  {'failures':34s} {failed:>14d} of {len(bench.runs)} runs attempted")
    return {
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def measure(bench: Bench) -> dict:
    """``--trace 0``: the end-to-end metrics, medians over timed runs."""
    setup = bench.show_plan_walls(SETUP_REPS)
    reference = bench.reference_digest(run_if_missing=False)
    runs = bench.repeat()
    check_digests(runs, reference)
    good = [r for r in runs if r.ok]
    if not good:
        raise SystemExit("no timed run succeeded; nothing to report")
    n = len(good)
    wall = statistics.median(r.wall_s * r.host_speed for r in good)
    work = checks.draws(bench.workload.experiment, good[0].outputs, bench.knobs)
    values = {
        "wall_ref_s": (wall, n),
        "setup_s": (statistics.median(setup), len(setup)),
        "cpu_ref_s": (statistics.median(r.cpu_s * r.host_speed for r in good), n),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good), n),
        "draws_per_ref_s": (work / wall, n),
    }
    print(
        f"  raw medians: wall {statistics.median(r.wall_s for r in good):.4f} s, "
        f"cpu {statistics.median(r.cpu_s for r in good):.4f} s; host speeds: "
        + " ".join(f"{r.host_speed:.3f}" for r in runs)
    )
    return report(bench, {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END})


def measure_layers(bench: Bench) -> dict:
    """``--trace 1``: one untraced run, then one traced run; the layer split."""
    reference = bench.reference_digest(run_if_missing=True)
    plain, _ = bench.run_once()
    traced, trace = bench.run_once(traced=True)
    check_digests([plain, traced], reference)
    if trace is None or not traced.ok or not plain.ok:
        raise SystemExit("the traced or the untraced run failed; nothing to report")
    values = layer_metrics(trace, traced.wall_s, plain.wall_s)
    if trace["missing"]:
        print("not traced (absent from this program): " + ", ".join(trace["missing"]))
    return report(bench, {name: (values[name], _unit(name), 1) for name in per_layer_names()})


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer values from one traced run's spans and metrics file."""
    spans = trace["spans"]
    times = tracing.layer_times(spans)
    counters = trace["counters"]
    values: dict[str, float] = {}
    for name, (source, kind) in LAYER_SPANS.items():
        self_s, calls = times.get(source, (0.0, 0))
        values[name] = {"self_s": self_s, "calls": float(calls), "count": float(counters.get(source, 0))}[kind]
    for design in DESIGNS:
        seconds = times.get(f"sampling.{design}.sample", (0.0, 0))[0]
        draws = counters.get(f"sampling.{design}.draws", 0)
        values[f"sampling.{design}.sample_s"] = seconds
        values[f"sampling.{design}.draws"] = float(draws)
        values[f"sampling.{design}.draws_per_s"] = draws / seconds if seconds > 0 else 0.0
    values.update(runtime_metrics(trace.get("metrics")))
    unattributed = max(traced_wall - tracing.covered_seconds(spans), 0.0)
    values["trace.unattributed_s"] = unattributed
    values["trace.unattributed_ratio"] = unattributed / traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def runtime_metrics(summary: dict | None) -> dict[str, float]:
    """``runtime.*`` from the program's ``--metrics`` file (0 if absent)."""
    values = dict.fromkeys(RUNTIME_METRICS, 0.0)
    if not summary:
        return values
    phases = summary.get("phases", {})

    def seconds(cat: str, *names: str) -> float:
        return sum(phases.get(cat, {}).get(name, {}).get("seconds", 0.0) for name in names)

    workers = list(summary.get("workers", {}).values())
    counters = summary.get("counters", {})
    gauges = summary.get("gauges", {})
    values.update({
        "runtime.spawn_s": seconds("pool", "spawn"),
        "runtime.dispatch_s": seconds("driver", "dispatch"),
        "runtime.driver_wait_s": seconds("driver", "phase.sample", "phase.observe", "rung"),
        "runtime.resource_s": seconds("plan", "resource"),
        "runtime.worker_busy_s": sum(w["busy_seconds"] for w in workers),
        "runtime.worker_utilization": (
            statistics.mean(w["utilization"] for w in workers) if workers else 0.0
        ),
        "runtime.shm_published_mb": counters.get("shm.published_bytes", 0) / MIB,
        "runtime.worker_peak_rss_mb": gauges.get("worker_peak_rss_bytes", 0) / MIB,
        "runtime.failovers": float(counters.get("failover.recoveries", 0)),
    })
    return values


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed, seconds)
    threads = {k: v for k, v in sorted({**os.environ, **BLAS_THREADS}.items()) if k.endswith("_NUM_THREADS")}
    print(
        f"workload {workload.name}: repro {' '.join(bench.cli_args())} | "
        f"cpu_count={os.cpu_count()} python={bench.knobs['python']} "
        f"numpy={bench.knobs['numpy']} scipy={bench.knobs['scipy']} "
        f"blas_threads={json.dumps(threads)}",
        flush=True,
    )
    try:
        return measure_layers(bench) if trace else measure(bench)
    finally:
        for run in bench.runs:
            for problem in run.broken:
                print(f"check failed: {problem}", file=sys.stderr)
        shutil.rmtree(bench.dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    _become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
