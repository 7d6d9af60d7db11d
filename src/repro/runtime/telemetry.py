"""Process-wide runtime telemetry: spans, counters, gauges, exporters.

The parallel stack (batched kernels -> shared-memory executor ->
SweepPlan -> plan loop -> fault-tolerant pool) is a black box at
run time without this layer: where does wall clock go — replicate compute,
ladder drain, shm publish, driver idle? This module answers that
with a disabled-by-default event plane:

* **spans** — named, categorised intervals (``t_start``/``dur`` in
  monotonic microseconds, ``pid``/``tid``, free-form attrs);
* **instants** — point events (failover, degradation, injected faults);
* **counters** — additive totals (bytes published, retries, hits);
* **gauges** — high-water marks (peak RSS, live shm bytes).

Recording is a list append under a short lock — "lock-free enough" for
the call rates here (tens of events per rung, not per node). Workers
record into a local :class:`TelemetryRecorder` and ship a drained
payload back over the existing pool reply channel (a ``"telemetry"``
command/reply pair, piggybacked like heartbeats); the parent merges
remote payloads into the ambient recorder. ``CLOCK_MONOTONIC`` is
system-wide on Linux, so parent and worker timestamps interleave on one
timeline without translation.

Two exporters:

* :meth:`TelemetryRecorder.write_trace` — Chrome/Perfetto trace-event
  JSON (open in https://ui.perfetto.dev or ``chrome://tracing``): one
  timeline row per pool worker and per driver thread, plan cells and
  the replicates and ladder rungs within them as spans, failover/hang/degradation as instant
  markers;
* :meth:`TelemetryRecorder.write_metrics` — a flat ``metrics.json``
  summary: per-phase totals, worker utilization %, shm bytes
  published/retired and reply-slot bytes, cache/replay hit counts,
  failover retries.

Hard contracts (determinism point 6 in :mod:`repro.runtime`):
telemetry is **output-neutral** — timestamps never touch the data
path, so sweep/plan outputs are byte-identical with telemetry on or
off at any worker count — and **near-zero overhead when disabled**:
every module-level helper fast-paths on ``_RECORDER is None`` and
``span()`` returns a shared no-op context manager.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "METRICS_SCHEMA",
    "TelemetryRecorder",
    "counter",
    "enabled",
    "gauge",
    "instant",
    "now_us",
    "recorder",
    "span",
    "span_in",
    "telemetry_scope",
    "validate_metrics",
    "validate_metrics_file",
    "validate_trace",
    "validate_trace_file",
    "worker_collector",
]

#: Schema tag stamped into (and required of) every metrics summary.
METRICS_SCHEMA = "repro-metrics-v1"

#: Counters always present in a metrics summary, so consumers (CI
#: schema checks, bench rows) can rely on the keys even for runs where
#: a subsystem never fired.
_STANDARD_COUNTERS = (
    "shm.published_bytes",
    "shm.reply_bytes",
    "shm.retired_bytes",
    "shm.published_blocks",
    "pool.workers_spawned",
    "failover.recoveries",
    "faults.injected",
    "checkpoint.saves",
    "checkpoint.quarantined",
    "plan.cells_replayed",
)


def _now_us() -> int:
    """Microseconds on the system-wide monotonic clock."""
    return time.monotonic_ns() // 1000


def now_us() -> int:
    """Public clock for call sites recording manual spans."""
    return _now_us()


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, if knowable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


class _NullSpan:
    """Shared no-op context manager returned when telemetry is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_recorder", "_name", "_cat", "_args", "_start")

    def __init__(self, recorder, name, cat, args):
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self):
        self._start = _now_us()
        return self

    def __exit__(self, *exc):
        self._recorder.add_span(
            self._name, self._cat, self._start, _now_us() - self._start,
            self._args,
        )
        return False


class TelemetryRecorder:
    """In-memory event sink for one process.

    The driver owns the ambient recorder (installed by
    :func:`telemetry_scope`); each pool worker task builds its own and
    ships :meth:`drain` output back for :meth:`merge_remote`. All
    methods are thread-safe; record-side cost is one short critical
    section appending a dict.
    """

    def __init__(self, process_label: str | None = None):
        self.pid = os.getpid()
        self.started_us = _now_us()
        self.finished_us: int | None = None
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._process_names: dict[int, str] = {
            self.pid: process_label or "driver"
        }
        self._thread_names: dict[tuple[int, int], str] = {}

    # -- recording -----------------------------------------------------
    def _remember_thread(self, pid: int, tid: int) -> None:
        # Caller holds self._lock. Lazily label rows with the Python
        # thread name so plan cell threads read as "repro-plan_2", not
        # a bare tid; name_thread() overrides.
        key = (pid, tid)
        if key not in self._thread_names:
            self._thread_names[key] = threading.current_thread().name

    def add_span(self, name, cat, start_us, dur_us, args=None) -> None:
        """Record a complete event from explicit timestamps."""
        pid, tid = os.getpid(), threading.get_native_id()
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": int(start_us), "dur": max(int(dur_us), 1),
            "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._remember_thread(pid, tid)
            self._events.append(event)

    def span(self, name: str, cat: str = "runtime", **args):
        """Context manager timing its body as one span."""
        return _Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "runtime", **args) -> None:
        """Record a point event (rendered as an arrow marker)."""
        pid, tid = os.getpid(), threading.get_native_id()
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "p",
            "ts": _now_us(), "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._remember_thread(pid, tid)
            self._events.append(event)

    def counter(self, name: str, value: float = 1) -> None:
        """Add ``value`` to an additive total."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water mark (max wins across updates/merges)."""
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def name_process(self, pid: int, name: str) -> None:
        with self._lock:
            self._process_names[pid] = name

    def name_thread(self, name: str) -> None:
        """Label the calling thread's timeline row."""
        key = (os.getpid(), threading.get_native_id())
        with self._lock:
            self._thread_names[key] = name

    # -- worker shipping -----------------------------------------------
    def drain(self) -> dict:
        """Snapshot-and-reset; the worker-to-parent wire payload."""
        rss = _peak_rss_bytes()
        with self._lock:
            if rss is not None:
                current = self._gauges.get("worker_peak_rss_bytes", 0)
                self._gauges["worker_peak_rss_bytes"] = max(current, rss)
            payload = {
                "events": self._events,
                "counters": self._counters,
                "gauges": self._gauges,
                "process_names": dict(self._process_names),
                "thread_names": dict(self._thread_names),
            }
            self._events = []
            self._counters = {}
            self._gauges = {}
        return payload

    def merge_remote(self, payload: dict | None) -> None:
        """Fold a worker's drained payload into this recorder."""
        if not payload:
            return
        with self._lock:
            self._events.extend(payload.get("events") or ())
            for name, value in (payload.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (payload.get("gauges") or {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            self._process_names.update(payload.get("process_names") or {})
            self._thread_names.update(payload.get("thread_names") or {})

    # -- export --------------------------------------------------------
    def finish(self) -> None:
        """Close the recording window and stamp the driver's peak RSS."""
        self.finished_us = _now_us()
        rss = _peak_rss_bytes()
        if rss is not None:
            self.gauge("driver_peak_rss_bytes", rss)

    def _snapshot(self):
        with self._lock:
            return (
                list(self._events),
                dict(self._counters),
                dict(self._gauges),
                dict(self._process_names),
                dict(self._thread_names),
            )

    def trace_events(self) -> list[dict]:
        """Chrome trace-event list: metadata rows + normalized events."""
        events, _, _, process_names, thread_names = self._snapshot()
        base = self.started_us
        for event in events:
            base = min(base, event["ts"])
        out: list[dict] = []
        seen_pids = {event["pid"] for event in events} | set(process_names)
        for pid in sorted(seen_pids):
            name = process_names.get(pid, f"pid {pid}")
            out.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
        for (pid, tid), name in sorted(thread_names.items()):
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        for event in events:
            shifted = dict(event)
            shifted["ts"] = event["ts"] - base
            out.append(shifted)
        return out

    def write_trace(self, path: str | os.PathLike) -> Path:
        """Write Chrome/Perfetto ``trace.json``; returns the path."""
        path = Path(path)
        document = {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.runtime.telemetry"},
        }
        path.write_text(json.dumps(document) + "\n")
        return path

    def metrics_summary(self) -> dict:
        """Flat roll-up of the recording window.

        ``phases`` aggregates span wall time by category/name;
        ``workers`` reports per-worker busy seconds and utilization
        (union of that worker's span intervals over the window — fair
        under the persistent pool even when spans nest); ``failover``
        lists every recovery/degradation instant so those events are
        never silently dropped, whatever path (fresh, from-samples,
        plan cell) recorded them.
        """
        events, counters, gauges, process_names, _ = self._snapshot()
        end_us = self.finished_us if self.finished_us is not None else _now_us()
        wall_us = max(end_us - self.started_us, 1)

        phases: dict[str, dict[str, dict]] = {}
        by_pid: dict[int, list[tuple[int, int]]] = {}
        failover_events: list[dict] = []
        for event in events:
            if event["ph"] == "X":
                bucket = phases.setdefault(event["cat"], {}).setdefault(
                    event["name"], {"count": 0, "seconds": 0.0}
                )
                bucket["count"] += 1
                bucket["seconds"] += event["dur"] / 1e6
                by_pid.setdefault(event["pid"], []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
            elif event["ph"] == "i" and event["cat"] == "failover":
                entry = {"event": event["name"]}
                entry.update(event.get("args") or {})
                failover_events.append(entry)
        for cat in phases:
            for bucket in phases[cat].values():
                bucket["seconds"] = round(bucket["seconds"], 6)

        worker_pids = {
            pid for pid, name in process_names.items()
            if name.startswith("worker")
        }
        workers: dict[str, dict] = {}
        for pid in sorted(worker_pids):
            busy_us = _union_length(by_pid.get(pid, []))
            workers[str(pid)] = {
                "busy_seconds": round(busy_us / 1e6, 6),
                "utilization": round(min(busy_us / wall_us, 1.0), 4),
            }

        for name in _STANDARD_COUNTERS:
            counters.setdefault(name, 0)
        return {
            "schema": METRICS_SCHEMA,
            "wall_seconds": round(wall_us / 1e6, 6),
            "phases": phases,
            "counters": counters,
            "gauges": gauges,
            "workers": workers,
            "failover": {
                "recoveries": int(counters.get("failover.recoveries", 0)),
                "events": failover_events,
            },
        }

    def write_metrics(self, path: str | os.PathLike) -> Path:
        """Write the ``metrics.json`` summary; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.metrics_summary(), indent=2) + "\n")
        return path


def _union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of [start, end) intervals."""
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


# ----------------------------------------------------------------------
# Ambient recorder: module-level guarded call sites
# ----------------------------------------------------------------------
_STACK: list[TelemetryRecorder] = []
_RECORDER: TelemetryRecorder | None = None

#: Fallback counter sink inside pool workers (no ambient recorder there
#: by design): the live task collector, installed by
#: :func:`worker_collector` so module-level :func:`counter` calls from
#: substrate layers ship with the task's payload. Never receives spans.
_WORKER_SINK: TelemetryRecorder | None = None


def enabled() -> bool:
    """Is an ambient recorder installed in this process?"""
    return _RECORDER is not None


def recorder() -> TelemetryRecorder | None:
    """The ambient recorder, or ``None`` when telemetry is off."""
    return _RECORDER


@contextmanager
def telemetry_scope(
    trace: str | os.PathLike | None = None,
    metrics: str | os.PathLike | None = None,
    process_label: str = "driver",
):
    """Install an ambient recorder; optionally export files on exit.

    ``with telemetry_scope(trace="trace.json") as rec: run_experiment(...)``
    records every instrumented call site under the scope (including
    pool workers, whose events ship back over the reply channel) and
    writes ``trace.json`` when the block ends. Scopes nest; the
    innermost wins.
    """
    global _RECORDER
    rec = TelemetryRecorder(process_label=process_label)
    rec.name_thread(threading.current_thread().name)
    _STACK.append(rec)
    _RECORDER = rec
    try:
        yield rec
    finally:
        if rec in _STACK:
            _STACK.remove(rec)
        _RECORDER = _STACK[-1] if _STACK else None
        rec.finish()
        if trace is not None:
            rec.write_trace(trace)
        if metrics is not None:
            rec.write_metrics(metrics)


def span(name: str, cat: str = "runtime", **args):
    """Time a block under the ambient recorder; no-op when disabled."""
    rec = _RECORDER
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, cat, args)


def span_in(rec: TelemetryRecorder | None, name, cat="runtime", **args):
    """Like :func:`span` against an explicit (possibly None) recorder.

    Worker-side call sites hold their collector as a local — ambient
    state does not survive the fork/spawn boundary coherently — and
    this keeps them null-safe without branching at every site.
    """
    if rec is None:
        return _NULL_SPAN
    return _Span(rec, name, cat, args)


def instant(name: str, cat: str = "runtime", **args) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.instant(name, cat=cat, **args)


def counter(name: str, value: float = 1) -> None:
    rec = _RECORDER if _RECORDER is not None else _WORKER_SINK
    if rec is not None:
        rec.counter(name, value)


def gauge(name: str, value: float) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.gauge(name, value)


def worker_collector(requested) -> tuple[TelemetryRecorder | None, bool]:
    """Resolve the recorder a shard task should record into.

    Returns ``(collector, ship)``. ``requested`` is the task cfg's
    ``"telemetry"`` flag. In a pool worker process the task gets a
    fresh local recorder whose payload must ship back (``ship=True``).
    Under the in-process degradation channel the "worker" shares the
    driver's pid, so spans land directly in the ambient recorder and
    nothing ships. A recorder inherited through ``fork`` (pid mismatch)
    is never recorded into.
    """
    global _WORKER_SINK
    if not requested:
        return None, False
    ambient = _RECORDER
    if ambient is not None and ambient.pid == os.getpid():
        return ambient, False
    collector = TelemetryRecorder(
        process_label=f"worker {os.getpid()}"
    )
    # Process-global *counter* sink: substrate layers (the derived-plane
    # store, the shared-memory pool) record counters through the
    # module-level helpers, which have no task collector in hand. Spans
    # stay strictly task-local; counters are additive, so even when two
    # concurrent tasks of one pool worker race for the sink, every
    # increment ships and the parent's merge preserves the totals.
    _WORKER_SINK = collector
    return collector, True


def reset_for_worker() -> None:
    """Drop fork-inherited recorders (parent pid != ours)."""
    global _RECORDER, _WORKER_SINK
    if _RECORDER is not None and _RECORDER.pid != os.getpid():
        _STACK.clear()
        _RECORDER = None
    if _WORKER_SINK is not None and _WORKER_SINK.pid != os.getpid():
        _WORKER_SINK = None


# ----------------------------------------------------------------------
# Schema validation (shared by tests and the CI smoke job)
# ----------------------------------------------------------------------
def _fail(message: str):
    from repro.exceptions import ReproError  # deferred: keep stdlib-only import

    raise ReproError(message)


def validate_trace(data) -> int:
    """Check Chrome trace-event shape; returns the span count.

    Raises :class:`~repro.exceptions.ReproError` naming the first
    offending event.
    """
    if not isinstance(data, dict):
        _fail("trace document must be a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        _fail("trace document must carry a traceEvents list")
    spans = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            _fail(f"traceEvents[{index}] is not an object")
        where = f"traceEvents[{index}] ({event.get('name')!r})"
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                _fail(f"{where} missing {key!r}")
        ph = event["ph"]
        if ph not in ("X", "i", "M"):
            _fail(f"{where} has unknown phase {ph!r}")
        if ph in ("X", "i"):
            if not isinstance(event.get("ts"), (int, float)):
                _fail(f"{where} needs a numeric ts")
            if "cat" not in event:
                _fail(f"{where} missing cat")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(f"{where} needs a non-negative dur")
            spans += 1
        if ph == "M" and "name" not in event.get("args", {}):
            _fail(f"{where} metadata needs args.name")
    if spans == 0:
        _fail("trace contains no complete spans")
    return spans


def validate_metrics(data) -> dict:
    """Check a metrics summary; returns it for chaining."""
    if not isinstance(data, dict):
        _fail("metrics document must be a JSON object")
    if data.get("schema") != METRICS_SCHEMA:
        _fail(
            f"metrics schema {data.get('schema')!r} != {METRICS_SCHEMA!r}"
        )
    wall = data.get("wall_seconds")
    if not isinstance(wall, (int, float)) or wall <= 0:
        _fail("wall_seconds must be a positive number")
    for key in ("phases", "counters", "gauges", "workers"):
        if not isinstance(data.get(key), dict):
            _fail(f"metrics must carry a {key!r} object")
    counters = data["counters"]
    for name in _STANDARD_COUNTERS:
        if name not in counters:
            _fail(f"metrics counters missing {name!r}")
    for pid, row in data["workers"].items():
        utilization = row.get("utilization")
        if not isinstance(utilization, (int, float)) or not (
            0 <= utilization <= 1
        ):
            _fail(
                f"worker {pid} utilization {utilization!r} outside [0, 1]"
            )
        if not isinstance(row.get("busy_seconds"), (int, float)):
            _fail(f"worker {pid} missing busy_seconds")
    failover = data.get("failover")
    if not isinstance(failover, dict) or not isinstance(
        failover.get("recoveries"), int
    ) or not isinstance(failover.get("events"), list):
        _fail(
            "metrics must carry failover.{recoveries,events}"
        )
    return data


def validate_trace_file(path: str | os.PathLike) -> int:
    return validate_trace(json.loads(Path(path).read_text()))


def validate_metrics_file(path: str | os.PathLike) -> dict:
    return validate_metrics(json.loads(Path(path).read_text()))
