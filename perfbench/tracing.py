"""Layer spans for the traced run, recorded from outside the program.

Run as a program, this file executes one ``repro`` CLI invocation with
timing wrappers installed around the public calls into each layer, and
writes the spans (and a few counters) to a JSON file when the run ends::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- \\
        run fig4 --scale medium --seed 0 --out OUT

Nothing inside ``src/`` records these spans: the wrappers replace the
module attributes (and every ``from x import y`` alias of them) after
``import repro.cli``, so the program runs unmodified underneath. Spans
live in memory until the run ends. Pool workers are fresh processes
without the wrappers; their side of a parallel run comes from the
program's own ``--metrics`` file.

The arithmetic that turns spans into per-layer figures
(:func:`layer_times`, :func:`covered_seconds`) is importable without
``repro``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: (module, attribute path, span name) for every wrapped public call.
#: A name that no longer exists is skipped and reported, so the traced
#: run survives refactors of the program; its layer then reads 0.
TIMED_CALLS = (
    ("repro.experiments", "compile_experiment", "experiments.compile"),
    ("repro.experiments.plan", "SweepPlan.finalize_outputs", "experiments.finalize"),
    ("repro.experiments.base", "ExperimentResult.save", "experiments.save"),
    ("repro.generators.planted", "planted_category_graph", "generators.planted"),
    ("repro.datasets.registry", "load_dataset", "datasets.load"),
    (
        "repro.community.leading_eigenvector",
        "leading_eigenvector_communities",
        "community.leading_eigenvector",
    ),
    ("repro.facebook.model", "build_facebook_world", "facebook.world"),
    ("repro.facebook.crawls", "simulate_crawl_datasets", "facebook.crawls"),
    ("repro.sampling.observation", "observe_both", "observation.observe_both"),
    (
        "repro.stats.prefix",
        "IncrementalPrefixLadder.estimates",
        "stats.ladder_estimates",
    ),
    ("repro.stats.replication", "_reduce_stacks", "stats.reduce"),
    ("repro.graph.category_graph", "true_category_graph", "graph.truth"),
    # The driver side of a parallel sweep: dispatch and waiting on workers.
    ("repro.runtime.executor", "ProcessSweepExecutor.run", "runtime.executor"),
    ("repro.runtime.executor", "ProcessSweepExecutor.run_from_samples", "runtime.executor"),
)

#: (module, attribute, counter name): calls counted without a span.
COUNTED_CALLS = (
    ("repro.community.leading_eigenvector", "_split_group", "community.bisections"),
)


class Tracer:
    """In-memory spans ``[name, thread, start_ns, end_ns, parent]``.

    ``parent`` is the index of the enclosing span on the same thread
    (``None`` at top level), so nesting is exact even when resource
    builds run in concurrent driver threads.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        start = time.perf_counter_ns()
        record = [name, threading.get_ident(), start, start, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[3] = time.perf_counter_ns()

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def timed(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return wrapper

    def counted(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.count(name)
            return function(*args, **kwargs)

        return wrapper

    def sampled(self, function):
        """``Sampler.sample_many``, keyed on the sampler's design."""

        @functools.wraps(function)
        def wrapper(sampler, n, replications, *args, **kwargs):
            design = sampler.design
            with self.span(f"sampling.{design}.sample"):
                batch = function(sampler, n, replications, *args, **kwargs)
            self.count(f"sampling.{design}.draws", int(n) * int(replications))
            return batch

        return wrapper


def _replace(module_name: str, path: str, make) -> bool:
    """Swap ``module.path`` for ``make(original)``; False if absent.

    A module-level function is also rebound under every alias other
    ``repro`` modules imported it as, so ``from x import f`` call sites
    reach the wrapper too. Methods are patched on their class.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapped = make(original)
    setattr(owner, attr, wrapped)
    if not parents:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapped)
    return True


def install(tracer: Tracer) -> list[str]:
    """Install every wrapper; returns the targets that were not found."""
    missing = []
    for module, path, name in TIMED_CALLS:
        if not _replace(module, path, functools.partial(tracer.timed, name)):
            missing.append(f"{module}.{path}")
    for module, path, name in COUNTED_CALLS:
        if not _replace(module, path, functools.partial(tracer.counted, name)):
            missing.append(f"{module}.{path}")
    if not _replace("repro.sampling.base", "Sampler.sample_many", tracer.sampled):
        missing.append("repro.sampling.base.Sampler.sample_many")
    return missing


# ----------------------------------------------------------------------
# Span arithmetic (no repro import)
# ----------------------------------------------------------------------
def union_length(intervals) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_times(spans) -> dict[str, tuple[float, int]]:
    """``{span name: (self seconds, calls)}``.

    Self time is a span's duration minus the part of it that its child
    spans cover, so a crawl build that nests S-WRW sampling reports the
    sampling under ``sampling.swrw.sample`` and only the rest under
    ``facebook.crawls``.
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, tuple[float, int]] = {}
    for index, (name, _, start, end, _) in enumerate(spans):
        self_ns = (end - start) - union_length(children[index])
        seconds, calls = out.get(name, (0.0, 0))
        out[name] = (seconds + self_ns / 1e9, calls + 1)
    return out


def covered_seconds(spans) -> float:
    """Wall time during which at least one span was open, any thread."""
    return union_length((start, end) for _, _, start, end, _ in spans) / 1e9


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <repro CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    with tracer.span("import"):
        import repro.cli
    with tracer.span("trace.install"):
        missing = install(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(
                {"spans": tracer.spans, "counters": tracer.counters, "missing": missing},
                handle,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
