"""Command-line interface.

Regenerate any table or figure of the paper::

    repro list
    repro run fig3a
    repro run table2 --scale medium --out results/
    repro run fig7 --seed 7

or equivalently ``python -m repro ...``. Every experiment compiles to a
declarative :class:`~repro.experiments.plan.SweepPlan`; ``repro
experiment`` exposes that explicitly — inspect the compiled cell grid,
then run it on the parallel runtime::

    repro experiment fig6 --show-plan
    repro experiment fig6 --workers 8 --checkpoint ckpt/
    repro experiment fig6 --workers 8 --checkpoint ckpt/ --resume

``--workers`` routes every replicated NRMSE sweep — fresh-draw and
pre-drawn crawl cells alike — through the :mod:`repro.runtime` process
executor (bit-identical output, any worker count). A plan runs its
cells one at a time, in plan order, and a parallel plan shards each
cell's replicates over one persistent worker pool. ``--checkpoint``
writes each finished sweep cell's result to one file under a
plan-keyed directory, serially or with ``--workers`` alike, and
``--resume`` replays those cells without rebuilding their substrates,
recomputing the cell that was in flight and the ones after it. A
checkpoint written by either executor resumes on the other.
``repro run`` accepts the same flags (the two commands share the plan
path; ``experiment`` adds ``--show-plan``, which renders the plan's
DAG: resources, cells, and their ``<-`` dependency edges).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__
from repro.exceptions import ReproError
from repro.experiments import (
    SCALE_PRESETS,
    active_preset,
    experiment_ids,
    run_experiment,
)

__all__ = ["main", "build_parser"]

_SCALE_HELP = (
    f"size preset: {', '.join(SCALE_PRESETS)} (default: $REPRO_SCALE or 'small')"
)


def _scale_name(name: str) -> str:
    """``--scale`` parser: a preset name, else the "unknown scale" error."""
    try:
        return active_preset(name).name
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Coarse-Grained Topology Estimation via Graph "
            "Sampling' (Kurant et al.): regenerate any table or figure."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    report = commands.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument(
        "--out", type=Path, default=Path("results"), help="output directory"
    )
    report.add_argument(
        "--scale", type=_scale_name, default=None,
        help=_SCALE_HELP,
    )
    report.add_argument("--seed", type=int, default=0, help="master seed")
    _add_runtime_arguments(report)

    run = commands.add_parser("run", help="run one experiment")
    _add_experiment_arguments(run)

    experiment = commands.add_parser(
        "experiment",
        help="compile one experiment to its SweepPlan and run it",
        description=(
            "Compile an experiment to its declarative SweepPlan (the "
            "grid of sweep/compute cells behind the figure or table) "
            "and execute it on the parallel runtime. With --workers N "
            "every sweep cell shards across N worker processes "
            "(bit-identical to serial); with --checkpoint DIR each "
            "finished sweep cell persists its result under a "
            "plan-keyed directory, and --resume restarts a killed run "
            "at the first unfinished cell."
        ),
    )
    _add_experiment_arguments(experiment)
    experiment.add_argument(
        "--show-plan",
        action="store_true",
        help="print the compiled cell grid instead of running it",
    )
    return parser


def _add_experiment_arguments(command: argparse.ArgumentParser) -> None:
    """The shared single-experiment flags (``run`` and ``experiment``)."""
    command.add_argument("experiment", help="experiment id (see 'repro list')")
    command.add_argument(
        "--scale", type=_scale_name, default=None, help=_SCALE_HELP
    )
    command.add_argument(
        "--seed", type=int, default=0, help="master random seed (default 0)"
    )
    command.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to save CSV/JSON/text outputs",
    )
    _add_runtime_arguments(command)


def _add_runtime_arguments(command: argparse.ArgumentParser) -> None:
    """The shared sweep-executor flags (see :mod:`repro.runtime`)."""
    command.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run replicated sweeps on N worker processes (bit-identical "
            "to serial; default: in-process serial execution)"
        ),
    )
    command.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "checkpoint root directory; each finished sweep cell writes "
            "its result to one checksummed file under a plan-keyed "
            "subdirectory (serial or parallel; does not select "
            "--workers). Plans without sweep cells (fig5, fig7, table1, "
            "table2) checkpoint nothing and warn"
        ),
    )
    command.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay the finished cells of a matching checkpoint instead "
            "of restarting it (requires --checkpoint)"
        ),
    )
    command.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help=(
            "shard failover budget: attempts tolerated per shard beyond "
            "the first before the run fails with a structured "
            "WorkerFailure (default 2; recovery is byte-identical to an "
            "undisturbed run)"
        ),
    )
    command.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "treat a worker task that sends no heartbeat for SECONDS as "
            "hung and fail it over like a dead worker (default: no "
            "timeout — only worker death triggers failover)"
        ),
    )
    command.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "record runtime telemetry and write a Chrome/Perfetto "
            "trace.json timeline (open at ui.perfetto.dev); never "
            "changes outputs"
        ),
    )
    command.add_argument(
        "--metrics",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "record runtime telemetry and write a flat metrics.json "
            "summary (per-phase totals, worker utilization, shm bytes, "
            "failover counts)"
        ),
    )
    command.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "emit repro.* runtime logs to stderr at DEBUG level "
            "(equivalent to REPRO_LOG=DEBUG)"
        ),
    )


def _runtime_scope(args):
    """The runtime configuration implied by the parsed arguments.

    Returns one context manager stacking the executor options and — when
    ``--trace``/``--metrics`` asked for it — a telemetry recording scope.
    Telemetry is observability only: it never changes what the run
    computes, so the scope composes freely with any executor choice.
    """
    from contextlib import ExitStack

    from repro.runtime import runtime_options

    if args.workers is not None and args.workers < 1:
        # Same contract as the REPRO_WORKERS environment knob: reject
        # non-positive counts here with a named error instead of letting
        # them fail confusingly inside the process executor.
        from repro.exceptions import EstimationError

        raise EstimationError(f"--workers must be >= 1, got {args.workers}")
    wants_executor = args.workers is not None
    persists = args.checkpoint is not None or args.resume
    tuning = args.max_retries is not None or args.task_timeout is not None
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    stack = ExitStack()
    if trace is not None or metrics is not None:
        from repro.runtime.telemetry import telemetry_scope

        stack.enter_context(telemetry_scope(trace=trace, metrics=metrics))
    if wants_executor or persists or tuning:
        stack.enter_context(
            runtime_options(
                # Only --workers selects the process executor: the
                # checkpoint flags work on either executor, and
                # --max-retries/--task-timeout only tune a parallel run
                # selected elsewhere (e.g. REPRO_EXECUTOR).
                executor="process" if wants_executor else None,
                workers=args.workers,
                checkpoint=args.checkpoint,
                # absent flag = unset, so ambient/env resume still apply
                resume=True if args.resume else None,
                max_retries=args.max_retries,
                task_timeout=args.task_timeout,
            )
        )
    return stack


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.log import configure_logging

    # No-op unless --verbose or REPRO_LOG asked for output: library use
    # of repro never gains a handler behind the caller's back.
    configure_logging(verbose=getattr(args, "verbose", False))
    if getattr(args, "resume", False) and getattr(args, "checkpoint", None) is None:
        # Without a checkpoint root there is nothing to resume from and
        # nothing would be written for the next attempt either.
        parser.error("--resume requires --checkpoint DIR")
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "report":
        from repro.experiments.report import generate_report

        try:
            preset = active_preset(args.scale)
            with _runtime_scope(args):
                path = generate_report(args.out, preset=preset, rng=args.seed)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(f"wrote {path}")
        return 0
    # command == "run" | "experiment"
    try:
        preset = active_preset(args.scale)
        if getattr(args, "show_plan", False):
            from repro.experiments import compile_experiment

            plan = compile_experiment(args.experiment, preset=preset, rng=args.seed)
            print(plan.describe())
            return 0
        with _runtime_scope(args):
            results = run_experiment(
                args.experiment, preset=preset, rng=args.seed
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for result in results.values():
        print(result.render())
        print()
        if args.out is not None:
            for path in result.save(args.out):
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
