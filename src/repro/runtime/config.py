"""Ambient runtime configuration for the parallel sweep executor.

:func:`repro.stats.replication.run_nrmse_sweep` accepts executor knobs
per call, but the experiment drivers (Figs. 3/4/6, Table 2) never pass
them — they would have to thread ``workers=`` through every driver
signature. Instead the CLI (``repro run --workers 4 --resume``) and
tests install an ambient :class:`RuntimeOptions` via
:func:`runtime_options`, and ``run_nrmse_sweep`` (executor, workers) and
:func:`repro.runtime.plan.run_plan` (checkpoint, resume) consult it
whenever a knob was not given explicitly. Resolution order per knob:

1. the explicit ``run_nrmse_sweep``/``run_plan`` argument;
2. the innermost active :func:`runtime_options` context;
3. the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` / ``REPRO_CHECKPOINT`` /
   ``REPRO_RESUME`` / ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``
   environment variables (how CI runs whole suites under the parallel
   path without touching any call site);
4. the serial in-process default (and, for the fault-tolerance knobs,
   a retry budget of :data:`DEFAULT_MAX_RETRIES` with no task timeout).

This module is deliberately dependency-free (stdlib only): the serial
sweep path imports it on every call and must stay light.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "RuntimeOptions",
    "active_options",
    "resolve_executor",
    "runtime_options",
]

_TRUTHY = ("1", "true", "yes", "on")

#: Default shard retry budget of the failover path: attempts tolerated
#: per shard beyond the first failure before a structured
#: :class:`~repro.runtime.pool.WorkerFailure` surfaces.
DEFAULT_MAX_RETRIES = 2


@dataclass(frozen=True)
class RuntimeOptions:
    """One layer of executor defaults (see module docstring)."""

    #: ``"serial"``, ``"process"``, or ``None`` (fall through).
    executor: str | None = None
    #: Worker processes for the process executor (``None``: cpu count).
    workers: int | None = None
    #: Checkpoint root directory of plan runs (one plan-keyed
    #: directory per plan, one result file per finished sweep cell).
    checkpoint: Path | None = None
    #: Replay a matching plan checkpoint instead of restarting it.
    #: Tri-state: ``None`` falls through to the next layer, so an inner
    #: scope can force a fresh run with an explicit ``False``.
    resume: bool | None = None
    #: Shard retry budget of the failover path (``None``: fall
    #: through, ultimately :data:`DEFAULT_MAX_RETRIES`).
    max_retries: int | None = None
    #: Heartbeat deadline (seconds) distinguishing a stuck worker task
    #: from a slow one; ``None`` falls through (default: no timeout —
    #: only worker *death* triggers failover).
    task_timeout: float | None = None


#: Innermost-wins stack of ambient option layers.
_STACK: list[RuntimeOptions] = []


@contextmanager
def runtime_options(
    executor: str | None = None,
    workers: int | None = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: bool | None = None,
    max_retries: int | None = None,
    task_timeout: float | None = None,
):
    """Install ambient executor defaults for the enclosed block."""
    layer = RuntimeOptions(
        executor=executor,
        workers=None if workers is None else int(workers),
        checkpoint=None if checkpoint is None else Path(checkpoint),
        resume=None if resume is None else bool(resume),
        max_retries=None if max_retries is None else int(max_retries),
        task_timeout=None if task_timeout is None else float(task_timeout),
    )
    _STACK.append(layer)
    try:
        yield layer
    finally:
        _STACK.remove(layer)


def _env_number(name: str, cast, minimum):
    """Parse one numeric env knob, naming the variable on a bad value."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = cast(raw)
    except ValueError:
        from repro.exceptions import EstimationError

        kind = "an integer" if cast is int else "a number"
        raise EstimationError(
            f"{name} must be {kind}, got {raw!r}"
        ) from None
    if value < minimum:
        from repro.exceptions import EstimationError

        raise EstimationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _env_options() -> RuntimeOptions:
    executor = os.environ.get("REPRO_EXECUTOR", "").strip() or None
    checkpoint_env = os.environ.get("REPRO_CHECKPOINT", "").strip()
    resume_env = os.environ.get("REPRO_RESUME", "").strip().lower()
    return RuntimeOptions(
        executor=executor,
        workers=_env_number("REPRO_WORKERS", int, 1),
        checkpoint=Path(checkpoint_env) if checkpoint_env else None,
        resume=(resume_env in _TRUTHY) if resume_env else None,
        max_retries=_env_number("REPRO_MAX_RETRIES", int, 0),
        task_timeout=_env_number("REPRO_TASK_TIMEOUT", float, 0.0),
    )


def active_options() -> RuntimeOptions:
    """The merged ambient options (context layers over environment)."""
    merged = _env_options()
    for layer in _STACK:
        merged = RuntimeOptions(
            executor=layer.executor if layer.executor is not None else merged.executor,
            workers=layer.workers if layer.workers is not None else merged.workers,
            checkpoint=(
                layer.checkpoint if layer.checkpoint is not None else merged.checkpoint
            ),
            resume=layer.resume if layer.resume is not None else merged.resume,
            max_retries=(
                layer.max_retries
                if layer.max_retries is not None
                else merged.max_retries
            ),
            task_timeout=(
                layer.task_timeout
                if layer.task_timeout is not None
                else merged.task_timeout
            ),
        )
    return merged


def resolve_executor(executor: "str | object | None", workers: int | None):
    """Resolve ``run_nrmse_sweep`` executor arguments to an executor.

    Returns ``None`` for the serial in-process path, or an object with
    the executor ``run(...)`` interface. Strings name the built-in
    executors; anything else is assumed to *be* an executor instance
    and is returned unchanged — in that case the instance already
    carries its worker configuration, so combining it with an explicit
    ``workers`` is rejected rather than silently ignored.
    """
    ambient = active_options()
    if executor is None:
        executor = ambient.executor
        if executor is None:
            # Nothing selected an executor explicitly, but a worker
            # count was: asking for workers *is* asking for the process
            # executor — running serial would silently drop it.
            executor = "process" if workers is not None else "serial"
    if not isinstance(executor, str):
        if workers is not None:
            from repro.exceptions import EstimationError

            raise EstimationError(
                "pass workers either to the executor instance or as a "
                "run_nrmse_sweep argument, not both"
            )
        return executor
    if executor == "serial":
        return None
    if executor != "process":
        from repro.exceptions import EstimationError

        raise EstimationError(
            f"unknown executor {executor!r}; use 'serial' or 'process'"
        )
    from repro.runtime.executor import ProcessSweepExecutor

    return ProcessSweepExecutor(
        workers=workers if workers is not None else ambient.workers
    )
