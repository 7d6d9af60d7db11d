"""Deterministic fault injection for the parallel runtime.

The fault-tolerance machinery (shard failover, hung-worker timeouts,
checkpoint quarantine, graceful degradation) is only trustworthy if its
recovery paths run on every CI push — not just when real hardware
happens to misbehave. This module is the harness that makes failure a
*scheduled input*: a :class:`FaultPlan` is a small budgeted list of
fault directives, armed either programmatically
(:func:`inject` — what the chaos tests use) or via the ``REPRO_FAULTS``
environment variable (what the CI chaos job uses), and consumed by the
pool/executor/checkpoint layers at well-defined points.

Fault specs (semicolon-separated in ``REPRO_FAULTS``, or one spec
string per :func:`inject` argument)::

    kill-worker[:replicate=J][,shard=S][,times=N]
                                                SIGKILL the worker
                                                serving shard S when
                                                the command for its
                                                J-th replicate
                                                (counting from 0)
                                                arrives (default J=0);
                                                ``phase=sample``
                                                instead strikes during
                                                the sampling phase —
                                                after the walk or
                                                traversal kernel ran,
                                                before its reply
    hang-worker[:shard=S][,times=N]             wedge shard S's task:
                                                no replies, no
                                                heartbeats (timeout
                                                escalation territory)
    corrupt-checkpoint[:file=cell][,times=N]    truncate the next
                                                checkpoint cell file
                                                (one finished sweep
                                                cell's result) after
                                                its atomic write
    fail-respawn[:times=N]                      make the next N worker
                                                spawns raise

A spec names only the parameters its kind reads; any other key is
rejected, so a typo cannot turn into a wildcard.

Every fault carries a budget (``times``, default 1) decremented at
*issue* time: a ``times=N`` directive strikes at most N task attempts
(replacement tasks opened by the failover path draw from the same
budget — which is how the retry-exhaustion tests drain a retry
budget), so injected runs always terminate — and, because the
executor's recovery is deterministic, produce output byte-identical to
an undisturbed run.

Scoping: plans armed with :func:`inject` are always active.
The environment plan is consulted only inside an :func:`env_scope`
(entered by the executor's drive loop and by parallel or checkpointed
plan runs) so that a CI job exporting ``REPRO_FAULTS`` chaos-tests the
*runtime machinery* without corrupting unrelated unit tests' direct
checkpoint round trips.
Budgets persist across scopes: one process consumes each environment
fault at most ``times`` times total.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.exceptions import EstimationError

__all__ = [
    "Fault",
    "FaultPlan",
    "active_plans",
    "env_scope",
    "inject",
    "parse_faults",
    "take",
    "take_worker_directives",
]

#: Recognized fault kinds and the parameters each reads besides
#: ``times`` (see module docstring for their grammar).
KINDS = {
    "kill-worker": ("replicate", "shard", "phase"),
    "hang-worker": ("shard",),
    "corrupt-checkpoint": ("file",),
    "fail-respawn": (),
}


class Fault:
    """One armed fault directive with a remaining-issue budget."""

    __slots__ = ("kind", "params", "times")

    def __init__(self, kind: str, params: dict, times: int = 1):
        if kind not in KINDS:
            raise EstimationError(
                f"unknown fault kind {kind!r}; use one of {', '.join(KINDS)}"
            )
        unknown = sorted(set(params) - set(KINDS[kind]))
        if unknown:
            allowed = ", ".join((*KINDS[kind], "times"))
            raise EstimationError(
                f"fault {kind!r} takes no parameter {unknown[0]!r}; "
                f"use {allowed}"
            )
        if kind == "kill-worker" and params.get("phase", "sample") != "sample":
            raise EstimationError(
                f"fault 'kill-worker' takes phase=sample only, "
                f"got phase={params['phase']}"
            )
        for key, least in (("replicate", 0), ("shard", 0), ("times", 1)):
            value = times if key == "times" else params.get(key, least)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise EstimationError(
                    f"fault {kind!r} needs an integer {key} >= {least}, "
                    f"got {key}={value}"
                )
        self.kind = kind
        self.params = dict(params)
        self.times = int(times)

    def matches(self, context: dict) -> bool:
        """Whether this fault applies under ``context``.

        A parameter present in both the spec and the context must agree;
        a parameter the spec omits is a wildcard (``kill-worker`` with
        no ``shard=`` hits whichever shard asks first).
        """
        return all(
            context[key] == value
            for key, value in self.params.items()
            if key in context
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"Fault({self.kind}:{params},times={self.times})"


def parse_faults(spec: str) -> list[Fault]:
    """Parse a ``REPRO_FAULTS``-style spec string into fault directives."""
    faults = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, params_text = part.partition(":")
        params: dict = {}
        for pair in params_text.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise EstimationError(
                    f"malformed fault parameter {pair!r} in {part!r} "
                    "(expected key=value)"
                )
            value = value.strip()
            params[key.strip()] = (
                int(value) if value.lstrip("-").isdigit() else value
            )
        times = params.pop("times", 1)
        faults.append(Fault(kind.strip().lower(), params, times))
    return faults


class FaultPlan:
    """A thread-safe budgeted collection of armed faults."""

    def __init__(self, faults):
        self._faults = list(faults)
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        return cls(parse_faults(spec))

    def take(self, kind: str, **context) -> "Fault | None":
        """Issue (and decrement) the first matching armed fault."""
        with self._lock:
            for fault in self._faults:
                if fault.kind == kind and fault.times > 0 and fault.matches(context):
                    fault.times -= 1
                    return fault
        return None

    def pending(self, kind: "str | None" = None) -> int:
        """Remaining issue budget (all kinds, or one kind)."""
        with self._lock:
            return sum(
                fault.times
                for fault in self._faults
                if kind is None or fault.kind == kind
            )


#: Programmatically injected plans — always active while their
#: ``inject`` context is open (innermost last; ``take`` scans in order).
_INJECTED: list[FaultPlan] = []

#: Cached environment plans, keyed by the spec string that built them.
#: A monkeypatched REPRO_FAULTS parses its own plan, while restoring a
#: previous spec returns the *same* plan object with its
#: partially-consumed budgets — one process consumes each environment
#: fault at most ``times`` times total, whatever the env churn.
_ENV_PLANS: dict[str, FaultPlan] = {}

#: Depth of open :func:`env_scope` contexts (any > 0 arms the env plan).
_ENV_DEPTH = 0
_ENV_LOCK = threading.Lock()


@contextmanager
def inject(*specs: str):
    """Arm fault directives for the enclosed block (chaos tests).

    Each argument is one spec string (``"kill-worker:rung=1"``); the
    assembled :class:`FaultPlan` is yielded so tests can assert on its
    remaining budgets afterwards.
    """
    plan = FaultPlan.parse(";".join(specs))
    _INJECTED.append(plan)
    try:
        yield plan
    finally:
        _INJECTED.remove(plan)


def _env_plan() -> "FaultPlan | None":
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    with _ENV_LOCK:
        plan = _ENV_PLANS.get(spec)
        if plan is None:
            try:
                plan = _ENV_PLANS[spec] = FaultPlan.parse(spec)
            except EstimationError as error:
                raise EstimationError(f"REPRO_FAULTS: {error}") from None
        return plan


@contextmanager
def env_scope():
    """Arm the ``REPRO_FAULTS`` plan for the enclosed block.

    Entered by the executor drive loop and by parallel or checkpointed
    plan runs; direct
    checkpoint/pool use outside any runtime run never sees environment
    faults, so a chaos CI job only exercises the recovery machinery.
    """
    global _ENV_DEPTH
    with _ENV_LOCK:
        _ENV_DEPTH += 1
    try:
        yield
    finally:
        with _ENV_LOCK:
            _ENV_DEPTH -= 1


def active_plans() -> list[FaultPlan]:
    """The plans ``take`` consults right now (injected, then armed env)."""
    plans = list(_INJECTED)
    with _ENV_LOCK:
        armed = _ENV_DEPTH > 0
    if armed:
        env = _env_plan()
        if env is not None:
            plans.append(env)
    return plans


def take(kind: str, **context) -> "Fault | None":
    """Issue the first matching fault across all active plans."""
    for plan in active_plans():
        fault = plan.take(kind, **context)
        if fault is not None:
            from repro.runtime import telemetry

            telemetry.counter("faults.injected", 1)
            telemetry.instant("fault.injected", cat="fault", kind=kind, **context)
            return fault
    return None


def take_worker_directives(shard_slot: int) -> tuple:
    """Consume kill/hang faults aimed at ``shard_slot``'s next task.

    Returns the directive tuple the executor embeds in the task cfg —
    ``("kill", j)`` makes :func:`~repro.runtime.executor.serve_shard`
    SIGKILL its own process when the command for the shard's ``j``-th
    replicate arrives (before computing any row, so the parent sees a
    clean mid-sweep death),
    ``("kill", "sample")`` (from a ``phase=sample`` spec) kills it in
    the sampling phase instead — after the walk/traversal kernel did
    its work, before the ``sampled`` reply, so the replicates are lost
    and the replacement must redraw them — and ``("hang",)`` wedges
    the task before its first reply or heartbeat.
    Each call draws against the fault's ``times`` budget, so a
    replacement task is struck again only while budget remains —
    recovery always converges once the plan runs dry.
    """
    directives = []
    fault = take("kill-worker", shard=shard_slot)
    if fault is not None:
        if fault.params.get("phase") == "sample":
            directives.append(("kill", "sample"))
        else:
            directives.append(("kill", int(fault.params.get("replicate", 0))))
    fault = take("hang-worker", shard=shard_slot)
    if fault is not None:
        directives.append(("hang",))
    return tuple(directives)
