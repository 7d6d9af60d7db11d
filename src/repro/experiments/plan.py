"""Declarative sweep plans — the experiments layer's compile target.

Every paper artifact (Figs. 3-7, Tables 1/2, the ablations) is some
grid of *scenario cells*: a substrate (generator output, empirical
stand-in, or the synthetic Facebook world), a partition into
categories, a sampling design, a budget ladder of sample sizes, a
replication count, and whether the replicate samples are drawn fresh or
come pre-drawn as simulated crawls. Instead of each experiment module
hand-rolling a serial loop over its grid, it **compiles** a
:class:`SweepPlan`: a flat tuple of cells plus a ``finalize`` step that
assembles the per-cell outputs into the familiar
:class:`~repro.experiments.base.ExperimentResult` objects.

The plan is *data*; executing it is the job of the runtime
(:func:`repro.runtime.plan.run_plan`), which runs every
:class:`SweepCell` through the sweep executor (serial, or workers with
shared-memory substrate publication), checkpoints each finished one,
and runs :class:`ComputeCell` steps in-process. The split buys three things
at once:

* every replicated sweep in the reproduction — fresh-draw *and*
  pre-drawn — rides the same worker pool with the same bit-identical
  determinism contract;
* heavy shared inputs (``shared.build_world_and_crawls``) become named
  plan *resources*, built once per plan run and published to worker
  shards once via shared memory;
* a killed ``repro experiment <name> --resume`` restarts at the first
  unfinished cell, because each finished sweep cell writes its result
  under a plan-keyed directory
  (:class:`repro.runtime.checkpoint.PlanCheckpoint`).

Cells and the finalize step **declare** which resources they read
(``needs=`` / ``finalize_needs=``), so a compiled plan is a dependency
DAG, not just a list, which ``repro experiment --show-plan`` renders.
The declaration is descriptive, never a correctness input: the runtime
runs cells in plan order and :class:`PlanResources` builds every
resource, declared or not, on first access.

Cells are independent by construction (each derives its own RNG stream
via :func:`repro.rng.derive_rng` keying), so cell order never affects
any output — only the wall-clock schedule.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.base import ExperimentResult
    from repro.graph.adjacency import Graph
    from repro.graph.partition import CategoryPartition
    from repro.sampling.base import NodeSample, Sampler

__all__ = [
    "SweepJob",
    "SweepCell",
    "ComputeCell",
    "SweepPlan",
    "PlanResources",
]


@dataclass(frozen=True)
class SweepJob:
    """One fully-resolved replicated NRMSE sweep (a cell's payload).

    Exactly one of ``sampler`` (fresh-draw mode: ``replications``
    spawned streams draw through the batched engine) or ``samples``
    (pre-drawn mode: the replicate crawls already exist) must be set.
    The remaining knobs mirror
    :func:`repro.stats.replication.run_nrmse_sweep` /
    :func:`~repro.stats.replication.run_nrmse_sweep_from_samples`
    one-for-one, so a compiled cell runs the *identical* floating-point
    program the old inline loop ran.
    """

    graph: "Graph"
    partition: "CategoryPartition"
    sizes: tuple[int, ...]
    #: Fresh-draw mode: the sampler plus per-sweep replication knobs.
    sampler: "Sampler | None" = None
    replications: int | None = None
    rng: object = None
    #: Pre-drawn mode: the replicate samples (e.g. simulated crawls).
    samples: "Sequence[NodeSample] | None" = None
    weight_size_plugin: str = "star"
    mean_degree_model: str = "per-category"
    truth_mode: str = "exact"

    def __post_init__(self) -> None:
        fresh = self.sampler is not None
        predrawn = self.samples is not None
        if fresh == predrawn:
            raise ExperimentError(
                "a SweepJob needs exactly one of sampler= (fresh draws) "
                "or samples= (pre-drawn replicates)"
            )
        if fresh and self.replications is None:
            raise ExperimentError("fresh-draw SweepJobs need replications=")
        if fresh and self.rng is None:
            # ensure_rng(None) would seed from OS entropy — silently
            # breaking the plan layer's bit-identical/resumable contract.
            raise ExperimentError(
                "fresh-draw SweepJobs need rng= (a seed or Generator); "
                "plans must be deterministic to be resumable"
            )
        if fresh and self.truth_mode != "exact":
            # run_nrmse_sweep has no truth_mode knob; accepting one here
            # would silently score the cell against the wrong truth.
            raise ExperimentError(
                "truth_mode is a pre-drawn knob; fresh-draw sweeps always "
                "score against exact truth"
            )

    @property
    def mode(self) -> str:
        """``"fresh"`` or ``"predrawn"``."""
        return "fresh" if self.sampler is not None else "predrawn"


@dataclass(frozen=True)
class SweepCell:
    """One sweep of the plan's scenario grid.

    ``build`` resolves the declarative cell into a concrete
    :class:`SweepJob` — constructing generators, loading dataset
    stand-ins, or pulling pre-drawn crawls out of the plan's shared
    resources. Resolution is deferred so heavy inputs stay shared
    through :class:`PlanResources` instead of being captured per cell.
    ``needs`` names the plan resources ``build`` reads. A finished cell
    of a resumed plan replays from its checkpoint file without
    ``build`` ever running, so its resources are never built unless
    another cell reads them.
    """

    key: str
    build: "Callable[[PlanResources], SweepJob]"
    #: Free-form scenario coordinates (design, budget, partition, ...);
    #: purely descriptive — shown by ``repro experiment --show-plan``.
    axes: Mapping[str, object] = field(default_factory=dict)
    #: Names of the plan resources ``build`` reads (the cell's inbound
    #: DAG edges). Declarative only: undeclared access still works.
    needs: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """Short human label for telemetry spans and logs (the key)."""
        return self.key


@dataclass(frozen=True)
class ComputeCell:
    """A non-sweep step (dataset summaries, map estimates, ACF tables).

    Runs in the parent process — these steps are cheap relative to the
    replicated sweeps and keep the whole experiment inside one plan, so
    ``repro experiment <name>`` covers tables and maps too. ``needs``
    declares the resources ``compute`` reads, exactly as for
    :class:`SweepCell`.
    """

    key: str
    compute: "Callable[[PlanResources], object]"
    axes: Mapping[str, object] = field(default_factory=dict)
    needs: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        """Short human label for telemetry spans and logs (the key)."""
        return self.key


@dataclass(frozen=True)
class SweepPlan:
    """A compiled experiment: resources, cells, and a finalize step.

    Attributes
    ----------
    name:
        The experiment id the plan was compiled from (``"fig6"``, ...).
    resources:
        Named factories for heavy shared inputs. Each factory runs at
        most once per plan execution (see :class:`PlanResources`); the
        runtime publishes any arrays they produce to worker shards once
        via shared memory.
    cells:
        The scenario grid, flattened. :class:`SweepCell` entries run
        through the parallel sweep executor; :class:`ComputeCell`
        entries run in-process.
    finalize:
        ``(outputs, resources) -> {id: ExperimentResult}`` where
        ``outputs`` maps every cell key to its output
        (:class:`~repro.stats.replication.SweepResult` for sweep cells,
        the ``compute`` return value otherwise). ``None`` (the default)
        passes the cell outputs through unchanged — for plans whose
        compute cells already produce finished results keyed by id.
    context:
        Output-determining compile inputs beyond the cell grid — at
        minimum the scale preset name and the master seed. Folded into
        the plan checkpoint manifest so runs of the same experiment at
        different scales/seeds never share (or clear) each other's
        checkpoint directories.
    finalize_needs:
        Names of the plan resources ``finalize`` reads (the finalize
        step's DAG edges, shown by ``describe``).
    """

    name: str
    cells: "tuple[SweepCell | ComputeCell, ...]"
    finalize: "Callable[[dict[str, object], PlanResources], dict[str, ExperimentResult]] | None" = None
    resources: Mapping[str, Callable[[], object]] = field(default_factory=dict)
    context: Mapping[str, object] = field(default_factory=dict)
    finalize_needs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        keys = [cell.key for cell in self.cells]
        if len(set(keys)) != len(keys):
            raise ExperimentError(
                f"plan {self.name!r} has duplicate cell keys: {sorted(keys)}"
            )
        known = set(self.resources)
        for cell in self.cells:
            unknown = set(cell.needs) - known
            if unknown:
                raise ExperimentError(
                    f"plan {self.name!r} cell {cell.key!r} needs undeclared "
                    f"resources: {sorted(unknown)}"
                )
        unknown = set(self.finalize_needs) - known
        if unknown:
            raise ExperimentError(
                f"plan {self.name!r} finalize needs undeclared resources: "
                f"{sorted(unknown)}"
            )

    def finalize_outputs(
        self, outputs: dict[str, object], resources: "PlanResources"
    ) -> "dict[str, ExperimentResult]":
        """Apply ``finalize`` (identity pass-through when unset)."""
        if self.finalize is None:
            return dict(outputs)
        return self.finalize(outputs, resources)

    @property
    def sweep_cells(self) -> "tuple[SweepCell, ...]":
        """The cells that run through the sweep executor."""
        return tuple(c for c in self.cells if isinstance(c, SweepCell))

    def describe(self) -> str:
        """Render the plan's DAG (``repro experiment --show-plan``).

        Resources first, then every cell with its kind, axes, and
        inbound ``<-`` resource edges, then the finalize step's edges.
        Cells with no ``<-`` line are roots: ready the moment the plan
        starts.
        """
        header = f"plan {self.name}: {len(self.cells)} cells"
        if self.resources:
            header += (
                f", {len(self.resources)} resource"
                + ("s" if len(self.resources) != 1 else "")
            )
        lines = [header]
        for name in self.resources:
            lines.append(f"  [resource] {name}")
        for cell in self.cells:
            kind = "sweep" if isinstance(cell, SweepCell) else "compute"
            axes = ", ".join(f"{k}={v}" for k, v in cell.axes.items())
            line = f"  [{kind}] {cell.key}" + (f"  ({axes})" if axes else "")
            if cell.needs:
                line += "  <- " + ", ".join(cell.needs)
            lines.append(line)
        if self.finalize_needs:
            lines.append("  [finalize] <- " + ", ".join(self.finalize_needs))
        return "\n".join(lines)


class PlanResources:
    """Lazily-built, memoized view of a plan's named resources.

    Cell builders and ``finalize`` receive one instance per plan run;
    the first access to a name invokes its factory, later accesses
    return the same object — which is what lets the runtime's
    shared-memory pool publish each resource's arrays exactly once for
    the whole plan (publication deduplicates by object identity).

    Thread-safe with single-build semantics: threads sharing one
    instance race on first access, and every racer must receive the
    *same* object (two copies of a world would be published twice and
    could, in principle, even differ). The first accessor builds while later ones block on the
    name's event; a factory failure is re-raised to every waiter.
    """

    def __init__(self, factories: Mapping[str, Callable[[], object]]):
        self._factories = dict(factories)
        self._built: dict[str, object] = {}
        self._failed: dict[str, BaseException] = {}
        self._events: dict[str, threading.Event] = {}
        self._lock = threading.Lock()

    def __getitem__(self, name: str) -> object:
        with self._lock:
            if name in self._built:
                return self._built[name]
            if name in self._failed:
                raise self._failed[name]
            if name not in self._factories:
                raise ExperimentError(
                    f"unknown plan resource {name!r}; "
                    f"available: {', '.join(sorted(self._factories)) or 'none'}"
                )
            event = self._events.get(name)
            builder = event is None
            if builder:
                event = self._events[name] = threading.Event()
        if not builder:
            event.wait()
            with self._lock:
                if name in self._built:
                    return self._built[name]
                raise self._failed[name]
        try:
            value = self._factories[name]()
        except BaseException as error:
            with self._lock:
                self._failed[name] = error
            event.set()
            raise
        with self._lock:
            self._built[name] = value
        event.set()
        return value

    def __contains__(self, name: str) -> bool:
        return name in self._factories
