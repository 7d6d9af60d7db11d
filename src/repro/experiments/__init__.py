"""Experiment drivers — one per table/figure of the paper.

Registry
--------
Every experiment *compiles* to a declarative
:class:`~repro.experiments.plan.SweepPlan` (see
:mod:`repro.experiments.plan`) that the parallel runtime executes
(:func:`repro.runtime.plan.run_plan`). ``PLANS`` maps every experiment
id to its compiler; ``EXPERIMENTS`` keeps the zero-config callable view
returning ``{id: ExperimentResult}``. :func:`run_experiment` dispatches
by id (used by the CLI and the benches) — compile, then run.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.exceptions import ExperimentError
from repro.experiments.ablations import ABLATIONS, compile_ablations, run_ablations
from repro.experiments.base import ExperimentResult
from repro.experiments.config import SCALE_PRESETS, ScalePreset, active_preset
from repro.experiments.fig3 import FIG3_PANELS, compile_fig3, run_fig3
from repro.experiments.fig4 import compile_fig4, run_fig4
from repro.experiments.fig5 import compile_fig5, run_fig5
from repro.experiments.fig6 import compile_fig6, run_fig6
from repro.experiments.fig7 import compile_fig7, run_fig7
from repro.experiments.plan import SweepPlan
from repro.experiments.table1 import compile_table1, run_table1
from repro.experiments.table2 import compile_table2, run_table2

__all__ = [
    "ExperimentResult",
    "ScalePreset",
    "SCALE_PRESETS",
    "SweepPlan",
    "active_preset",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_ablations",
    "ABLATIONS",
    "EXPERIMENTS",
    "PLANS",
    "compile_experiment",
    "experiment_ids",
    "run_experiment",
]


def _fig3_panel_compiler(panel: str):
    def compile(preset: ScalePreset | None = None, rng: int = 0) -> SweepPlan:
        return compile_fig3(panels=(panel,), preset=preset, rng=rng)

    return compile


#: Experiment id -> plan compiler ``(preset, rng) -> SweepPlan``.
PLANS: dict[str, Callable[..., SweepPlan]] = {
    **{f"fig3{p}": _fig3_panel_compiler(p) for p in FIG3_PANELS},
    "fig3": compile_fig3,
    "fig4": compile_fig4,
    "fig5": compile_fig5,
    "fig6": compile_fig6,
    "fig7": compile_fig7,
    "table1": compile_table1,
    "table2": compile_table2,
    "ablations": compile_ablations,
}


def compile_experiment(
    experiment_id: str,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> SweepPlan:
    """Compile one experiment's :class:`SweepPlan` by id."""
    if experiment_id not in PLANS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(PLANS)}"
        )
    return PLANS[experiment_id](preset=preset, rng=rng)


def _run(experiment_id: str):
    def run(preset: ScalePreset | None = None, rng: int = 0):
        return run_experiment(experiment_id, preset=preset, rng=rng)

    return run


#: Zero-config callable view: id -> ``{result_id: ExperimentResult}``.
EXPERIMENTS: dict[str, Callable[..., dict[str, "ExperimentResult"]]] = {
    experiment_id: _run(experiment_id) for experiment_id in PLANS
}


def experiment_ids() -> tuple[str, ...]:
    """All runnable experiment ids."""
    return tuple(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> dict[str, ExperimentResult]:
    """Run one experiment by id; returns ``{result_id: result}``."""
    from repro.runtime.plan import run_plan

    resolved = preset if preset is not None else active_preset()
    return run_plan(compile_experiment(experiment_id, preset=resolved, rng=rng))
