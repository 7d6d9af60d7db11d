"""Fig. 3 — estimator NRMSE on the Section 6.2.1 synthetic model (UIS).

Eight panels, two rows:

* top row, category sizes ``|A|``: (a) density k = 5 vs 49;
  (b) community alignment alpha = 0 vs 1; (c) category size 500 vs
  50 000; (d) CDF of the NRMSE of all ten size estimates at |S| = 2000;
* bottom row, edge weights ``w(A, B)``: (e) k = 5 vs 49 on the
  high-weight edge; (f) alpha = 0 vs 1; (g) e_low (25th-percentile
  weight) vs e_high (75th); (h) CDF over all pairs at |S| = 2000.

Every panel compares induced-subgraph (Eq. 4/8) against star (Eq. 5/9)
estimators under UIS. Five underlying graph configurations serve all
eight panels; each compiles to one fresh-draw cell of the experiment's
:class:`~repro.experiments.plan.SweepPlan` and is swept once and
shared. The cells build their own (small) planted graphs and declare
no resource needs — they are DAG roots, all ready the moment the plan
starts.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.config import ScalePreset, active_preset
from repro.experiments.plan import PlanResources, SweepCell, SweepJob, SweepPlan
from repro.generators.planted import PlantedModelConfig, planted_category_graph
from repro.rng import derive_rng
from repro.runtime.plan import run_plan
from repro.sampling.independence import UniformIndependenceSampler
from repro.stats.percentiles import percentile_edge
from repro.stats.replication import SweepResult

__all__ = ["run_fig3", "compile_fig3", "FIG3_PANELS"]

FIG3_PANELS = ("a", "b", "c", "d", "e", "f", "g", "h")

#: Graph configurations (k, alpha) shared across panels.
_CONFIGS = {
    "k5": (5, 0.5),
    "k49": (49, 0.5),
    "a0": (20, 0.0),
    "a1": (20, 1.0),
    "base": (20, 0.5),
}


def compile_fig3(
    panels: tuple[str, ...] = FIG3_PANELS,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> SweepPlan:
    """Compile the requested Fig. 3 panels to a sweep plan.

    One fresh-draw cell per needed graph configuration (panels share
    configurations, so e.g. panels a+e compile to two cells, not four);
    ``finalize`` assembles the panel series/CDFs from the cell sweeps.
    """
    preset = preset or active_preset()
    unknown = set(panels) - set(FIG3_PANELS)
    if unknown:
        raise ValueError(f"unknown Fig. 3 panels: {sorted(unknown)}")
    needed = _configs_needed(panels)
    cells = tuple(
        _config_cell(key, preset, rng)
        for key in _CONFIGS
        if key in needed
    )

    def finalize(
        outputs: dict[str, object], resources: PlanResources
    ) -> dict[str, ExperimentResult]:
        results: dict[str, ExperimentResult] = {}
        sizes_note = {"scale": preset.name, "replications": preset.replications}
        for panel in panels:
            result = _PANEL_BUILDERS[panel](outputs, preset, sizes_note)
            results[result.experiment_id] = result
        return results

    return SweepPlan(
        name="fig3",
        cells=cells,
        finalize=finalize,
        context={"scale": preset.name, "seed": int(rng), "panels": panels},
    )


def run_fig3(
    panels: tuple[str, ...] = FIG3_PANELS,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> dict[str, ExperimentResult]:
    """Regenerate the requested Fig. 3 panels.

    Returns ``{panel: ExperimentResult}`` with NRMSE-vs-|S| series (or
    CDFs for panels d/h).
    """
    return run_plan(compile_fig3(panels=panels, preset=preset, rng=rng))


def _configs_needed(panels: tuple[str, ...]) -> set[str]:
    mapping = {
        "a": {"k5", "k49"},
        "e": {"k5", "k49"},
        "b": {"a0", "a1"},
        "f": {"a0", "a1"},
        "c": {"base"},
        "d": {"base"},
        "g": {"base"},
        "h": {"base"},
    }
    needed: set[str] = set()
    for panel in panels:
        needed |= mapping[panel]
    return needed


def _config_cell(key: str, preset: ScalePreset, rng: int) -> SweepCell:
    k, alpha = _CONFIGS[key]
    key_index = list(_CONFIGS).index(key)  # stable across processes

    def build(resources: PlanResources) -> SweepJob:
        config = PlantedModelConfig(k=k, alpha=alpha, scale=preset.planted_scale)
        graph, partition = planted_category_graph(
            config, rng=derive_rng(rng, 3, key_index)
        )
        sizes = _clip_sizes(preset.fig3_sample_sizes, graph.num_nodes, preset)
        return SweepJob(
            graph=graph,
            partition=partition,
            sizes=sizes,
            sampler=UniformIndependenceSampler(graph),
            replications=preset.replications,
            rng=derive_rng(rng, 4, key_index),
        )

    return SweepCell(
        key=key,
        build=build,
        axes={"design": "uis", "k": k, "alpha": alpha, "R": preset.replications},
    )


def _clip_sizes(
    sizes: tuple[int, ...], num_nodes: int, preset: ScalePreset
) -> tuple[int, ...]:
    """Keep the ladder meaningful on scaled-down graphs.

    UIS draws with replacement, so sizes beyond ~3 N add little; the CDF
    sample size must stay included.
    """
    cap = max(3 * num_nodes, 2 * preset.cdf_sample_size)
    kept = tuple(s for s in sizes if s <= cap)
    return tuple(sorted(set(kept) | {preset.cdf_sample_size}))


# ----------------------------------------------------------------------
# Panel builders
# ----------------------------------------------------------------------
def _largest_category(sweep: SweepResult) -> int:
    return int(np.argmax(sweep.truth.sizes))


def _category_near(sweep: SweepResult, target_rank: int) -> int:
    """Category index by ascending-size rank (paper's |C|=500 is rank 3)."""
    order = np.argsort(sweep.truth.sizes)
    return int(order[min(target_rank, len(order) - 1)])


def _size_panel(sweeps, labels_and_configs, category_picker, panel, title, note):
    series = {}
    for label, key in labels_and_configs:
        sweep = sweeps[key]
        cat = category_picker(sweep)
        for kind in ("induced", "star"):
            series[f"{label}/{kind}"] = (
                sweep.sample_sizes,
                sweep.size_nrmse[kind][:, cat],
            )
    return ExperimentResult(
        experiment_id=f"fig3{panel}",
        title=title,
        series=series,
        notes=dict(note),
    )


def _weight_panel(sweeps, labels_and_configs, edge_percentile, panel, title, note):
    series = {}
    for label, key in labels_and_configs:
        sweep = sweeps[key]
        a, b = percentile_edge(sweep.truth, edge_percentile)
        for kind in ("induced", "star"):
            series[f"{label}/{kind}"] = (
                sweep.sample_sizes,
                sweep.weight_nrmse[kind][:, a, b],
            )
    return ExperimentResult(
        experiment_id=f"fig3{panel}",
        title=title,
        series=series,
        notes=dict(note),
    )


def _cdf_panel(sweeps, preset, values_getter, panel, title, note):
    sweep = sweeps["base"]
    si = int(np.argmin(np.abs(sweep.sample_sizes - preset.cdf_sample_size)))
    series = {}
    for kind in ("induced", "star"):
        values = values_getter(sweep, si, kind)
        values = np.sort(values[np.isfinite(values)])
        if len(values) == 0:
            continue
        cdf = np.arange(1, len(values) + 1) / len(values)
        series[kind] = (values, cdf)
    return ExperimentResult(
        experiment_id=f"fig3{panel}",
        title=title,
        series=series,
        notes={**note, "sample_size": int(sweep.sample_sizes[si])},
        log_axes=False,
    )


def _build_a(sweeps, preset, note):
    return _size_panel(
        sweeps,
        [("k=5", "k5"), ("k=49", "k49")],
        _largest_category,
        "a",
        "NRMSE(|A|) vs |S| - alpha=0.5, largest category, k=5 vs 49",
        note,
    )


def _build_b(sweeps, preset, note):
    return _size_panel(
        sweeps,
        [("alpha=0", "a0"), ("alpha=1", "a1")],
        _largest_category,
        "b",
        "NRMSE(|A|) vs |S| - k=20, largest category, alpha=0 vs 1",
        note,
    )


def _build_c(sweeps, preset, note):
    sweep = sweeps["base"]
    small = _category_near(sweep, 3)  # the paper's |C|=500 is rank 3 of 10
    large = _largest_category(sweep)
    series = {}
    for label, cat in (("|C|=small", small), ("|C|=largest", large)):
        for kind in ("induced", "star"):
            series[f"{label}/{kind}"] = (
                sweep.sample_sizes,
                sweep.size_nrmse[kind][:, cat],
            )
    return ExperimentResult(
        experiment_id="fig3c",
        title="NRMSE(|A|) vs |S| - k=20, alpha=0.5, small vs largest category",
        series=series,
        notes=dict(note),
    )


def _build_d(sweeps, preset, note):
    return _cdf_panel(
        sweeps,
        preset,
        lambda sweep, si, kind: sweep.size_nrmse[kind][si],
        "d",
        "CDF of NRMSE(|A|) over the 10 categories at |S|=2000",
        note,
    )


def _build_e(sweeps, preset, note):
    return _weight_panel(
        sweeps,
        [("k=5", "k5"), ("k=49", "k49")],
        75,
        "e",
        "NRMSE(w) vs |S| - alpha=0.5, edge e_high, k=5 vs 49",
        note,
    )


def _build_f(sweeps, preset, note):
    return _weight_panel(
        sweeps,
        [("alpha=0", "a0"), ("alpha=1", "a1")],
        75,
        "f",
        "NRMSE(w) vs |S| - k=20, edge e_high, alpha=0 vs 1",
        note,
    )


def _build_g(sweeps, preset, note):
    sweep = sweeps["base"]
    series = {}
    for label, pct in (("e_low", 25), ("e_high", 75)):
        a, b = percentile_edge(sweep.truth, pct)
        for kind in ("induced", "star"):
            series[f"{label}/{kind}"] = (
                sweep.sample_sizes,
                sweep.weight_nrmse[kind][:, a, b],
            )
    return ExperimentResult(
        experiment_id="fig3g",
        title="NRMSE(w) vs |S| - k=20, alpha=0.5, e_low vs e_high",
        series=series,
        notes=dict(note),
    )


def _build_h(sweeps, preset, note):
    def pair_values(sweep, si, kind):
        matrix = sweep.weight_nrmse[kind][si]
        idx = np.triu_indices(matrix.shape[0], k=1)
        return matrix[idx]

    return _cdf_panel(
        sweeps,
        preset,
        pair_values,
        "h",
        "CDF of NRMSE(w) over all category pairs at |S|=2000",
        note,
    )


_PANEL_BUILDERS = {
    "a": _build_a,
    "b": _build_b,
    "c": _build_c,
    "d": _build_d,
    "e": _build_e,
    "f": _build_f,
    "g": _build_g,
    "h": _build_h,
}
