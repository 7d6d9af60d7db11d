"""Fig. 4 — estimator NRMSE on the Table 1 empirical graphs.

For each of the four graphs (Facebook New Orleans, Facebook Texas,
Epinions, P2P), categories are the ``top`` largest leading-eigenvector
communities plus a catch-all (the paper's worst case for star
sampling), and samples come from UIS, RW and S-WRW. The top row plots
median NRMSE of the size estimators across categories; the bottom row
the median NRMSE of the weight estimators across category pairs.

The experiment compiles to a (dataset x design) grid of fresh-draw
sweep cells; each dataset stand-in (graph + community partition) is a
plan resource, built once and shared by its three design cells — and
published to worker shards once when the plan runs in parallel. Cells
declare their stand-in via ``needs``; each stand-in builds on the
first of its design cells.
"""

from __future__ import annotations

from repro.datasets.categories import worst_case_categories
from repro.datasets.registry import dataset_names, load_dataset
from repro.experiments.base import ExperimentResult
from repro.experiments.config import ScalePreset, active_preset
from repro.experiments.plan import PlanResources, SweepCell, SweepJob, SweepPlan
from repro.rng import derive_rng
from repro.runtime.plan import run_plan
from repro.sampling.independence import UniformIndependenceSampler
from repro.sampling.stratified import StratifiedWeightedWalkSampler
from repro.sampling.walks import RandomWalkSampler

__all__ = ["run_fig4", "compile_fig4", "FIG4_SAMPLERS"]

FIG4_SAMPLERS = ("UIS", "RW", "S-WRW")


def compile_fig4(
    datasets: tuple[str, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> SweepPlan:
    """Compile Fig. 4 to a (dataset x design) grid of sweep cells."""
    preset = preset or active_preset()
    names = datasets or dataset_names()
    resources = {}
    cells = []
    for di, name in enumerate(names):
        resources[f"dataset:{name}"] = _dataset_resource(name, di, preset, rng)
        for mi, sampler_name in enumerate(FIG4_SAMPLERS):
            cells.append(
                _design_cell(name, di, sampler_name, mi, preset, rng)
            )

    def finalize(
        outputs: dict[str, object], resources: PlanResources
    ) -> dict[str, ExperimentResult]:
        results: dict[str, ExperimentResult] = {}
        for name in names:
            graph, spec, partition, sizes = resources[f"dataset:{name}"]
            size_series: dict[str, tuple] = {}
            weight_series: dict[str, tuple] = {}
            for sampler_name in FIG4_SAMPLERS:
                sweep = outputs[f"{name}/{sampler_name}"]
                for kind in ("induced", "star"):
                    size_series[f"{sampler_name}/{kind}"] = (
                        sweep.sample_sizes,
                        sweep.median_size_nrmse(kind),
                    )
                    weight_series[f"{sampler_name}/{kind}"] = (
                        sweep.sample_sizes,
                        sweep.median_weight_nrmse(kind),
                    )
            note = {
                "dataset": name,
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "categories": partition.num_categories,
                "scale": preset.name,
            }
            results[f"fig4_{name}_sizes"] = ExperimentResult(
                experiment_id=f"fig4_{name}_sizes",
                title=f"median NRMSE(|A|) vs |S| on {name} ({spec.description})",
                series=size_series,
                notes=note,
            )
            results[f"fig4_{name}_weights"] = ExperimentResult(
                experiment_id=f"fig4_{name}_weights",
                title=f"median NRMSE(w) vs |S| on {name} ({spec.description})",
                series=weight_series,
                notes=note,
            )
        return results

    return SweepPlan(
        name="fig4",
        cells=tuple(cells),
        finalize=finalize,
        resources=resources,
        context={"scale": preset.name, "seed": int(rng)},
        # finalize reads every stand-in's metadata (nodes/edges/sizes)
        # for the result notes, so resumed plans keep building them.
        finalize_needs=tuple(f"dataset:{name}" for name in names),
    )


def run_fig4(
    datasets: tuple[str, ...] | None = None,
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> dict[str, ExperimentResult]:
    """Regenerate Fig. 4.

    Returns two results per dataset: ``fig4_<name>_sizes`` (top row) and
    ``fig4_<name>_weights`` (bottom row), each with one series per
    (sampler, measurement) combination.
    """
    return run_plan(compile_fig4(datasets=datasets, preset=preset, rng=rng))


def _dataset_resource(name: str, di: int, preset: ScalePreset, rng: int):
    def factory():
        graph, spec = load_dataset(
            name, scale=preset.dataset_scale, rng=derive_rng(rng, 40, di)
        )
        partition = worst_case_categories(
            graph, top=preset.community_top, rng=derive_rng(rng, 41, di)
        )
        sizes = tuple(
            s for s in preset.fig4_sample_sizes if s <= 3 * graph.num_nodes
        ) or (graph.num_nodes,)
        return graph, spec, partition, sizes

    return factory


def _design_cell(
    name: str, di: int, sampler_name: str, mi: int, preset: ScalePreset, rng: int
) -> SweepCell:
    def build(resources: PlanResources) -> SweepJob:
        graph, spec, partition, sizes = resources[f"dataset:{name}"]
        return SweepJob(
            graph=graph,
            partition=partition,
            sizes=sizes,
            sampler=_make_sampler(sampler_name, graph, partition),
            replications=preset.replications,
            rng=derive_rng(rng, 42, di * 10 + mi),
        )

    return SweepCell(
        key=f"{name}/{sampler_name}",
        build=build,
        axes={
            "dataset": name,
            "design": sampler_name,
            "R": preset.replications,
        },
        needs=(f"dataset:{name}",),
    )


def _make_sampler(name: str, graph, partition):
    # Samplers are built once per sweep; run_nrmse_sweep's batched
    # engine advances all replicate walks simultaneously.
    if name == "UIS":
        return UniformIndependenceSampler(graph)
    if name == "RW":
        return RandomWalkSampler(graph)
    if name == "S-WRW":
        # Equal category weights, as in the paper's Section 6.3.1
        # ("we use equal category weights for all categories").
        return StratifiedWeightedWalkSampler(graph, partition)
    raise ValueError(f"unknown sampler {name!r}")
