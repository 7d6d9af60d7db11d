"""Fig. 6 — estimation error on the Facebook crawls.

Panels (a)/(b): median NRMSE of category-size estimates vs |S| for the
100 most popular 2009 regions / the 2010 colleges, per crawl dataset.
Panels (c)/(d): the same for edge weights.

The paper used the cross-sample average as "ground truth" (it had no
oracle); our substrate is synthetic so we score against *true* values
by default, and optionally reproduce the paper's convention.

The experiment compiles to one *pre-drawn* sweep cell per crawl
dataset: the synthetic world and its five simulated crawl collections
(:func:`~repro.experiments.shared.build_world_and_crawls`) are a plan
resource built once and shared by every cell — and published to worker
shards once via shared memory when the plan runs in parallel. Each
cell's replicate walks resolve their size ladder through incremental
prefix aggregates
(:func:`~repro.stats.replication.run_nrmse_sweep_from_samples`).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ExperimentResult
from repro.experiments.config import ScalePreset, active_preset
from repro.experiments.plan import PlanResources, SweepCell, SweepJob, SweepPlan
from repro.experiments.shared import build_world_and_crawls, year_partition
from repro.runtime.plan import run_plan

__all__ = ["run_fig6", "compile_fig6"]

#: Crawl dataset -> category year, in series order.
_DATASETS = {
    "MHRW09": 2009,
    "RW09": 2009,
    "UIS09": 2009,
    "RW10": 2010,
    "S-WRW10": 2010,
}

_YEARS = (
    (2009, "a", "c"),
    (2010, "b", "d"),
)


def compile_fig6(
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> SweepPlan:
    """Compile Fig. 6 to one pre-drawn sweep cell per crawl dataset."""
    preset = preset or active_preset()
    resources = {"world": lambda: build_world_and_crawls(preset, rng)}
    cells = tuple(
        _dataset_cell(name, year, preset) for name, year in _DATASETS.items()
    )

    def finalize(
        outputs: dict[str, object], resources: PlanResources
    ) -> dict[str, ExperimentResult]:
        world, datasets = resources["world"]
        results: dict[str, ExperimentResult] = {}
        for year, size_panel, weight_panel in _YEARS:
            partition, catchall = year_partition(world, year)
            # "100 most popular" categories, excluding the catch-all.
            true_sizes = partition.sizes().astype(float)
            true_sizes[catchall] = -1
            top = np.argsort(-true_sizes)[: preset.top_categories]
            top = top[true_sizes[top] > 0]
            pairs = _positive_pairs(world, partition, top)

            size_series, weight_series = {}, {}
            for name, dataset_year in _DATASETS.items():
                if dataset_year != year:
                    continue
                sweep = outputs[name]
                for kind in ("induced", "star"):
                    size_series[f"{name}/{kind}"] = (
                        sweep.sample_sizes,
                        sweep.median_size_nrmse(kind, categories=top),
                    )
                    weight_series[f"{name}/{kind}"] = (
                        sweep.sample_sizes,
                        sweep.median_weight_nrmse(kind, pairs=pairs),
                    )
            note = {
                "year": year,
                "top_categories": len(top),
                "scored_pairs": len(pairs),
                "scale": preset.name,
            }
            results[f"fig6{size_panel}"] = ExperimentResult(
                experiment_id=f"fig6{size_panel}",
                title=f"median NRMSE(|A|) vs |S|, {year} categories",
                series=size_series,
                notes=note,
            )
            results[f"fig6{weight_panel}"] = ExperimentResult(
                experiment_id=f"fig6{weight_panel}",
                title=f"median NRMSE(w) vs |S|, {year} categories",
                series=weight_series,
                notes=note,
            )
        return results

    return SweepPlan(
        name="fig6",
        cells=cells,
        finalize=finalize,
        resources=resources,
        context={"scale": preset.name, "seed": int(rng)},
        # finalize re-derives the scored categories/pairs from the
        # world, so even a resume that replays every cell builds it.
        finalize_needs=("world",),
    )


def run_fig6(
    preset: ScalePreset | None = None,
    rng: int = 0,
) -> dict[str, ExperimentResult]:
    """Regenerate Fig. 6 panels a-d."""
    return run_plan(compile_fig6(preset=preset, rng=rng))


def _dataset_cell(name: str, year: int, preset: ScalePreset) -> SweepCell:
    def build(resources: PlanResources) -> SweepJob:
        world, datasets = resources["world"]
        dataset = datasets[name]
        partition, _ = year_partition(world, year)
        max_size = min(walk.size for walk in dataset.walks)
        sizes = tuple(
            s for s in preset.fig6_sample_sizes if s <= max_size
        ) or (max_size,)
        return SweepJob(
            graph=world.graph,
            partition=partition,
            sizes=sizes,
            samples=dataset.walks,
        )

    return SweepCell(
        key=name,
        build=build,
        axes={"crawl": name, "year": year, "mode": "predrawn"},
        needs=("world",),
    )


def _positive_pairs(world, partition, top: np.ndarray) -> np.ndarray:
    """Estimable pairs among the top categories.

    Pairs with positive true weight, restricted to the top quartile of
    weights: at laptop-scale sample sizes the bottom quartiles are so
    sparse that the degenerate all-zeros "estimator" scores best, which
    says nothing about induced-vs-star. (The paper's full-size walks
    sidestep this by sheer volume; its Fig. 6(c) y-axis spans 1e0-1e3.)
    """
    from repro.graph.category_graph import true_category_graph

    truth = true_category_graph(world.graph, partition)
    pairs, cuts = [], []
    for i, a in enumerate(top):
        for b in top[i + 1 :]:
            w = truth.weights[a, b]
            if np.isfinite(w) and w > 0:
                pairs.append((int(a), int(b)))
                cuts.append(float(truth.cuts[a, b]))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) > 8:
        # Rank by cut size |E_{A,B}| (the number of observable edges),
        # not by weight: high-weight pairs are pairs of tiny categories,
        # which no laptop-sized sample can see at all.
        threshold = np.percentile(cuts, 75)
        pairs = pairs[np.asarray(cuts) >= threshold]
    return pairs
