"""Scale presets for the experiment drivers.

The paper's sweeps run at N = 88 850 with samples up to 1e5 and ~28
replications — minutes per figure on a laptop. Tests and CI need
seconds. ``ScalePreset`` bundles every size knob; the active preset
comes from the ``REPRO_SCALE`` environment variable (``small`` default,
``medium``, ``paper``). ``paper`` is the paper's own sizes; every
preset builds its graphs in RAM.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ExperimentError

__all__ = ["ScalePreset", "SCALE_PRESETS", "active_preset"]


@dataclass(frozen=True)
class ScalePreset:
    """All experiment size knobs for one scale tier."""

    name: str
    #: Shrink factor for the Section 6.2.1 planted model (Fig. 3).
    planted_scale: int
    #: Shrink factor for the Table 1 dataset stand-ins (Fig. 4).
    dataset_scale: int
    #: Shrink factor for the Facebook world (Table 2, Figs. 5-7).
    facebook_scale: int
    #: Sample-size ladder for Fig. 3.
    fig3_sample_sizes: tuple[int, ...]
    #: Sample-size ladder for Fig. 4.
    fig4_sample_sizes: tuple[int, ...]
    #: Sample-size ladder for Fig. 6.
    fig6_sample_sizes: tuple[int, ...]
    #: Replications per sweep point (independent samples/walks).
    replications: int
    #: |S| at which the Fig. 3(d)/(h) CDFs are evaluated (paper: 2000).
    cdf_sample_size: int
    #: Communities kept as categories in Fig. 4 (paper: 50).
    community_top: int
    #: Number of walks simulated per crawl dataset (paper: 28 / 25).
    walks_2009: int
    walks_2010: int
    #: Draws per simulated walk (paper: 81k / 40k).
    samples_per_walk: int
    #: "Most popular" categories scored in Fig. 6 (paper: 100).
    top_categories: int


SCALE_PRESETS: dict[str, ScalePreset] = {
    "small": ScalePreset(
        name="small",
        planted_scale=20,
        dataset_scale=25,
        facebook_scale=6,
        fig3_sample_sizes=(100, 300, 1000, 3000, 10_000),
        fig4_sample_sizes=(300, 1000, 3000),
        fig6_sample_sizes=(300, 1000, 2500),
        replications=8,
        cdf_sample_size=2000,
        community_top=15,
        walks_2009=8,
        walks_2010=8,
        samples_per_walk=2500,
        top_categories=40,
    ),
    "medium": ScalePreset(
        name="medium",
        planted_scale=5,
        dataset_scale=8,
        facebook_scale=2,
        fig3_sample_sizes=(100, 300, 1000, 3000, 10_000, 30_000),
        fig4_sample_sizes=(300, 1000, 3000, 10_000),
        fig6_sample_sizes=(300, 1000, 3000, 8000),
        replications=12,
        cdf_sample_size=2000,
        community_top=30,
        walks_2009=12,
        walks_2010=12,
        samples_per_walk=8000,
        top_categories=60,
    ),
    "paper": ScalePreset(
        name="paper",
        planted_scale=1,
        dataset_scale=1,
        facebook_scale=1,
        fig3_sample_sizes=(100, 300, 1000, 3000, 10_000, 30_000, 100_000),
        fig4_sample_sizes=(1000, 3000, 10_000, 30_000, 100_000),
        fig6_sample_sizes=(1000, 3000, 10_000, 30_000),
        replications=28,
        cdf_sample_size=2000,
        community_top=50,
        walks_2009=28,
        walks_2010=25,
        samples_per_walk=30_000,
        top_categories=100,
    ),
}


def active_preset(name: str | None = None) -> ScalePreset:
    """Resolve a preset by name or from ``REPRO_SCALE`` (default small)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALE_PRESETS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scale {name!r}; available: {', '.join(SCALE_PRESETS)}"
        ) from None
