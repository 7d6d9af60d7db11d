"""Integration tests for the experiment drivers (tiny scale).

These run every driver end-to-end with a miniature preset so CI stays
fast; the benches exercise the real presets and assert shape claims.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    SCALE_PRESETS,
    ScalePreset,
    active_preset,
    experiment_ids,
    run_experiment,
    run_fig3,
    run_table1,
    run_table2,
)
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig7 import run_fig7

TINY = ScalePreset(
    name="tiny",
    planted_scale=120,
    dataset_scale=60,
    facebook_scale=15,
    fig3_sample_sizes=(100, 400, 1500),
    fig4_sample_sizes=(200, 800),
    fig6_sample_sizes=(200, 700),
    replications=3,
    cdf_sample_size=400,
    community_top=6,
    walks_2009=3,
    walks_2010=3,
    samples_per_walk=800,
    top_categories=15,
)


class TestConfig:
    def test_presets_exist(self):
        assert set(SCALE_PRESETS) == {"small", "medium", "paper"}

    def test_active_preset_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert active_preset().name == "medium"

    def test_active_preset_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_preset().name == "small"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError):
            active_preset("huge")

    def test_registry_contents(self):
        ids = experiment_ids()
        for required in ("fig3a", "fig3h", "fig4", "fig5", "fig6", "fig7",
                         "table1", "table2"):
            assert required in ids

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")


class TestFig3:
    @pytest.fixture(scope="class")
    def results(self):
        return run_fig3(preset=TINY, rng=0)

    def test_all_panels_produced(self, results):
        assert set(results) == {f"fig3{p}" for p in "abcdefgh"}

    def test_series_finite_and_positive(self, results):
        for panel in ("fig3a", "fig3b", "fig3c"):
            for label, (xs, ys) in results[panel].series.items():
                ys = np.asarray(ys, dtype=float)
                assert np.any(np.isfinite(ys)), (panel, label)

    def test_convergence_on_largest_category(self, results):
        for label, (xs, ys) in results["fig3a"].series.items():
            ys = np.asarray(ys, dtype=float)
            finite = ys[np.isfinite(ys)]
            if len(finite) >= 2:
                assert finite[-1] <= finite[0] * 1.5  # no divergence

    def test_cdf_panels_monotone(self, results):
        for panel in ("fig3d", "fig3h"):
            for label, (xs, ys) in results[panel].series.items():
                assert np.all(np.diff(ys) >= 0)
                assert 0 < ys[-1] <= 1.0

    def test_renders(self, results):
        text = results["fig3a"].render()
        assert "fig3a" in text

    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError):
            run_fig3(panels=("z",), preset=TINY)


class TestFacebookExperiments:
    def test_table1(self):
        result = run_table1(preset=TINY, rng=0)
        headers, rows = result.table
        assert len(rows) == 4
        # Realised mean degree within 30% of published for each dataset.
        for row in rows:
            assert abs(row[6] - row[3]) / row[3] < 0.30

    def test_table2(self):
        result = run_table2(preset=TINY, rng=0)
        headers, rows = result.table
        assert len(rows) == 5
        fractions = {row[0]: float(row[4].rstrip("%")) for row in rows}
        assert fractions["S-WRW10"] > 5 * max(fractions["RW10"], 1.0)

    def test_fig5(self):
        results = run_fig5(preset=TINY, rng=0)
        assert set(results) == {"fig5a", "fig5b"}
        for result in results.values():
            for label, (ranks, counts) in result.series.items():
                assert np.all(np.diff(counts) <= 0)  # sorted descending

    def test_fig7(self):
        results = run_fig7(preset=TINY, rng=0)
        assert set(results) == {"fig7a", "fig7b", "fig7c"}
        for result in results.values():
            headers, rows = result.table
            assert len(headers) == 3
        # Geography: the estimated country graph must show the negative
        # distance-weight correlation.
        assert results["fig7a"].notes["distance_weight_rank_corr"] < 0

    def test_save(self, tmp_path):
        result = run_table1(preset=TINY, rng=0)
        paths = result.save(tmp_path)
        assert any(p.suffix == ".txt" for p in paths)


class TestRegistryDispatch:
    def test_fig3_panel_dispatch(self):
        results = run_experiment("fig3d", preset=TINY, rng=0)
        assert "fig3d" in results

    def test_table_dispatch(self):
        results = run_experiment("table1", preset=TINY, rng=0)
        assert "table1" in results
