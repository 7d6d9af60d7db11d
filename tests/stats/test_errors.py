"""Tests for NRMSE and error metrics (Eq. 17)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.stats import nrmse, nrmse_stack, relative_error
from repro.stats.errors import RunningNRMSE


class TestNrmseScalar:
    def test_exact_estimates_zero_error(self):
        assert nrmse(np.array([5.0, 5.0, 5.0]), 5.0) == 0.0

    def test_hand_computed(self):
        # estimates 4 and 6 around truth 5: RMSE = 1, NRMSE = 0.2
        assert nrmse(np.array([4.0, 6.0]), 5.0) == pytest.approx(0.2)

    def test_bias_contributes(self):
        # constant bias of +1 on truth 2 -> NRMSE = 0.5
        assert nrmse(np.array([3.0, 3.0]), 2.0) == pytest.approx(0.5)

    def test_nan_replicates_ignored(self):
        assert nrmse(np.array([4.0, np.nan, 6.0]), 5.0) == pytest.approx(0.2)

    def test_all_nan_gives_nan(self):
        assert np.isnan(nrmse(np.array([np.nan, np.nan]), 5.0))

    def test_inf_replicate_kept_as_in_stack(self):
        """One Eq. 17 rule: ``inf`` is not dropped (only NaN is), exactly
        as in the sweeps' :func:`nrmse_stack`."""
        estimates = np.array([4.0, np.inf])
        assert nrmse(estimates, 5.0) == np.inf
        assert nrmse_stack(estimates[:, None], np.array([5.0]))[0][0] == np.inf

    def test_zero_truth_rejected(self):
        with pytest.raises(EstimationError):
            nrmse(np.array([1.0]), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            nrmse(np.array([]), 1.0)


class TestNrmseStack:
    def test_elementwise(self):
        stack = np.array([[4.0, 10.0], [6.0, 10.0]])
        truth = np.array([5.0, 10.0])
        values, coverage = nrmse_stack(stack, truth)
        assert values[0] == pytest.approx(0.2)
        assert values[1] == 0.0
        assert np.all(coverage == 1.0)

    def test_coverage_tracks_nans(self):
        stack = np.array([[4.0, np.nan], [6.0, np.nan]])
        truth = np.array([5.0, 10.0])
        values, coverage = nrmse_stack(stack, truth)
        assert coverage[0] == 1.0
        assert coverage[1] == 0.0
        assert np.isnan(values[1])

    def test_coverage_counts_the_replicates_the_mean_keeps(self):
        # Eq. 17 keeps an inf replicate (the error is inf) and leaves a
        # NaN one out; coverage counts exactly the replicates it keeps.
        stack = np.array([[4.0, 4.0], [np.inf, np.nan], [6.0, 6.0]])
        truth = np.array([5.0, 5.0])
        values, coverage = nrmse_stack(stack, truth)
        assert values[0] == np.inf
        assert values[1] == pytest.approx(0.2)
        assert coverage.tolist() == [1.0, 2 / 3]
        running = RunningNRMSE(truth)
        running.fold(stack[:2])
        running.fold(stack[2:])
        running_values, running_coverage = running.close()
        assert running_values.tobytes() == values.tobytes()
        assert running_coverage.tobytes() == coverage.tobytes()

    def test_zero_truth_gives_nan(self):
        stack = np.array([[1.0], [1.0]])
        values, _ = nrmse_stack(stack, np.array([0.0]))
        assert np.isnan(values[0])

    def test_matrix_shape(self):
        stack = np.ones((3, 2, 2))
        truth = np.ones((2, 2))
        values, coverage = nrmse_stack(stack, truth)
        assert values.shape == (2, 2)
        assert np.all(values == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EstimationError):
            nrmse_stack(np.ones((3, 2)), np.ones(3))


class TestRelativeError:
    def test_basic(self):
        out = relative_error(np.array([1.1, 2.0]), np.array([1.0, 4.0]))
        assert out[0] == pytest.approx(0.1)
        assert out[1] == pytest.approx(0.5)

    def test_zero_truth_nan(self):
        out = relative_error(np.array([1.0]), np.array([0.0]))
        assert np.isnan(out[0])
