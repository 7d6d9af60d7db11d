"""Estimation-error metrics (Section 6.1 of the paper).

The paper scores estimators with the Normalized Root Mean Square Error

    NRMSE(x_hat) = sqrt(E[(x_hat - x)^2]) / x          (Eq. 17)

where the expectation runs over independent replications (walks). We
compute it element-wise over stacked replicate estimates, ignoring
``nan`` replicates (estimator undefined on that sample) but reporting
coverage so silent gaps cannot masquerade as accuracy. A sweep never
stacks its replicates: :class:`RunningNRMSE` folds them in block by
block, in replicate order, to the same bytes :func:`nrmse_stack` gives
for the whole stack.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EstimationError

__all__ = [
    "RunningNRMSE",
    "nanmean_rows",
    "nrmse",
    "nrmse_stack",
    "relative_error",
]


def nanmean_rows(stack: np.ndarray) -> np.ndarray:
    """``np.nanmean(stack, axis=0)`` without the empty-slice warning.

    Bit-identical to ``nanmean`` (same masked sum in the same order,
    same ``0/0 -> nan`` for all-nan columns, ``inf`` contributions
    preserved), but silent and **thread-safe**: suppressing the warning
    with ``warnings.catch_warnings`` mutates global filter state, which
    races when the DAG plan scheduler reduces several cells in
    concurrent driver threads.
    """
    mask = ~np.isnan(stack)
    # A column holding both +inf and -inf sums to nan: silent too.
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mask, stack, 0.0).sum(axis=0) / mask.sum(axis=0)


def nrmse(estimates: np.ndarray, truth: float) -> float:
    """Eq. (17) for a scalar quantity over replicate estimates.

    :func:`nrmse_stack` on the one-column stack, so the non-finite rule
    is the sweeps' own: ``nan`` replicates are left out, ``inf`` ones
    are kept (the error is ``inf``).
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        raise EstimationError("nrmse needs at least one replicate estimate")
    if truth == 0 or not np.isfinite(truth):
        raise EstimationError(f"nrmse is undefined for truth={truth}")
    values, _ = nrmse_stack(estimates.reshape(-1, 1), np.array([truth]))
    return float(values[0])


def nrmse_stack(
    estimate_stack: np.ndarray, truth: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise Eq. (17) over a stack of replicate estimate arrays.

    Parameters
    ----------
    estimate_stack:
        Shape ``(R, ...)`` — R replications of an estimate array.
    truth:
        Shape ``(...)`` — the true values.

    Returns
    -------
    ``(nrmse_values, coverage)`` of shape ``(...)``; ``coverage`` is the
    fraction of replicates with a finite estimate for each element.
    Elements whose truth is zero or non-finite get ``nan`` (the metric
    normalises by the true value).
    """
    estimate_stack = np.asarray(estimate_stack, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate_stack.ndim != truth.ndim + 1 or estimate_stack.shape[1:] != truth.shape:
        raise EstimationError(
            f"estimate stack {estimate_stack.shape} does not stack over "
            f"truth {truth.shape}"
        )
    finite = np.isfinite(estimate_stack)
    coverage = finite.mean(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN replicate
        mse = nanmean_rows((estimate_stack - truth) ** 2)
    return _normalised(mse, truth), coverage


def _normalised(mse: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``sqrt(mse) / |truth|``, ``nan`` where the truth is zero or non-finite."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            np.isfinite(truth) & (truth != 0), np.sqrt(mse) / np.abs(truth), np.nan
        )


class RunningNRMSE:
    """Element-wise Eq. (17) folded in one block of replicates at a time.

    :meth:`fold` takes the next ``(B, ...)`` block of replicate
    estimates, in replicate order; :meth:`close` returns what
    :func:`nrmse_stack` returns for all the folded rows stacked, byte for
    byte. Per element it keeps the count of finite estimates, the count
    of NaN squared errors (replicates the mean leaves out) and the sum
    of the others, so memory does not grow with the replicate count.

    The sum adds one row after another. That is the order NumPy's axis-0
    sum uses when a row has more than one element, but for one-element
    rows it sums pairwise, so those (a single category) are held and
    reduced whole by :func:`nrmse_stack` on :meth:`close`.
    """

    def __init__(self, truth: np.ndarray):
        self.truth = np.asarray(truth, dtype=float)
        self.rows = 0
        self._held = [] if self.truth.size == 1 else None
        # int32: the counts never exceed the replicate count, and a
        # (C, C) count plane per open rung is half the size of int64.
        self._finite = np.zeros(self.truth.shape, dtype=np.int32)
        self._dropped = np.zeros(self.truth.shape, dtype=np.int32)
        self._total = np.zeros(self.truth.shape)

    def fold(self, block: np.ndarray) -> None:
        """Add the next ``(B, ...)`` rows, in replicate order."""
        block = np.asarray(block, dtype=float)
        if block.shape[1:] != self.truth.shape:
            raise EstimationError(
                f"estimate block {block.shape} does not stack over "
                f"truth {self.truth.shape}"
            )
        self.rows += len(block)
        if self._held is not None:
            self._held.append(block)
            return
        self._finite += np.isfinite(block).sum(axis=0, dtype=np.int32)
        # One temporary, squared in place: a large block is not copied
        # again. inf - inf is a NaN replicate, not a warning.
        with np.errstate(invalid="ignore"):
            squared = np.subtract(block, self.truth)
            np.square(squared, out=squared)
        dropped = np.isnan(squared)
        self._dropped += dropped.sum(axis=0, dtype=np.int32)
        np.copyto(squared, 0.0, where=dropped)
        for row in squared:
            self._total += row

    def close(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nrmse_values, coverage)`` over every folded row."""
        if self._held is not None:
            return nrmse_stack(np.concatenate(self._held), self.truth)
        coverage = self._finite / self.rows
        with np.errstate(invalid="ignore", divide="ignore"):
            mse = self._total / (self.rows - self._dropped)
        return _normalised(mse, self.truth), coverage


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """``|x_hat - x| / x`` element-wise; ``nan`` where undefined."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            np.isfinite(truth) & (truth != 0),
            np.abs(estimate - truth) / np.abs(truth),
            np.nan,
        )
