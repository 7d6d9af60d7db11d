"""The streaming rung reducer equals the whole-stack reduction, byte for byte.

:class:`repro.stats.replication.RungReducer` turns each rung's ``(R, ...)``
replicate rows into NRMSE and coverage as the rung arrives. The seed
reduction it replaced — fill ``(R, K, C[, C])`` stacks, reduce once at
the end — lives on as :func:`tests.oracles.reference_reduce_stacks`.
Every surface and the truth must match it in dtype, shape and bytes,
for both truth modes, whether the rungs arrive as strided slices of
the stacks (the serial sweep) or as contiguous per-rung copies in any
order (the process executor and checkpoint replay).
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import EstimationError
from repro.graph.category_graph import CategoryGraph
from repro.stats.replication import KINDS, RungReducer
from tests.oracles import reference_reduce_stacks

#: Estimate values: ordinary, tiny, huge, zero, negative, NaN and ±inf.
_PALETTE = np.array(
    [0.0, 1e-300, 0.37, 1.0, 2.5, 1e12, -3.0, np.nan, np.inf, -np.inf]
)


def _stack(gen, shape, nan_share):
    """Estimates drawn from ``_PALETTE`` plus noise; some all-NaN columns."""
    values = _PALETTE[gen.integers(len(_PALETTE), size=shape)]
    values = values * (1.0 + gen.random(shape))
    values[gen.random(shape) < nan_share] = np.nan
    dead = gen.random(shape[2:]) < 0.2  # all-NaN across replicates
    values[:, :, dead] = np.nan
    return values


def _truth(gen, c):
    sizes = _PALETTE[gen.integers(len(_PALETTE), size=c)] * (1 + gen.random(c))
    upper = np.triu(gen.random((c, c)) * gen.integers(0, 3, size=(c, c)), 1)
    weights = upper + upper.T
    np.fill_diagonal(weights, np.nan)
    return CategoryGraph(sizes, weights)


def _assert_same_result(actual, expected):
    assert actual.sample_sizes is expected.sample_sizes
    assert actual.truth is expected.truth
    for attr in ("size_nrmse", "weight_nrmse", "size_coverage", "weight_coverage"):
        for kind in KINDS:
            got = getattr(actual, attr)[kind]
            want = getattr(expected, attr)[kind]
            assert got.dtype == want.dtype, (attr, kind)
            assert got.shape == want.shape, (attr, kind)
            assert got.tobytes() == want.tobytes(), (attr, kind)


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(1, 6),
    k=st.integers(1, 4),
    c=st.integers(1, 5),
    truth_mode=st.sampled_from(["exact", "cross-sample"]),
    nan_share=st.sampled_from([0.0, 0.3, 1.0]),
    contiguous=st.booleans(),
    seed=st.integers(0, 2**16),
)
# The degenerate corners always run: one replicate, one rung, one category.
@example(r=1, k=3, c=4, truth_mode="cross-sample", nan_share=0.3, contiguous=True, seed=1)
@example(r=4, k=1, c=3, truth_mode="cross-sample", nan_share=0.3, contiguous=False, seed=2)
@example(r=4, k=3, c=1, truth_mode="exact", nan_share=0.3, contiguous=True, seed=3)
@example(r=1, k=1, c=1, truth_mode="exact", nan_share=1.0, contiguous=False, seed=4)
def test_rung_reducer_matches_whole_stack_oracle(
    r, k, c, truth_mode, nan_share, contiguous, seed
):
    gen = np.random.default_rng(seed)
    sizes = np.arange(1, k + 1, dtype=np.int64) * 10
    truth = _truth(gen, c)
    size_stacks = {kind: _stack(gen, (r, k, c), nan_share) for kind in KINDS}
    weight_stacks = {kind: _stack(gen, (r, k, c, c), nan_share) for kind in KINDS}
    with np.errstate(all="ignore"):  # inf - inf, as in production
        expected = reference_reduce_stacks(
            sizes, size_stacks, weight_stacks, truth, truth_mode
        )

    stacks = (
        size_stacks["induced"],
        size_stacks["star"],
        weight_stacks["induced"],
        weight_stacks["star"],
    )
    reducer = RungReducer(sizes, truth, truth_mode, r)
    order = gen.permutation(k) if contiguous else range(k)
    for si in order:
        rows = [stack[:, si] for stack in stacks]
        if contiguous:
            # What the executor hands over: one fresh array per field.
            rows = [np.concatenate([row[: r // 2], row[r // 2 :]]) for row in rows]
        with np.errstate(all="ignore"):
            reducer.add(int(si), rows)
    _assert_same_result(reducer.result(), expected)


def _rung_rows(gen, r, c):
    return [gen.random((r, c)), gen.random((r, c))] + [
        gen.random((r, c, c)) for _ in range(2)
    ]


def test_rows_are_let_go_once_their_truth_is_known():
    """Exact truth drops a rung on arrival; cross-sample truth holds the
    rungs until the last one (its pseudo-truth) arrives."""
    gen = np.random.default_rng(0)
    truth = _truth(gen, 3)
    sizes = np.array([5, 10])
    exact = RungReducer(sizes, truth, "exact", 4)
    rows = _rung_rows(gen, 4, 3)
    alive = weakref.ref(rows[2])
    exact.add(0, rows)
    del rows
    assert alive() is None

    cross = RungReducer(sizes, truth, "cross-sample", 4)
    rows = _rung_rows(gen, 4, 3)
    alive = weakref.ref(rows[2])
    cross.add(0, rows)
    del rows
    assert alive() is not None
    cross.add(1, _rung_rows(gen, 4, 3))
    assert alive() is None
    assert np.isfinite(cross.result().weight_nrmse["star"][0, 0, 1])


def test_missing_rung_and_bad_rows_are_named():
    gen = np.random.default_rng(1)
    truth = _truth(gen, 2)
    reducer = RungReducer(np.array([5, 10]), truth, "exact", 3)
    good = _rung_rows(gen, 3, 2)
    reducer.add(0, good)
    with pytest.raises(EstimationError, match=r"rungs \[1\] not reduced"):
        reducer.result()
    with pytest.raises(EstimationError, match="rung 1 rows are not"):
        reducer.add(1, [row[:2] for row in good])
