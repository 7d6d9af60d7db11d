"""The running rung reducer equals the whole-stack reduction, byte for byte.

:class:`repro.stats.replication.RungReducer` folds each rung's replicate
rows into running Eq. 17 sums as blocks of them arrive. The seed
reduction it replaced — fill ``(R, K, C[, C])`` stacks, reduce once at
the end — lives on as :func:`tests.oracles.reference_reduce_stacks`.
Every surface and the truth must match it in dtype, shape and bytes,
for both truth modes, however a rung's replicates are split into blocks
(one replicate per block in the serial sweep, one shard per block in
the process executor, a whole rung on checkpoint replay) and whichever
order the rungs close in. Past eight replicates NumPy sums a
one-element row pairwise, not row after row, so ``R`` reaches 17 and
one category (``C = 1``) always runs at that size.
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


def _stack(gen, shape, nan_share, palette=True):
    """Estimates drawn from ``_PALETTE`` (or, without it, finite and
    positive) plus noise; some all-NaN columns."""
    if palette:
        values = _PALETTE[gen.integers(len(_PALETTE), size=shape)]
    else:
        # Finite sums, where only the summation order moves the bytes.
        values = 10.0 ** gen.uniform(-3, 3, size=shape)
    values = values * (1.0 + gen.random(shape))
    values[gen.random(shape) < nan_share] = np.nan
    dead = gen.random(shape[2:]) < 0.2  # all-NaN across replicates
    values[:, :, dead] = np.nan
    return values


def _truth(gen, c, palette=True):
    if palette:
        sizes = _PALETTE[gen.integers(len(_PALETTE), size=c)]
    else:
        sizes = 10.0 ** gen.uniform(-3, 3, size=c)
    sizes = sizes * (1 + gen.random(c))
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


def _blocks(gen, r, split):
    """Block boundaries over ``r`` replicates: one block, one replicate
    per block, or random cuts."""
    if split == "whole":
        return [0, r]
    if split == "single":
        return list(range(r + 1))
    cuts = np.flatnonzero(gen.random(r - 1) < 0.4) + 1
    return [0, *cuts.tolist(), r]


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 20),
    k=st.integers(1, 4),
    c=st.integers(1, 5),
    truth_mode=st.sampled_from(["exact", "cross-sample"]),
    nan_share=st.sampled_from([0.0, 0.3, 1.0]),
    palette=st.booleans(),
    split=st.sampled_from(["whole", "single", "random"]),
    seed=st.integers(0, 2**16),
)
# The degenerate corners always run: one replicate, one rung, one
# category, and one category past NumPy's pairwise-summation threshold.
@example(r=1, k=3, c=4, truth_mode="cross-sample", nan_share=0.3, palette=True, split="whole", seed=1)
@example(r=4, k=1, c=3, truth_mode="cross-sample", nan_share=0.3, palette=True, split="single", seed=2)
@example(r=4, k=3, c=1, truth_mode="exact", nan_share=0.3, palette=True, split="whole", seed=3)
@example(r=1, k=1, c=1, truth_mode="exact", nan_share=1.0, palette=True, split="single", seed=4)
@example(r=17, k=2, c=1, truth_mode="exact", nan_share=0.0, palette=False, split="single", seed=5)
@example(r=17, k=2, c=1, truth_mode="cross-sample", nan_share=0.0, palette=False, split="random", seed=6)
@example(r=17, k=2, c=3, truth_mode="exact", nan_share=0.3, palette=False, split="random", seed=7)
def test_rung_reducer_matches_whole_stack_oracle(
    r, k, c, truth_mode, nan_share, palette, split, seed
):
    gen = np.random.default_rng(seed)
    sizes = np.arange(1, k + 1, dtype=np.int64) * 10
    truth = _truth(gen, c, palette)
    size_stacks = {
        kind: _stack(gen, (r, k, c), nan_share, palette) for kind in KINDS
    }
    weight_stacks = {
        kind: _stack(gen, (r, k, c, c), nan_share, palette) for kind in KINDS
    }
    with np.errstate(all="ignore"):  # the palette's inf + -inf averages to NaN
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
    with np.errstate(all="ignore"):
        if split == "single":
            # The serial sweep: replicate-major, every rung open at once.
            for rep in range(r):
                for si in range(k):
                    reducer.fold(
                        si, [stack[rep : rep + 1, si] for stack in stacks]
                    )
            for si in gen.permutation(k):
                reducer.close(int(si))
        else:
            # The executor: rung by rung, in any order on replay, each
            # block a fresh array as a shard's reply is.
            for si in gen.permutation(k):
                bounds = _blocks(gen, r, split)
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    reducer.fold(
                        int(si), [stack[lo:hi, si].copy() for stack in stacks]
                    )
                reducer.close(int(si))
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
    reducer.fold(1, [row[:2] for row in good])
    with pytest.raises(EstimationError, match="rung 1 closed with 2 of 3"):
        reducer.close(1)
    with pytest.raises(EstimationError, match="rung 1 block is not"):
        reducer.fold(1, [good[0][:1], *good[1:]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("split", ["serial", "workers=2"])
def test_cross_sample_truth_is_silent_on_opposite_infinities(split):
    """A last-rung column holding both ``+inf`` and ``-inf`` averages to a
    NaN pseudo-truth without a RuntimeWarning, whether the replicates
    arrive one at a time (the serial sweep) or as two shards."""
    gen = np.random.default_rng(8)
    r, c = 6, 3
    sizes = np.array([5, 10])
    truth = _truth(gen, c, palette=False)
    size_stacks = {kind: _stack(gen, (r, 2, c), 0.3) for kind in KINDS}
    weight_stacks = {kind: _stack(gen, (r, 2, c, c), 0.3) for kind in KINDS}
    for stack in (*size_stacks.values(), *weight_stacks.values()):
        stack[:, -1, 0] = _PALETTE[-2:].repeat(r // 2).reshape(
            (r,) + (1,) * (stack.ndim - 3)
        )
    with np.errstate(all="ignore"):
        expected = reference_reduce_stacks(
            sizes, size_stacks, weight_stacks, truth, "cross-sample"
        )
    stacks = (
        size_stacks["induced"],
        size_stacks["star"],
        weight_stacks["induced"],
        weight_stacks["star"],
    )
    bounds = list(range(r + 1)) if split == "serial" else [0, r // 2, r]
    reducer = RungReducer(sizes, truth, "cross-sample", r)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for si in range(len(sizes)):
            reducer.fold(si, [stack[lo:hi, si].copy() for stack in stacks])
    for si in range(len(sizes)):
        reducer.close(si)
    result = reducer.result()
    _assert_same_result(result, expected)
    assert np.isnan(result.size_nrmse["star"][:, 0]).all()
