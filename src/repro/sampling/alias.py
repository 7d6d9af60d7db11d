"""Walker alias tables for O(1) weighted next-hop sampling.

The weighted walks (WRW and its S-WRW subclass) pick the next hop by
inverse-CDF lookup over per-run local cumulative sums — one keyed
``np.searchsorted`` per frontier step in the batched S-WRW kernel,
O(log E) comparisons per walker. An alias table
[Walker 1977; Vose 1991] answers the same categorical draw in O(1):
split each neighbor run into ``d`` equal-probability buckets, each
holding at most two outcomes (the bucket's own arc and one *alias*
arc), then a single uniform variate selects a bucket and which of the
two outcomes to take.

Tables are CSR-aligned: one table per adjacency run, flattened into two
arrays the length of ``indices``. For arc slot ``a = indptr[v] + j``:

* ``prob[a]`` — probability of keeping arc ``a`` itself given bucket
  ``j`` was hit;
* ``alias[a]`` — the **global arc id** taken otherwise (so the next-hop
  gather is ``indices[alias[a]]``, no per-run re-indexing).

A draw for node ``v`` with degree ``d`` consumes one uniform ``r``:

>>> u = r * d; j = floor(u); a = indptr[v] + j
>>> hop = indices[a] if (u - j) < prob[a] else indices[alias[a]]

— the same single variate per step the inverse-CDF search consumes, which
keeps the RNG stream consumption pattern of the walk unchanged.

Equivalence contract
--------------------
Alias draws map the uniform variate to neighbors *differently* than the
inverse-CDF search, so trajectories differ draw-by-draw; the contract
is **statistical**, not bitwise: for every node the alias table encodes
exactly the probabilities ``w_j / strength(v)`` (up to float rounding in
table construction), so the next-hop *distribution* is the inverse-CDF
search's. ``tests/sampling/test_equivalence.py`` enforces this with an
exact per-run probability reconstruction plus a chi-square test on
sampled next-hop frequencies. The batched alias kernel, in turn, is
bit-for-bit identical to the sequential alias walk per RNG stream —
the usual kernel contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SamplingError

__all__ = ["AliasTables", "build_alias_tables"]


@dataclass(frozen=True)
class AliasTables:
    """CSR-aligned alias tables, one per adjacency run.

    Attributes
    ----------
    prob:
        Keep-probability per arc slot, shape of ``indices``.
    alias:
        Global arc id of each slot's alias outcome, same shape. Slots
        that never divert (probability-1 buckets) alias to themselves.
    """

    prob: np.ndarray
    alias: np.ndarray

    def reconstructed_probabilities(self, indptr: np.ndarray) -> np.ndarray:
        """Per-arc selection probabilities implied by the tables.

        For run ``v`` of degree ``d``, bucket ``j`` is hit with
        probability ``1/d`` and contributes ``prob`` to its own arc and
        ``1 - prob`` to its alias arc. Summing the contributions
        recovers the encoded categorical distribution — used by the
        equivalence tests to check the tables against
        ``w_j / strength(v)`` exactly.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        degrees = np.diff(indptr)
        inv_deg = np.zeros(len(degrees))
        nonzero = degrees > 0
        inv_deg[nonzero] = 1.0 / degrees[nonzero]
        per_bucket = np.repeat(inv_deg, degrees)
        out = per_bucket * self.prob
        np.add.at(out, self.alias, per_bucket * (1.0 - self.prob))
        return out


def build_alias_tables(
    indptr: np.ndarray,
    arc_weights: np.ndarray,
    strengths: np.ndarray | None = None,
) -> AliasTables:
    """Build per-run Walker alias tables for CSR-aligned arc weights.

    Parameters
    ----------
    indptr:
        CSR offsets delimiting the runs, shape ``(N + 1,)``.
    arc_weights:
        Strictly positive weight per arc, aligned with the CSR
        ``indices`` (length ``indptr[-1]``).
    strengths:
        Optional per-run totals to normalize by — pass the walk's
        precomputed strengths (the last entry of each run's local
        cumulative sum) so the alias probabilities use the *same*
        normalizer as the inverse-CDF search path. Recomputed per run when
        omitted.

    Construction is a vectorized Vose pass: instead of a Python
    two-stack loop per run (O(arcs) interpreter iterations — the old
    bottleneck at paper scale), all runs advance their small/large
    queues *simultaneously*. Each round pairs, for every still-active
    run, the head of its under-full queue with the head of its
    over-full queue in a handful of fancy-indexed NumPy ops; a run goes
    inactive once either queue drains. Total element-work stays O(total
    arcs), spread over at most ``max_degree`` rounds, and every pairing
    performs the identical float arithmetic the scalar algorithm would
    — so the tables encode the exact ``w_j / strength(v)``
    probabilities either way (queue *order* differs from the historic
    stack order, which is irrelevant to the encoded distribution).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    weights = np.asarray(arc_weights, dtype=float)
    if weights.ndim != 1 or len(weights) != int(indptr[-1]):
        raise SamplingError(
            "arc_weights must be one-dimensional and aligned with indptr "
            f"(expected length {int(indptr[-1])}, got {weights.shape})"
        )
    if len(weights) and weights.min() <= 0:
        raise SamplingError("alias tables require strictly positive weights")
    num_arcs = len(weights)
    num_runs = len(indptr) - 1
    prob = np.ones(num_arcs)
    alias = np.arange(num_arcs, dtype=np.int64)
    degrees = np.diff(indptr)
    multi = degrees > 1  # degree<=1 runs keep the prob=1 self-alias default
    if not bool(multi.any()):
        return AliasTables(prob=prob, alias=alias)
    run_ids = np.repeat(np.arange(num_runs, dtype=np.int64), degrees)
    if strengths is not None:
        totals = np.asarray(strengths, dtype=float)
    else:
        totals = np.bincount(run_ids, weights=weights, minlength=num_runs)
    bad = multi & ~(totals > 0)
    if bool(bad.any()):
        raise SamplingError(
            f"run {int(np.argmax(bad))} has non-positive total weight"
        )
    # Bucket loads d * w_j / total, computed per arc in one pass.
    scale = np.zeros(num_runs)
    scale[multi] = degrees[multi] / totals[multi]
    scaled = weights * scale[run_ids]

    # Per-run FIFO queues laid out in the arc-slot space: run v's queue
    # segment is [indptr[v], indptr[v+1]) — capacity d suffices because
    # an arc enters the small queue at most once (initially, or when its
    # over-full bucket is demoted after a pairing).
    small_q = np.empty(num_arcs, dtype=np.int64)
    large_q = np.empty(num_arcs, dtype=np.int64)
    small_head = indptr[:-1].copy()
    small_tail = indptr[:-1].copy()
    large_head = indptr[:-1].copy()
    large_tail = indptr[:-1].copy()
    eligible = multi[run_ids]
    is_small = eligible & (scaled < 1.0)
    is_large = eligible & (scaled >= 1.0)
    for queue, tail, members in (
        (small_q, small_tail, is_small),
        (large_q, large_tail, is_large),
    ):
        slots = np.flatnonzero(members)
        counts = np.bincount(run_ids[slots], minlength=num_runs)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rank = np.arange(len(slots)) - offsets[run_ids[slots]]
        queue[indptr[run_ids[slots]] + rank] = slots
        tail += counts

    active = np.flatnonzero((small_head < small_tail) & (large_head < large_tail))
    while len(active):
        small = small_q[small_head[active]]
        large = large_q[large_head[active]]
        prob[small] = scaled[small]
        alias[small] = large
        scaled[large] -= 1.0 - scaled[small]
        small_head[active] += 1
        demoted = scaled[large] < 1.0
        if bool(demoted.any()):
            runs = active[demoted]
            small_q[small_tail[runs]] = large[demoted]
            small_tail[runs] += 1
            large_head[runs] += 1
        active = active[
            (small_head[active] < small_tail[active])
            & (large_head[active] < large_tail[active])
        ]
    # Leftover queue entries (either side, by float rounding) keep their
    # initialized probability-1 self-alias.
    return AliasTables(prob=prob, alias=alias)
