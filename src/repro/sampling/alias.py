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

__all__ = [
    "AliasTables",
    "build_alias_planes",
    "build_alias_tables",
    "derived_alias_tables",
]


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


def build_alias_planes(
    writer,
    indptr: np.ndarray,
    arc_weights: np.ndarray,
    strengths: np.ndarray | None = None,
    chunk_arcs: int | None = None,
) -> None:
    """Chunked out-of-core twin of :func:`build_alias_tables`.

    Vose construction is per-run independent — every queue, pairing,
    and float update touches only one adjacency run's slots — so
    building one node block of whole runs at a time (the sub-CSR
    ``indptr[first:stop+1] - lo``) performs the identical arithmetic,
    and rebasing the block's alias ids by its arc offset recovers the
    global ids bit for bit, in O(chunk) peak RAM.
    """
    from repro.graph.planes import DEFAULT_CHUNK_ARCS, node_blocks

    if chunk_arcs is None:
        chunk_arcs = DEFAULT_CHUNK_ARCS
    indptr = np.asanyarray(indptr)
    num_arcs = int(indptr[-1])
    prob = writer.create("prob", np.float64, (num_arcs,))
    alias = writer.create("alias", np.int64, (num_arcs,))
    for first, stop, lo, hi in node_blocks(indptr, chunk_arcs):
        sub_indptr = np.asarray(indptr[first : stop + 1]) - lo
        sub_strengths = (
            np.asarray(strengths[first:stop]) if strengths is not None else None
        )
        tables = build_alias_tables(
            sub_indptr, np.asarray(arc_weights[lo:hi]), sub_strengths
        )
        prob[lo:hi] = tables.prob
        alias[lo:hi] = tables.alias + lo


def derived_alias_tables(
    indptr: np.ndarray,
    arc_weights: np.ndarray,
    strengths: np.ndarray | None = None,
) -> AliasTables:
    """Alias tables via the derived-plane store of :mod:`repro.graph.planes`.

    The drop-in spill-aware form of :func:`build_alias_tables`: RAM-mode
    runs build in RAM like always, while under the memmap storage plane
    the ``prob``/``alias`` planes build chunked on disk, reopen as
    read-only mappings, and warm runs (same ``indptr`` / weights /
    strengths bytes) skip construction entirely.
    """
    indptr = np.asanyarray(indptr)
    weights = np.asanyarray(arc_weights)
    if weights.ndim != 1 or len(weights) != int(indptr[-1]):
        raise SamplingError(
            "arc_weights must be one-dimensional and aligned with indptr "
            f"(expected length {int(indptr[-1])}, got {weights.shape})"
        )
    store_sources: tuple = (indptr, weights)
    if strengths is not None:
        store_sources = store_sources + (np.asanyarray(strengths),)
    from repro.graph.planes import plane_store_for

    store = plane_store_for(*store_sources, nbytes=len(weights) * 16)
    if store is None:
        return build_alias_tables(indptr, arc_weights, strengths)
    planes = store.get_or_build(
        "alias-tables",
        params={"strengths": strengths is not None},
        sources=store_sources,
        build=lambda writer: build_alias_planes(
            writer, indptr, arc_weights, strengths
        ),
    )
    return AliasTables(prob=planes["prob"], alias=planes["alias"])
