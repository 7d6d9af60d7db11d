"""Incremental prefix sweeps over one replicate sample.

The NRMSE-vs-sample-size ladder evaluates every estimator on each prefix
of each replicate crawl (a crawl's prefix *is* a shorter crawl). Doing
that with :meth:`~repro.sampling.observation._ObservationBase.subset_draws`
re-compresses the draw list from scratch at every rung — an
O(K x total log total) re-subsetting pass per replicate, plus a fresh
estimation pass over rebuilt arrays. This module replaces it with
running prefix state:

* the full-length star and induced observations are built **once**
  by ``observe_both``, as row gathers over the graph's and partition's
  observation planes;
* per rung, only the *new* draws update an integer multiplicity vector
  (an O(delta) delta update);
* every estimator reduction then runs over **fixed, precomputed** key
  arrays (category keys of the neighbor histogram entries and of both
  induced-edge directions) with per-rung weights derived from the
  multiplicity state — plain ``np.bincount`` histograms, no draw-list
  sort, no remapping, no re-gathered CSR slices.

Equivalence contract
--------------------
Rows outside the prefix have multiplicity 0, hence reweighting ratio
``m/w`` exactly ``0.0``; IEEE-754 addition of ``0.0`` to a non-negative
partial sum is an exact no-op, so a histogram over the *full* key arrays
with zero-weighted excluded entries accumulates the **bit-identical**
floating-point values, in the same order, as the subset path that first
compresses the prefix and then reduces. Consequently:

* :meth:`IncrementalPrefixLadder.estimates` returns estimates
  bit-for-bit equal to running the four estimator families of
  :mod:`repro.core` on ``subset_draws(np.arange(size))`` observations;
* :meth:`IncrementalPrefixLadder.advance` materializes observation
  objects whose every field is bit-for-bit identical to the
  ``subset_draws`` output (same distinct-row order, multiplicities,
  sliced neighbor CSR and induced-edge arrays).

``tests/stats/test_prefix.py`` enforces both properties; the mirrored
estimator formulas below must stay in lockstep with
:mod:`repro.core.category_size` and :mod:`repro.core.edge_weight`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import EstimationError
from repro.graph.adjacency import Graph, gather_runs
from repro.graph.partition import CategoryPartition
from repro.sampling.base import NodeSample
from repro.sampling.observation import (
    InducedObservation,
    StarObservation,
    observe_both,
)

__all__ = ["IncrementalPrefixLadder", "RungEstimates"]


@dataclass(frozen=True)
class RungEstimates:
    """All four estimator families evaluated at one ladder rung.

    ``weights_star`` is deferred behind a callable because Eq. (9)/(16)
    needs plug-in category sizes, which the sweep harness resolves from
    the rung's own size estimates (or the oracle).
    """

    sizes_induced: np.ndarray
    sizes_star: np.ndarray
    weights_induced: np.ndarray
    weights_star: Callable[[np.ndarray], np.ndarray]


class IncrementalPrefixLadder:
    """Prefix estimates of one sample, via incremental aggregates.

    Call :meth:`estimates` (or :meth:`advance`) with strictly increasing
    prefix sizes; each call folds only the draws since the previous rung
    into the running multiplicity state. Use one instance per sweep —
    both entry points share (and advance) the same prefix state.
    """

    def __init__(
        self,
        graph: Graph,
        partition: CategoryPartition,
        sample: NodeSample,
        observations: "tuple[InducedObservation, StarObservation] | None" = None,
    ):
        if observations is None:
            self._induced, self._star = observe_both(graph, partition, sample)
        else:
            # Checkpoint-restored observations (repro.runtime): arrays
            # round-trip exactly through npz, so a ladder seeded from
            # disk is field-for-field the ladder observe_both builds.
            self._induced, self._star = observations
        star = self._star
        self._num_draws = star.num_draws
        self._multiplicities = np.zeros(star.num_distinct, dtype=np.int64)
        self._prefix = 0
        c = star.num_categories
        # Fixed per-sample reduction keys; per rung only their weights
        # change (zero for rows outside the prefix).
        self._weights = star.distinct_weights
        self._categories = star.distinct_categories
        self._degrees = star.distinct_degrees.astype(float)
        lengths = np.diff(star.neighbor_indptr)
        self._nbr_owner = np.repeat(
            np.arange(star.num_distinct, dtype=np.int64), lengths
        )
        self._nbr_keys = (
            np.repeat(star.distinct_categories, lengths) * np.int64(c)
            + star.neighbor_categories
        )
        self._nbr_counts = star.neighbor_counts.astype(float)
        edges = self._induced.induced_edges
        self._edge_src = np.ascontiguousarray(edges[:, 0])
        self._edge_dst = np.ascontiguousarray(edges[:, 1])
        cats_i = self._categories[self._edge_src]
        cats_j = self._categories[self._edge_dst]
        self._edge_keys = np.concatenate(
            (cats_i * np.int64(c) + cats_j, cats_j * np.int64(c) + cats_i)
        )
        # Per-rung scratch (reused to avoid re-allocating the two
        # largest temporaries every rung).
        self._edge_scratch = np.empty(2 * len(self._edge_src))
        self._nbr_scratch = np.empty(len(self._nbr_owner))

    @property
    def num_draws(self) -> int:
        """Full sample length (the largest valid prefix)."""
        return self._num_draws

    @property
    def observations(self) -> tuple[InducedObservation, StarObservation]:
        """The full-sample ``(induced, star)`` pair behind the ladder.

        The parallel executor serializes these into its checkpoint so a
        resumed run can seed new ladders without re-measuring.
        """
        return self._induced, self._star

    def fold(self, size: int) -> None:
        """Advance the prefix state to ``size`` without estimating.

        The resume path of the parallel executor
        (:mod:`repro.runtime`): rungs already persisted in a checkpoint
        are replayed from disk, and each worker only *folds* its
        replicates past them. Folding is pure integer multiplicity
        accumulation — order-free and exact — so the estimates of every
        later rung are bit-identical whether the earlier rungs were
        computed or skipped.
        """
        self._fold(size)

    def _fold(self, size: int) -> None:
        """Fold draws ``[prefix, size)`` into the multiplicity state."""
        if size <= self._prefix:
            raise EstimationError(
                f"prefix sizes must increase, got {size} after {self._prefix}"
            )
        if size > self._num_draws:
            raise EstimationError(
                f"prefix size {size} outside (0, {self._num_draws}]"
            )
        np.add.at(
            self._multiplicities,
            self._star.draw_to_distinct[self._prefix : size],
            1,
        )
        self._prefix = size

    # ------------------------------------------------------------------
    # Fast path: estimates straight from the running aggregates
    # ------------------------------------------------------------------
    def estimates(
        self,
        size: int,
        population_size: float,
        mean_degree_model: str = "per-category",
    ) -> RungEstimates:
        """Estimator-family outputs for the first ``size`` draws.

        Bit-for-bit equal to evaluating :mod:`repro.core` estimators on
        ``subset_draws``-restricted observations (see module docstring).
        """
        if mean_degree_model not in ("per-category", "global"):
            raise EstimationError(
                f"unknown mean_degree_model {mean_degree_model!r}; "
                "use 'per-category' or 'global'"
            )
        self._fold(size)
        star = self._star
        c = star.num_categories
        # Reweighting ratios m(v)/w(v); exactly 0.0 outside the prefix.
        ratios = self._multiplicities / self._weights
        in_prefix = self._multiplicities > 0
        # Early rungs touch few distinct rows; pick per-reduction between
        # compressed (live entries only) and full passes. Either path
        # accumulates bit-identical sums (excluded entries add exact 0.0).
        sparse_rung = 3 * int(np.count_nonzero(in_prefix)) < len(in_prefix)

        # Eq. (4)/(11) — mirrors estimate_sizes_induced.
        reweighted = np.bincount(
            self._categories, weights=ratios, minlength=c
        )
        total_reweighted = reweighted.sum()
        if total_reweighted <= 0:
            raise EstimationError("sample has no usable draws")
        sizes_induced = population_size * reweighted / total_reweighted

        # Eq. (5)/(12) — mirrors estimate_sizes_star.
        degree_totals = np.bincount(
            self._categories, weights=ratios * self._degrees, minlength=c
        )
        total_degree = degree_totals.sum()
        if total_degree <= 0:
            sizes_star = np.full(c, np.nan)
            neighbor_matrix = np.zeros((c, c))
        else:
            k_global = total_degree / total_reweighted
            with np.errstate(invalid="ignore", divide="ignore"):
                k_per_category = np.where(
                    reweighted > 0, degree_totals / reweighted, np.nan
                )
            if sparse_rung:
                # Early rungs: reduce only the live histogram entries.
                idx = np.flatnonzero(in_prefix[self._nbr_owner])
                neighbor_matrix = np.bincount(
                    self._nbr_keys[idx],
                    weights=ratios[self._nbr_owner[idx]] * self._nbr_counts[idx],
                    minlength=c * c,
                ).reshape(c, c)
            else:
                np.take(ratios, self._nbr_owner, out=self._nbr_scratch)
                np.multiply(
                    self._nbr_scratch, self._nbr_counts, out=self._nbr_scratch
                )
                neighbor_matrix = np.bincount(
                    self._nbr_keys, weights=self._nbr_scratch, minlength=c * c
                ).reshape(c, c)
            f_vol = neighbor_matrix.sum(axis=0) / total_degree
            k_a = (
                k_per_category
                if mean_degree_model == "per-category"
                else np.full(c, k_global)
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                sizes_star = population_size * f_vol * k_global / k_a

        # Eq. (8)/(15) — mirrors estimate_weights_induced.
        num_edges = len(self._edge_src)
        if num_edges:
            if sparse_rung:
                # Early rungs: most edges have an unsampled endpoint and
                # contribute exactly 0.0 — reduce only the live ones.
                idx = np.flatnonzero(
                    in_prefix[self._edge_src] & in_prefix[self._edge_dst]
                )
                contributions = (
                    ratios[self._edge_src[idx]] * ratios[self._edge_dst[idx]]
                )
                numerator = np.bincount(
                    np.concatenate(
                        (self._edge_keys[idx], self._edge_keys[num_edges + idx])
                    ),
                    weights=np.concatenate((contributions, contributions)),
                    minlength=c * c,
                ).reshape(c, c)
            else:
                scratch = self._edge_scratch
                np.multiply(
                    ratios[self._edge_src], ratios[self._edge_dst],
                    out=scratch[:num_edges],
                )
                scratch[num_edges:] = scratch[:num_edges]
                numerator = np.bincount(
                    self._edge_keys, weights=scratch, minlength=c * c
                ).reshape(c, c)
        else:
            numerator = np.zeros((c, c))
        denominator = np.outer(reweighted, reweighted)
        with np.errstate(invalid="ignore", divide="ignore"):
            weights_induced = np.where(
                denominator > 0, numerator / denominator, np.nan
            )
        np.fill_diagonal(weights_induced, np.nan)

        # Eq. (9)/(16) — mirrors estimate_weights_star; deferred plug-in.
        def weights_star(category_sizes: np.ndarray) -> np.ndarray:
            category_sizes = np.asarray(category_sizes, dtype=float)
            if category_sizes.shape != (c,):
                raise EstimationError(
                    f"category_sizes must have shape ({c},), "
                    f"got {category_sizes.shape}"
                )
            star_numerator = neighbor_matrix + neighbor_matrix.T
            star_denominator = np.outer(reweighted, category_sizes) + np.outer(
                category_sizes, reweighted
            )
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.where(
                    star_denominator > 0, star_numerator / star_denominator, np.nan
                )
            np.fill_diagonal(out, np.nan)
            return out

        return RungEstimates(
            sizes_induced=sizes_induced,
            sizes_star=sizes_star,
            weights_induced=weights_induced,
            weights_star=weights_star,
        )

    # ------------------------------------------------------------------
    # Observation twins (API parity with subset_draws; used by tests)
    # ------------------------------------------------------------------
    def advance(self, size: int) -> tuple[InducedObservation, StarObservation]:
        """Materialize prefix observations for the first ``size`` draws.

        Field-for-field identical to
        ``observe_*(...).subset_draws(np.arange(size))``. Slower than
        :meth:`estimates` (it rebuilds the sliced CSR arrays); intended
        for consumers that need observation *objects*.
        """
        self._fold(size)
        kept = np.flatnonzero(self._multiplicities > 0)
        remap = np.full(self._star.num_distinct, -1, dtype=np.int64)
        remap[kept] = np.arange(len(kept))
        base = {
            "names": self._star.names,
            "num_draws": size,
            "draw_to_distinct": remap[self._star.draw_to_distinct[:size]],
            "distinct_nodes": self._star.distinct_nodes[kept],
            "distinct_categories": self._star.distinct_categories[kept],
            "distinct_multiplicities": self._multiplicities[kept].copy(),
            "distinct_weights": self._star.distinct_weights[kept],
            "uniform": self._star.uniform,
            "design": self._star.design,
        }
        return (
            self._induced_prefix(remap, base),
            self._star_prefix(kept, base),
        )

    def _induced_prefix(
        self, remap: np.ndarray, base: dict
    ) -> InducedObservation:
        in_prefix = self._multiplicities > 0
        mask = in_prefix[self._edge_src] & in_prefix[self._edge_dst]
        new_edges = np.column_stack(
            (remap[self._edge_src[mask]], remap[self._edge_dst[mask]])
        )
        return InducedObservation(induced_edges=new_edges, **base)

    def _star_prefix(self, kept: np.ndarray, base: dict) -> StarObservation:
        star = self._star
        new_indptr, entries = gather_runs(star.neighbor_indptr, kept)
        return StarObservation(
            distinct_degrees=star.distinct_degrees[kept],
            neighbor_indptr=new_indptr,
            neighbor_categories=star.neighbor_categories[entries],
            neighbor_counts=star.neighbor_counts[entries],
            **base,
        )
