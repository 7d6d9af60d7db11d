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
* the reweighted sums behind Eqs. (4)-(16) then reduce over **fixed,
  precomputed** key arrays (category keys of the neighbor histogram
  entries and of both induced-edge directions) with per-rung weights
  derived from the multiplicity state — plain ``np.bincount``
  histograms, no draw-list sort, no remapping, no re-gathered CSR
  slices.

The estimator formulas themselves are not written here: the sums go to
the same functions the public estimators call
(:func:`repro.core.category_size.induced_sizes` and
:func:`~repro.core.category_size.star_sizes`,
:func:`repro.core.edge_weight.induced_weights` and
:func:`~repro.core.edge_weight.star_weights`).

Equivalence contract
--------------------
Rows outside the prefix have multiplicity 0, hence reweighting ratio
``m/w`` exactly ``0.0``; IEEE-754 addition of ``0.0`` to a non-negative
partial sum is an exact no-op, so a histogram over the *full* key arrays
with zero-weighted excluded entries accumulates the **bit-identical**
floating-point values, in the same order, as the subset path that first
compresses the prefix and then reduces. Consequently
:meth:`IncrementalPrefixLadder.estimates` returns estimates bit-for-bit
equal to running the :mod:`repro.core` estimators on
``subset_draws(np.arange(size))`` observations.

The induced numerator is counted by
:func:`repro.core.edge_weight.induced_numerator`, which the public
induced estimator calls too: ``np.bincount`` over one direction of the
edges, then ``np.add.at`` over the other, in the same order as one
in-order ``np.bincount`` over the doubled list.
``tests/stats/test_prefix.py`` checks all of this against the frozen
seed estimators of ``tests/oracles.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.category_size import (
    check_mean_degree_model,
    induced_sizes,
    star_sizes,
)
from repro.core.edge_weight import (
    induced_numerator,
    induced_weights,
    star_weights,
)
from repro.exceptions import EstimationError
from repro.graph.adjacency import Graph
from repro.graph.partition import CategoryPartition
from repro.sampling.base import NodeSample
from repro.sampling.observation import observe_both

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

    Call :meth:`estimates` with strictly increasing prefix sizes; each
    call folds only the draws since the previous rung into the running
    multiplicity state. Use one instance per replicate sweep.
    """

    def __init__(
        self,
        graph: Graph,
        partition: CategoryPartition,
        sample: NodeSample,
    ):
        self._induced, self._star = observe_both(graph, partition, sample)
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
        # Views of the column-major induced_edges, not copies.
        edges = self._induced.induced_edges
        self._edge_src, self._edge_dst = edges[:, 0], edges[:, 1]
        cats_i = self._categories[self._edge_src]
        cats_j = self._categories[self._edge_dst]
        self._edge_keys = np.stack(
            (cats_i * np.int64(c) + cats_j, cats_j * np.int64(c) + cats_i)
        )
        # Per-rung scratch (reused to avoid re-allocating the two
        # largest temporaries every rung).
        self._edge_scratch = np.empty(len(self._edge_src))
        self._nbr_scratch = np.empty(len(self._nbr_owner))

    @property
    def num_draws(self) -> int:
        """Full sample length (the largest valid prefix)."""
        return self._num_draws

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
        check_mean_degree_model(mean_degree_model)
        self._fold(size)
        c = self._star.num_categories
        # Reweighting ratios m(v)/w(v); exactly 0.0 outside the prefix.
        ratios = self._multiplicities / self._weights
        in_prefix = self._multiplicities > 0
        # Early rungs touch few distinct rows; pick between compressed
        # (live entries only) and full passes. Either path accumulates
        # bit-identical sums (excluded entries add exact 0.0).
        sparse_rung = 3 * int(np.count_nonzero(in_prefix)) < len(in_prefix)

        reweighted = np.bincount(
            self._categories, weights=ratios, minlength=c
        )
        degree_totals = np.bincount(
            self._categories, weights=ratios * self._degrees, minlength=c
        )
        if sparse_rung:
            # Early rungs: reduce only the live histogram entries and the
            # edges with both endpoints sampled (the rest add exact 0.0).
            idx = np.flatnonzero(in_prefix[self._nbr_owner])
            neighbor_matrix = np.bincount(
                self._nbr_keys[idx],
                weights=ratios[self._nbr_owner[idx]] * self._nbr_counts[idx],
                minlength=c * c,
            ).reshape(c, c)
            idx = np.flatnonzero(
                in_prefix[self._edge_src] & in_prefix[self._edge_dst]
            )
            contributions = (
                ratios[self._edge_src[idx]] * ratios[self._edge_dst[idx]]
            )
            forward, backward = self._edge_keys[:, idx]
        else:
            np.take(ratios, self._nbr_owner, out=self._nbr_scratch)
            np.multiply(
                self._nbr_scratch, self._nbr_counts, out=self._nbr_scratch
            )
            neighbor_matrix = np.bincount(
                self._nbr_keys, weights=self._nbr_scratch, minlength=c * c
            ).reshape(c, c)
            contributions = self._edge_scratch
            np.multiply(
                ratios[self._edge_src], ratios[self._edge_dst], out=contributions
            )
            forward, backward = self._edge_keys
        numerator = induced_numerator(forward, backward, contributions, c)

        return RungEstimates(
            sizes_induced=induced_sizes(reweighted, population_size),
            sizes_star=star_sizes(
                reweighted, degree_totals, neighbor_matrix, population_size,
                mean_degree_model,
            ),
            weights_induced=induced_weights(numerator, reweighted),
            weights_star=partial(star_weights, neighbor_matrix, reweighted),
        )
