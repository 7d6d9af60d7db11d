"""Edge-weight estimators ``w(A, B)`` (Sections 4.2 and 5.3 of the paper).

The target is Eq. (3): the fraction of realised edges in the maximal
possible cut between two categories. Both estimators divide *observed*
edges by the *maximal number observable*:

* **Induced** — Eq. (8) uniform, Eq. (15) weighted: edges among the
  sampled members of ``A`` and ``B``, out of ``|S_A| * |S_B|``
  (reweighted in the WIS case).

* **Star** — Eq. (9) uniform, Eq. (16) weighted: *all* edges from the
  sampled members of either category toward the other (neighbors need
  not be sampled), out of ``|S_A| * |B| + |S_B| * |A|`` — which requires
  category-size estimates (or truth) as a plug-in. This is the paper's
  headline win: 5-10x fewer samples than induced for equal accuracy.

Both return full symmetric ``(C, C)`` matrices with ``nan`` diagonals.
As an extension (not in the paper, which excludes self-loops), the
intra-category edge *density* is available via
:func:`estimate_intra_density`.

As for sizes, each equation is written once, as a function of its sums
(:func:`induced_weights`, :func:`star_weights`), shared by the public
estimators and the sweep ladder (:mod:`repro.stats.prefix`); both also
count the induced numerator with one helper (:func:`induced_numerator`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EstimationError
from repro.sampling.observation import InducedObservation, StarObservation

__all__ = [
    "estimate_weights_induced",
    "estimate_weights_star",
    "estimate_intra_density",
    "induced_numerator",
    "induced_weights",
    "star_weights",
]


def estimate_weights_induced(observation: InducedObservation) -> np.ndarray:
    """Eq. (8)/(15): induced-subgraph edge-weight estimates.

    Under a uniform design the weights are 1 and the weighted formula
    reduces exactly to Eq. (8). Pairs of categories with no draws in
    either side get ``nan``.
    """
    if not isinstance(observation, InducedObservation):
        raise EstimationError(
            "estimate_weights_induced requires an InducedObservation; "
            "star observations carry more information — use "
            "estimate_weights_star"
        )
    c = observation.num_categories
    edges = observation.induced_edges
    cats_i = observation.distinct_categories[edges[:, 0]]
    cats_j = observation.distinct_categories[edges[:, 1]]
    ratios = (
        observation.distinct_multiplicities / observation.distinct_weights
    )
    numerator = induced_numerator(
        cats_i * np.int64(c) + cats_j,
        cats_j * np.int64(c) + cats_i,
        ratios[edges[:, 0]] * ratios[edges[:, 1]],
        c,
    )
    return induced_weights(numerator, observation.reweighted_sizes())


def estimate_weights_star(
    observation: StarObservation, category_sizes: np.ndarray
) -> np.ndarray:
    """Eq. (9)/(16): star edge-weight estimates.

    Parameters
    ----------
    observation:
        A star observation.
    category_sizes:
        Plug-in ``|A|`` values, shape ``(C,)`` — true sizes or estimates
        from either size estimator (the paper recommends whichever has
        the smaller variance for the application; Section 5.3.2).

    Notes
    -----
    The numerator for the pair (A, B) is
    ``sum_{a in S_A} |E_{a,B}| / w(a) + sum_{b in S_B} |E_{b,A}| / w(b)``
    and the denominator ``w^{-1}(S_A) |B| + w^{-1}(S_B) |A|``; with unit
    weights this is literally Eq. (9).
    """
    if not isinstance(observation, StarObservation):
        raise EstimationError(
            "estimate_weights_star requires a StarObservation; induced "
            "measurements lack neighbor categories — use "
            "estimate_weights_induced"
        )
    return star_weights(
        observation.neighbor_category_matrix(weighted=True),
        observation.reweighted_sizes(),
        category_sizes,
    )


def induced_numerator(
    forward: np.ndarray,
    backward: np.ndarray,
    contributions: np.ndarray,
    categories: int,
) -> np.ndarray:
    """The ``(C, C)`` reweighted induced-edge counts of Eq. (8)/(15).

    ``forward[e] = A * C + B`` and ``backward[e] = B * C + A`` key both
    directions of induced edge ``e`` between categories ``A`` and ``B``,
    and ``contributions[e]`` is the product of its endpoints'
    ``m(v) / w(v)``. The count runs ``np.bincount`` over the forward
    keys, then ``np.add.at`` over the backward ones: ``ufunc.at`` is
    unbuffered and applies its updates in index order, so each bin adds
    the same values in the same sequence as one in-order
    ``np.bincount`` over the doubled edge list, without building it.
    """
    numerator = np.bincount(
        forward, weights=contributions, minlength=categories * categories
    )
    np.add.at(numerator, backward, contributions)
    return numerator.reshape(categories, categories)


def induced_weights(numerator: np.ndarray, reweighted: np.ndarray) -> np.ndarray:
    """Eq. (8)/(15) from the reweighted induced-edge counts between
    ``A`` and ``B`` and ``reweighted[A] = w^{-1}(S_A)``."""
    denominator = np.outer(reweighted, reweighted)
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(denominator > 0, numerator / denominator, np.nan)
    np.fill_diagonal(weights, np.nan)
    return weights


def star_weights(
    neighbor_matrix: np.ndarray,
    reweighted: np.ndarray,
    category_sizes: np.ndarray,
) -> np.ndarray:
    """Eq. (9)/(16) from the reweighted edge counts from ``A`` toward
    ``B``, ``w^{-1}(S_A)`` and the plug-in ``|A|`` values."""
    c = len(reweighted)
    category_sizes = np.asarray(category_sizes, dtype=float)
    if category_sizes.shape != (c,):
        raise EstimationError(
            f"category_sizes must have shape ({c},), got {category_sizes.shape}"
        )
    numerator = neighbor_matrix + neighbor_matrix.T
    denominator = np.outer(reweighted, category_sizes) + np.outer(
        category_sizes, reweighted
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = np.where(denominator > 0, numerator / denominator, np.nan)
    np.fill_diagonal(weights, np.nan)
    return weights


def estimate_intra_density(observation: InducedObservation) -> np.ndarray:
    """Extension: intra-category edge density per category.

    Estimates ``|E_{A,A}| / (|A| choose 2)`` — the within-category
    analogue of Eq. (3), which the paper's category graph deliberately
    excludes (no self-loops). Useful for block-model style analyses.
    Ordered draw pairs of the same category are the denominator
    (``w^{-1}(S_A)^2``, matching the cross-pair convention), with the
    numerator doubled since each intra edge realises two ordered pairs.
    """
    if not isinstance(observation, InducedObservation):
        raise EstimationError("estimate_intra_density requires an InducedObservation")
    c = observation.num_categories
    numerator = np.zeros(c)
    edges = observation.induced_edges
    if len(edges):
        cats_i = observation.distinct_categories[edges[:, 0]]
        cats_j = observation.distinct_categories[edges[:, 1]]
        intra = cats_i == cats_j
        contributions = (
            observation.distinct_multiplicities[edges[intra, 0]]
            / observation.distinct_weights[edges[intra, 0]]
        ) * (
            observation.distinct_multiplicities[edges[intra, 1]]
            / observation.distinct_weights[edges[intra, 1]]
        )
        np.add.at(numerator, cats_i[intra], 2.0 * contributions)
    reweighted = observation.reweighted_sizes()
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(reweighted > 0, numerator / reweighted**2, np.nan)
