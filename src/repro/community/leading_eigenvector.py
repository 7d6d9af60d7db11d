"""Newman's leading-eigenvector community detection [47 in the paper].

Section 6.3.1 of the paper builds its "worst-case" categories from "a
standard community finding algorithm based on eigenvalues [47] to
identify the 50 largest communities". This module implements that
algorithm from scratch:

* each candidate group is extracted once as a ``scipy.sparse`` CSR
  submatrix, so modularity-matrix products are O(group edges) in C;
* the leading eigenpair of the generalised modularity matrix
  ``B^(g) = A_g - k k^T / 2m - diag(k^int - k vol(g) / 2m)``
  comes from Lanczos (``eigsh``) with a shifted power-iteration
  fallback;
* communities are split by eigenvector sign, refined with a
  Kernighan-Lin style single-node sweep;
* recursion stops when no split yields a positive modularity gain.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.adjacency import Graph
from repro.graph.partition import CategoryPartition
from repro.rng import ensure_rng

__all__ = ["leading_eigenvector_communities"]


def leading_eigenvector_communities(
    graph: Graph,
    max_communities: int | None = None,
    min_gain: float = 1e-7,
    refine: bool = True,
    rng: "np.random.Generator | int | None" = 0,
) -> CategoryPartition:
    """Detect communities by recursive spectral bisection of modularity.

    Parameters
    ----------
    graph:
        Undirected graph; isolated nodes each form their own community.
    max_communities:
        Optional cap; recursion stops splitting once reached.
    min_gain:
        Minimum modularity gain for a split to be accepted.
    refine:
        Apply the single-node sweep refinement after each spectral split.
    rng:
        Seed for eigensolver start vectors (deterministic default).

    Returns
    -------
    A :class:`CategoryPartition` with communities indexed ``0..C-1``.
    """
    if graph.num_nodes == 0:
        raise GraphError("cannot detect communities in an empty graph")
    gen = ensure_rng(rng)
    if graph.num_edges == 0:
        return CategoryPartition(
            np.arange(graph.num_nodes, dtype=np.int64),
            num_categories=graph.num_nodes,
        )
    degrees = graph.degrees().astype(float)
    two_m = float(degrees.sum())
    adjacency = _to_scipy(graph)
    labels = np.zeros(graph.num_nodes, dtype=np.int64)
    queue: list[np.ndarray] = [np.flatnonzero(degrees > 0)]
    next_label = 1
    while queue:
        # Split the largest group first so a max_communities cap keeps
        # the big communities (the paper wants the 50 largest).
        queue.sort(key=len)
        group = queue.pop()
        if len(group) < 2:
            continue
        if max_communities is not None and next_label >= max_communities:
            continue
        split = _split_group(adjacency, group, degrees, two_m, gen, refine)
        if split is None or split[2] < min_gain:
            continue
        side_a, side_b, _gain = split
        labels[side_b] = next_label
        next_label += 1
        queue.append(side_a)
        queue.append(side_b)
    isolated = np.flatnonzero(degrees == 0)
    for v in isolated:
        labels[v] = next_label
        next_label += 1
    _, compact = np.unique(labels, return_inverse=True)
    return CategoryPartition(
        compact.astype(np.int64), num_categories=int(compact.max()) + 1
    )


def _to_scipy(graph: Graph) -> sp.csr_matrix:
    """Zero-copy view of the CSR arrays as a scipy adjacency matrix."""
    n = graph.num_nodes
    data = np.ones(len(graph.indices), dtype=np.float64)
    return sp.csr_matrix(
        (data, np.asarray(graph.indices), np.asarray(graph.indptr)), shape=(n, n)
    )


def _split_group(
    adjacency: sp.csr_matrix,
    group: np.ndarray,
    degrees: np.ndarray,
    two_m: float,
    gen: np.random.Generator,
    refine: bool,
):
    """Try to bisect ``group``; return (side_a, side_b, gain) or None."""
    sub = adjacency[group][:, group].tocsr()
    k_g = degrees[group]
    internal = np.asarray(sub.sum(axis=1)).ravel()
    vol_fraction = k_g.sum() / two_m
    diag_correction = internal - k_g * vol_fraction

    def b_matvec(x: np.ndarray) -> np.ndarray:
        return sub @ x - k_g * (np.dot(k_g, x) / two_m) - diag_correction * x

    vector = _leading_eigenvector(b_matvec, len(group), gen)
    if vector is None:
        return None
    signs = vector >= 0
    if signs.all() or (~signs).all():
        return None
    s = np.where(signs, 1.0, -1.0)
    if refine:
        s = _sweep_refine(b_matvec, s)
        signs = s > 0
        if signs.all() or (~signs).all():
            return None
    ones = np.ones(len(group))
    gain = (
        float(np.dot(s, b_matvec(s))) - float(np.dot(ones, b_matvec(ones)))
    ) / (2.0 * two_m)
    if gain <= 0:
        return None
    return group[signs], group[~signs], gain


def _leading_eigenvector(
    matvec, size: int, gen: np.random.Generator
) -> np.ndarray | None:
    """Most-positive eigenpair; Lanczos with a power-iteration fallback."""
    import scipy.sparse.linalg as spla  # deferred: costs ~0.1 s to import

    if size > 2:
        start = gen.standard_normal(size)
        operator = spla.LinearOperator((size, size), matvec=matvec, dtype=np.float64)
        try:
            values, vectors = spla.eigsh(
                operator, k=1, which="LA", v0=start, maxiter=max(300, 20 * size),
                tol=1e-6,
            )
            if values[0] > 1e-12:
                return vectors[:, 0]
            return None
        except (spla.ArpackNoConvergence, RuntimeError):
            pass  # fall through to power iteration
    # Shifted power iteration (also handles size == 2).
    probe = np.abs(matvec(np.ones(size))).max() + 1.0
    x = gen.standard_normal(size)
    x /= np.linalg.norm(x)
    for _ in range(800):
        y = matvec(x) + probe * x
        norm = np.linalg.norm(y)
        if norm == 0:
            return None
        y /= norm
        if np.linalg.norm(y - x) < 1e-10:
            x = y
            break
        x = y
    if float(np.dot(x, matvec(x))) > 1e-12:
        return x
    return None


def _sweep_refine(matvec, s: np.ndarray, max_rounds: int = 12) -> np.ndarray:
    """Kernighan-Lin style refinement: greedily flip single nodes."""
    best = s.copy()
    best_value = float(np.dot(best, matvec(best)))
    for _ in range(max_rounds):
        bs = matvec(best)
        gains = -4.0 * best * bs
        candidate = int(np.argmax(gains))
        if gains[candidate] <= 1e-12:
            break
        trial = best.copy()
        trial[candidate] = -trial[candidate]
        trial_value = float(np.dot(trial, matvec(trial)))
        if trial_value <= best_value + 1e-12:
            break
        best, best_value = trial, trial_value
    return best
