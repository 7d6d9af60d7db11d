"""Category construction for the Section 6.3 experiments.

The paper deliberately builds the *worst case* for star sampling: it
runs a leading-eigenvector community finder, keeps the 50 largest
communities as categories, and lumps everything else into a 51st
category. :func:`worst_case_categories` reproduces that pipeline on any
graph.
"""

from __future__ import annotations

import numpy as np

from repro.community.leading_eigenvector import leading_eigenvector_communities
from repro.graph.adjacency import Graph
from repro.graph.partition import CategoryPartition

__all__ = ["worst_case_categories"]


def worst_case_categories(
    graph: Graph,
    top: int = 50,
    rng: "np.random.Generator | int | None" = 0,
) -> CategoryPartition:
    """Categories = ``top`` largest communities + one catch-all.

    Parameters
    ----------
    graph:
        The graph to categorise.
    top:
        Number of large communities kept as individual categories
        (paper: 50).
    rng:
        Seed of the leading-eigenvector community finder (the paper's
        [47]).
    """
    communities = leading_eigenvector_communities(
        graph, max_communities=max(2 * top, top + 10), rng=rng
    )
    if communities.num_categories <= top:
        return communities
    named = CategoryPartition(
        communities.labels,
        names=[f"community{i}" for i in range(communities.num_categories)],
        num_categories=communities.num_categories,
    )
    return named.keep_top(top, rest_name="rest")
