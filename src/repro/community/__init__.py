"""Community detection — categories for the Section 6.3 experiments."""

from repro.community.leading_eigenvector import leading_eigenvector_communities
from repro.community.modularity import modularity

__all__ = [
    "leading_eigenvector_communities",
    "modularity",
]
