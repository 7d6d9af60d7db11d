"""The paper's estimators — the primary contribution.

Size estimators (Eqs. 4, 5, 11, 12), edge-weight estimators (Eqs. 8, 9,
15, 16), the Hansen-Hurwitz machinery that powers the weighted variants
(Eq. 10), collision-based population-size estimation (Section 4.3), and
bootstrap variance (Section 5.3.2).

Eqs. 4-16 are each written once, in :mod:`repro.core.category_size`
and :mod:`repro.core.edge_weight`; the sweep ladder calls them too.
"""

from repro.core.bootstrap import BootstrapResult, bootstrap_estimate
from repro.core.category_size import estimate_sizes_induced, estimate_sizes_star
from repro.core.edge_weight import (
    estimate_intra_density,
    estimate_weights_induced,
    estimate_weights_star,
)
from repro.core.estimator import (
    estimate_category_graph,
    estimate_category_sizes,
    estimate_edge_weights,
)
from repro.core.population import (
    count_collisions,
    estimate_population_size,
    estimate_population_size_coupon,
)
from repro.core.variance import induced_size_std, ratio_variance, star_weight_std
from repro.core.weights import hh_ratio, hh_total, reweighted_count

__all__ = [
    "estimate_sizes_induced",
    "estimate_sizes_star",
    "estimate_weights_induced",
    "estimate_weights_star",
    "estimate_intra_density",
    "estimate_category_sizes",
    "estimate_edge_weights",
    "estimate_category_graph",
    "estimate_population_size",
    "estimate_population_size_coupon",
    "count_collisions",
    "bootstrap_estimate",
    "BootstrapResult",
    "hh_total",
    "ratio_variance",
    "induced_size_std",
    "star_weight_std",
    "hh_ratio",
    "reweighted_count",
]
