"""Error metrics and replication harnesses (Section 6.1)."""

from repro.stats.compare import CategoryGraphComparison, compare_category_graphs
from repro.stats.errors import nrmse, nrmse_stack, relative_error
from repro.stats.percentiles import percentile_edge, positive_weight_pairs
from repro.stats.prefix import IncrementalPrefixLadder, RungEstimates
from repro.stats.replication import (
    SweepResult,
    SweepSpec,
    run_nrmse_sweep,
    run_nrmse_sweep_from_samples,
)

__all__ = [
    "nrmse",
    "CategoryGraphComparison",
    "compare_category_graphs",
    "nrmse_stack",
    "relative_error",
    "percentile_edge",
    "positive_weight_pairs",
    "SweepResult",
    "SweepSpec",
    "IncrementalPrefixLadder",
    "RungEstimates",
    "run_nrmse_sweep",
    "run_nrmse_sweep_from_samples",
]
