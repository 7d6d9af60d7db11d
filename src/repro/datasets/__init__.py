"""Stand-ins for the paper's empirical datasets (Table 1)."""

from repro.datasets.categories import worst_case_categories
from repro.datasets.registry import (
    TABLE1_DATASETS,
    DatasetSpec,
    dataset_names,
    load_dataset,
)

__all__ = [
    "DatasetSpec",
    "TABLE1_DATASETS",
    "dataset_names",
    "load_dataset",
    "worst_case_categories",
]
