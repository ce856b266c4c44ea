"""Benchmark workloads: dataset stand-ins and query generators."""

from repro.workloads.datasets import (
    DATASETS,
    MEDIUM_DATASETS,
    DatasetSpec,
    get_dataset,
)
from repro.workloads.queries import (
    balanced_pairs,
    negative_pairs,
    positive_pairs,
    random_pairs,
)
from repro.workloads.traffic import (
    ZipfSampler,
    poisson_arrivals,
    uniform_arrivals,
    zipf_pairs,
)
from repro.workloads.updates import (
    IDEAL_RANK,
    apply_stream,
    mixed_update_stream,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "MEDIUM_DATASETS",
    "ZipfSampler",
    "apply_stream",
    "balanced_pairs",
    "get_dataset",
    "negative_pairs",
    "poisson_arrivals",
    "positive_pairs",
    "random_pairs",
    "uniform_arrivals",
    "mixed_update_stream",
    "IDEAL_RANK",
    "zipf_pairs",
]
