"""Sampling designs and measurement scenarios (Section 3 of the paper)."""

from repro.sampling.alias import AliasTables, build_alias_tables
from repro.sampling.base import NodeSample, Sampler
from repro.sampling.batch import (
    BatchNodeSample,
    is_registered,
    register_kernel,
    registered_kernel,
    sample_many,
)
from repro.sampling.convergence import (
    autocorrelation,
    effective_sample_size,
    geweke_z,
    recommend_thinning,
)
from repro.sampling.independence import (
    UniformIndependenceSampler,
    WeightedIndependenceSampler,
)
from repro.sampling.observation import (
    InducedObservation,
    StarObservation,
    observe_both,
    observe_induced,
    observe_star,
)
from repro.sampling.stratified import StratifiedWeightedWalkSampler
from repro.sampling.traversal import BreadthFirstSampler
from repro.sampling.walks import (
    MetropolisHastingsSampler,
    RandomWalkSampler,
    RandomWalkWithJumpsSampler,
    WeightedRandomWalkSampler,
)

__all__ = [
    "NodeSample",
    "Sampler",
    "BatchNodeSample",
    "sample_many",
    "register_kernel",
    "registered_kernel",
    "is_registered",
    "AliasTables",
    "build_alias_tables",
    "UniformIndependenceSampler",
    "WeightedIndependenceSampler",
    "RandomWalkSampler",
    "MetropolisHastingsSampler",
    "WeightedRandomWalkSampler",
    "RandomWalkWithJumpsSampler",
    "StratifiedWeightedWalkSampler",
    "BreadthFirstSampler",
    "InducedObservation",
    "StarObservation",
    "observe_induced",
    "observe_star",
    "observe_both",
    "geweke_z",
    "autocorrelation",
    "effective_sample_size",
    "recommend_thinning",
]
