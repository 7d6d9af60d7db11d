"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` from bad
call signatures, etc.) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples: querying a node id outside ``[0, num_nodes)``, building a
    graph from an edge list that references unknown nodes, or requesting
    an operation that requires a connected graph on a disconnected one.
    """


class PartitionError(ReproError):
    """Raised when a category partition is inconsistent with its graph.

    Examples: a label array whose length differs from the node count, or
    looking up a category name that was never registered.
    """


class SamplingError(ReproError):
    """Raised when a sampling design cannot produce a valid sample.

    Examples: walking on an empty graph, requesting a weighted design
    with non-positive weights, or a BFS seed outside the node range.
    """


class EstimationError(ReproError):
    """Raised when an estimator cannot be evaluated on the given sample.

    Examples: an empty sample, a star estimator applied to an induced
    observation, or a Hansen-Hurwitz correction with zero weights.
    """


class GenerationError(ReproError):
    """Raised when a synthetic graph generator receives infeasible
    parameters (e.g. a k-regular graph with ``k >= n`` or odd ``n * k``)."""


class StorageError(ReproError):
    """Raised by the chunked graph helpers for an invalid block size
    (``chunk_size``/``chunk_arcs`` below 1)."""


class ExperimentError(ReproError):
    """Raised by experiment drivers for invalid configurations."""
