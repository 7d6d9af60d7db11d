"""The paper's synthetic graph model (Section 6.2.1).

Quoting the construction:

* ``N = 88 850`` nodes partitioned into 10 categories with sizes from 50
  to 50 000 (the unique such geometric-ish ladder summing to N is
  50, 100, 200, 500, 1 000, 2 000, 5 000, 10 000, 20 000, 50 000);
* nodes in each category initially form a k-regular random graph, with
  ``k`` ranging 5..49 across experiments;
* ``N * k / 10`` random edges are added between nodes in *different*
  categories, giving ``|E| = 0.6 * N * k`` in total;
* finally, the category labels of a random fraction ``alpha`` of nodes
  are permuted — ``alpha = 0`` leaves categories aligned with the strong
  community structure, ``alpha = 1`` decouples them completely.

:func:`planted_category_graph` reproduces this exactly, plus a ``scale``
knob that shrinks every category by a constant factor for laptop-speed
tests and a ``connect`` flag that bridges any stray components (the
paper reports its instances were connected; small scaled instances may
not be).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GenerationError
from repro.generators.regular import random_regular_edges
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.operations import bridge_components
from repro.graph.partition import CategoryPartition
from repro.rng import ensure_rng

__all__ = [
    "PAPER_CATEGORY_SIZES",
    "PlantedModelConfig",
    "planted_category_graph",
]

#: The 10 category sizes of Section 6.2.1 (sum = 88 850).
PAPER_CATEGORY_SIZES: tuple[int, ...] = (
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000,
)


@dataclass(frozen=True)
class PlantedModelConfig:
    """Parameters of the Section 6.2.1 synthetic model.

    Attributes
    ----------
    sizes:
        Category sizes; defaults to the paper's ladder.
    k:
        Intra-category regular degree (paper sweeps 5..49; default 20).
    alpha:
        Fraction of nodes whose labels are randomly permuted
        (community-tightness knob; default 0.5 as in most panels).
    inter_edge_fraction:
        Inter-category edges as a multiple of ``N * k``; the paper uses
        ``1/10``.
    scale:
        Integer shrink factor applied to every category size (min size
        clamps at ``k + 1`` so the regular graphs stay feasible).
    connect:
        Bridge stray components with extra inter-category edges so the
        graph is connected, matching the paper's instances.
    """

    sizes: tuple[int, ...] = PAPER_CATEGORY_SIZES
    k: int = 20
    alpha: float = 0.5
    inter_edge_fraction: float = 0.1
    scale: int = 1
    connect: bool = True

    def effective_sizes(self) -> tuple[int, ...]:
        """Category sizes after applying ``scale`` (and feasibility clamps)."""
        if self.scale < 1:
            raise GenerationError(f"scale must be >= 1, got {self.scale}")
        out = []
        for s in self.sizes:
            scaled = max(s // self.scale, self.k + 1)
            if (scaled * self.k) % 2 == 1:
                scaled += 1  # keep the pairing model feasible
            out.append(scaled)
        return tuple(out)

    def num_nodes(self) -> int:
        """Total node count after scaling."""
        return sum(self.effective_sizes())


def _resolve_config(
    config: PlantedModelConfig | None,
    *,
    k: int | None = None,
    alpha: float | None = None,
    sizes: tuple[int, ...] | None = None,
    scale: int | None = None,
) -> PlantedModelConfig:
    """Merge keyword overrides into a config."""
    base = config or PlantedModelConfig()
    overrides: dict = {}
    if k is not None:
        overrides["k"] = k
    if alpha is not None:
        overrides["alpha"] = alpha
    if sizes is not None:
        overrides["sizes"] = tuple(sizes)
    if scale is not None:
        overrides["scale"] = scale
    if overrides:
        base = PlantedModelConfig(
            sizes=overrides.get("sizes", base.sizes),
            k=overrides.get("k", base.k),
            alpha=overrides.get("alpha", base.alpha),
            inter_edge_fraction=base.inter_edge_fraction,
            scale=overrides.get("scale", base.scale),
            connect=base.connect,
        )
    return base


def planted_category_graph(
    config: PlantedModelConfig | None = None,
    *,
    k: int | None = None,
    alpha: float | None = None,
    sizes: tuple[int, ...] | None = None,
    scale: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[Graph, CategoryPartition]:
    """Generate a Section 6.2.1 graph and its category partition.

    Either pass a full :class:`PlantedModelConfig` or override individual
    fields by keyword. Returns ``(graph, partition)`` where the partition
    already includes the ``alpha`` label permutation.

    Examples
    --------
    >>> graph, partition = planted_category_graph(k=6, scale=100, rng=0)
    >>> partition.num_categories
    10
    """
    base = _resolve_config(config, k=k, alpha=alpha, sizes=sizes, scale=scale)
    return _generate(base, ensure_rng(rng))


def _validate(config: PlantedModelConfig) -> None:
    if config.k < 1:
        raise GenerationError(f"k must be positive, got {config.k}")
    if not 0.0 <= config.alpha <= 1.0:
        raise GenerationError(f"alpha must be in [0, 1], got {config.alpha}")
    if config.inter_edge_fraction < 0:
        raise GenerationError("inter_edge_fraction must be non-negative")


def _construction_blocks(
    config: PlantedModelConfig,
    sizes: tuple[int, ...],
    starts: np.ndarray,
    labels: np.ndarray,
    gen: np.random.Generator,
) -> Iterator[np.ndarray]:
    """The model's raw edge blocks (pre-bridging), in RNG draw order."""
    # 1. Intra-category k-regular random graphs.
    for idx, size in enumerate(sizes):
        edges = random_regular_edges(size, config.k, rng=gen)
        yield edges + starts[idx]
    # 2. N * k * fraction random edges between different categories.
    n = int(starts[-1])
    inter_count = int(round(n * config.k * config.inter_edge_fraction))
    yield _inter_category_edges(labels, inter_count, gen)


def _generate(
    config: PlantedModelConfig, gen: np.random.Generator
) -> tuple[Graph, CategoryPartition]:
    _validate(config)
    sizes = config.effective_sizes()
    n = sum(sizes)
    builder = GraphBuilder(n)
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)

    for block in _construction_blocks(config, sizes, starts, labels, gen):
        builder.add_edges(block)

    graph = builder.build()
    del builder, block  # free the edge keys before bridging

    # 3. Bridge stray components if requested.
    if config.connect:
        graph = bridge_components(graph, gen)

    partition = CategoryPartition(
        labels, names=[f"C{size}" for size in _unique_names(sizes)]
    )

    # 4. Permute the labels of a fraction alpha of nodes.
    if config.alpha > 0:
        partition = partition.permute_fraction(config.alpha, rng=gen)
    return graph, partition


def _unique_names(sizes: tuple[int, ...]) -> list[str]:
    """Stable unique names keyed by size (sizes can repeat after scaling)."""
    seen: dict[int, int] = {}
    names = []
    for s in sizes:
        count = seen.get(s, 0)
        names.append(f"{s}" if count == 0 else f"{s}.{count}")
        seen[s] = count + 1
    return names


def _inter_category_edges(
    labels: np.ndarray, count: int, gen: np.random.Generator
) -> np.ndarray:
    """``count`` distinct edges whose endpoints carry different labels."""
    n = len(labels)
    out = np.empty(0, dtype=np.int64)
    # Vectorised batches with rejection of intra pairs and duplicates:
    # each batch accepts, in draw order, the first occurrence of every
    # key not accepted before, until ``count`` keys are in.
    while len(out) < count:
        batch = max(1024, 2 * (count - len(out)))
        us = gen.integers(0, n, size=batch)
        vs = gen.integers(0, n, size=batch)
        ok = labels[us] != labels[vs]
        us, vs = us[ok], vs[ok]
        keys = np.minimum(us, vs) * np.int64(n) + np.maximum(us, vs)
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, out)]
        out = np.concatenate((out, keys[: count - len(out)]))
    return np.column_stack(np.divmod(out, n))
