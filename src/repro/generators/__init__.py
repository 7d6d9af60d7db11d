"""Synthetic graph generators.

The headline generator is :func:`planted_category_graph` — the paper's
Section 6.2.1 model. The rest (ER, BA, configuration model, SBM,
k-regular) are substrates used by the dataset stand-ins, the Facebook
model, and the ablation benches.

The ER, BA and configuration-model generators draw their edges
through a chunked ``emit_*_arcs`` stream of bounded edge blocks, and
the one-shot function builds its graph from that stream, so for the
same seed both describe the same edge set.
"""

from repro.generators.ba import barabasi_albert_graph, emit_ba_arcs
from repro.generators.configuration import (
    configuration_model_graph,
    emit_configuration_arcs,
    power_law_degree_sequence,
)
from repro.generators.er import (
    emit_gnm_arcs,
    emit_gnp_arcs,
    gnm,
    gnp,
    random_cross_edges,
)
from repro.generators.planted import (
    PAPER_CATEGORY_SIZES,
    PlantedModelConfig,
    planted_category_graph,
)
from repro.generators.regular import (
    random_regular_edges,
    random_regular_graph,
)
from repro.generators.sbm import (
    planted_partition_graph,
    stochastic_block_model,
)

__all__ = [
    "PAPER_CATEGORY_SIZES",
    "PlantedModelConfig",
    "planted_category_graph",
    "random_regular_graph",
    "random_regular_edges",
    "gnp",
    "gnm",
    "emit_gnp_arcs",
    "emit_gnm_arcs",
    "random_cross_edges",
    "barabasi_albert_graph",
    "emit_ba_arcs",
    "configuration_model_graph",
    "emit_configuration_arcs",
    "power_law_degree_sequence",
    "stochastic_block_model",
    "planted_partition_graph",
]
