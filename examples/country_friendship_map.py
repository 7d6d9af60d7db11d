"""Build a "world according to Facebook" country friendship map.

Reproduces the Section 7.3 workflow end to end on the synthetic
Facebook world: simulate the paper's five crawl collections (Table 2),
estimate the country-to-country category graph with the paper's exact
recipe (UIS-induced sizes feeding star weight estimators, averaged over
crawl types), verify the geography signal, and export the
geosocialmap-style JSON.

Run:  python examples/country_friendship_map.py [output.json]

Without an argument the JSON goes to ``country_map.json`` in the
system temp directory, and the path is printed.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

from repro.facebook import (
    FacebookModelConfig,
    build_facebook_world,
    category_sample_fraction,
    country_partition,
    distance_weight_correlation,
    estimate_country_graph,
    simulate_crawl_datasets,
)
from repro.graph import category_graph_to_json, true_category_graph


def main() -> None:
    # A ~15k-user world: 36 countries, US/CA with county-level regions,
    # heavy-tailed degrees, geography-biased friendships.
    world = build_facebook_world(FacebookModelConfig(scale=4), rng=0)
    print(f"world: {world.graph.num_nodes} users, "
          f"{world.graph.num_edges} friendships, "
          f"{world.regions_2009.num_categories - 1} regions")

    # The five Table 2 crawl datasets (scaled walk lengths).
    datasets = simulate_crawl_datasets(
        world, samples_per_walk=3000, num_walks_2009=8, num_walks_2010=8, rng=1
    )
    for name, dataset in datasets.items():
        frac = category_sample_fraction(world, dataset)
        print(f"  {name:>8}: {dataset.num_walks} x "
              f"{dataset.samples_per_walk} draws, "
              f"{frac:.0%} with category")

    # Estimate the country graph exactly as the paper does (Sec. 7.3.1).
    estimate = estimate_country_graph(world, datasets)
    truth = true_category_graph(world.graph, country_partition(world))

    print("\nstrongest estimated country links:")
    for a, b, w in estimate.top_edges(10):
        ia, ib = truth.names.index(a), truth.names.index(b)
        true_w = truth.weights[ia, ib]
        print(f"  {a:>10} -- {b:<10} w_hat = {w:.2e}  (true {true_w:.2e})")

    # The Fig. 7 shape claim: distance suppresses friendship.
    positions = _country_positions(world, estimate.names)
    corr = distance_weight_correlation(world, estimate, positions)
    print(f"\ndistance vs weight rank correlation: {corr:+.2f} "
          "(negative = nearby countries are more connected)")

    # Terminal rendering of the map: geography-ordered weight heatmap —
    # the continental blocks of Fig. 7(a) appear along the diagonal.
    from repro.viz import weight_heatmap

    order = np.argsort(np.nan_to_num(positions, nan=np.inf))
    print("\nestimated country-to-country weight matrix:")
    print(weight_heatmap(estimate, order=order, max_categories=30))

    output = (
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(tempfile.gettempdir(), "country_map.json")
    )
    payload = category_graph_to_json(estimate)
    with open(output, "w") as handle:
        handle.write(payload)
    print(f"\nwrote geosocialmap-style JSON to {output} "
          f"({len(payload)} bytes)")


def _country_positions(world, names) -> np.ndarray:
    positions = np.full(len(names), np.nan)
    first = {}
    for r, country in enumerate(world.region_country):
        code = world.country_names[country]
        first.setdefault(code, float(world.region_position[r]))
    for i, name in enumerate(names):
        if name in first:
            positions[i] = first[name]
    return positions


if __name__ == "__main__":
    main()
