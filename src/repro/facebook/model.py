"""Synthetic Facebook-like population (substrate for Section 7).

The paper's Section 7 runs on 2009/2010 Facebook crawls (10.1 M sampled
users) that are neither redistributable nor reachable offline. We build
the closest synthetic equivalent that exercises the same code paths and
regimes (see DESIGN.md, "Substitutions"):

* a heavy-tailed friendship graph (power-law degrees);
* **geography**: every user has a latent region; regions belong to
  countries, countries to continents, all laid out on a 1-D geo axis.
  Edges are created by a hierarchical stub-matching scheme — a fraction
  of each user's stubs pair within the region, a fraction within the
  country (sorted by geo position + noise, so *nearby regions link
  more*), and the rest globally (sorted by country position + noise, so
  *nearby countries link more* — the continental cliques of Fig. 7a);
* **2009 regional categories**: only ``declared_fraction`` (34% in the
  paper, Table 2) of users declare their region; the rest fall into an
  "Undeclared" category;
* **2010 college categories**: ``college_fraction`` (3.5%) of users
  belong to one of many colleges (heavy-tailed sizes, each localized in
  one country) with extra dense intra-college friendships; everyone
  else is "none".

Everything about the resulting world is known exactly, so Section 7's
NRMSE curves can be computed against *true* values — something the
paper itself could not do (it used cross-sample averages as truth; we
report both).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GenerationError
from repro.generators.configuration import power_law_degree_sequence
from repro.graph.adjacency import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.operations import bridge_components
from repro.graph.partition import CategoryPartition
from repro.rng import ensure_rng

__all__ = [
    "FacebookModelConfig",
    "FacebookWorld",
    "build_facebook_world",
]

#: Synthetic country codes, ordered by continent blocks (the order *is*
#: the geography: neighbors on the list are neighbors on the geo axis).
_COUNTRY_CODES = (
    # North America
    "US", "CA", "MX",
    # South America
    "BR", "AR", "CL", "CO",
    # Europe (west -> east)
    "UK", "IE", "FR", "ES", "PT", "DE", "IT", "NL", "SE", "NO", "PL", "GR",
    # Middle East
    "TR", "IL", "SA", "AE", "JO", "LB",
    # South / South-East Asia
    "IN", "PK", "TH", "MY", "SG", "ID", "PH",
    # East Asia & Oceania
    "JP", "KR", "TW", "AU", "NZ",
)

_CONTINENT_OF = {
    "US": 0, "CA": 0, "MX": 0,
    "BR": 1, "AR": 1, "CL": 1, "CO": 1,
    "UK": 2, "IE": 2, "FR": 2, "ES": 2, "PT": 2, "DE": 2, "IT": 2,
    "NL": 2, "SE": 2, "NO": 2, "PL": 2, "GR": 2,
    "TR": 3, "IL": 3, "SA": 3, "AE": 3, "JO": 3, "LB": 3,
    "IN": 4, "PK": 4, "TH": 4, "MY": 4, "SG": 4, "ID": 4, "PH": 4,
    "JP": 5, "KR": 5, "TW": 5, "AU": 5, "NZ": 5,
}


@dataclass(frozen=True)
class FacebookModelConfig:
    """Knobs of the synthetic Facebook world.

    Defaults give a ~60k-user world that runs all Section 7 experiments
    in seconds; ``scale`` shrinks users/colleges together for tests.
    """

    num_users: int = 60_000
    num_regions: int = 220
    num_colleges: int = 280
    declared_fraction: float = 0.34     # Table 2: 34% of population
    college_fraction: float = 0.035     # Table 2: 3.5% of population
    mean_degree: float = 16.0
    degree_exponent: float = 2.4
    region_zipf: float = 1.08           # latent region popularity skew
    college_zipf: float = 1.15          # college size skew
    region_stub_fraction: float = 0.45  # share of stubs pairing in-region
    country_stub_fraction: float = 0.25 # share pairing in-country (geo-sorted)
    intra_college_degree: float = 6.0   # extra in-college edges per member
    scale: int = 1

    def effective_users(self) -> int:
        """User count after scaling (floor 1000 keeps structure meaningful)."""
        if self.scale < 1:
            raise GenerationError(f"scale must be >= 1, got {self.scale}")
        return max(self.num_users // self.scale, 1000)

    def effective_colleges(self) -> int:
        """College count after scaling (floor 20)."""
        return max(self.num_colleges // self.scale, 20)


@dataclass(frozen=True)
class FacebookWorld:
    """A fully known synthetic Facebook-like world.

    Attributes
    ----------
    graph:
        The friendship graph (restricted to its giant component).
    regions_2009:
        The 2009-style partition: declared users carry their region,
        everyone else the final category ``"Undeclared"``.
    colleges_2010:
        The 2010-style partition: college members carry their college,
        everyone else the final category ``"none"``.
    latent_region:
        True (latent) region of every user — drives geography even for
        undeclared users.
    region_country / region_position:
        Country index and geo-axis position per region.
    country_names:
        Country code per country index.
    college_country:
        Country index per college.
    """

    graph: Graph
    regions_2009: CategoryPartition
    colleges_2010: CategoryPartition
    latent_region: np.ndarray
    region_country: np.ndarray
    region_position: np.ndarray
    country_names: tuple[str, ...]
    college_country: np.ndarray
    config: FacebookModelConfig

    @property
    def undeclared_index(self) -> int:
        """Category index of ``"Undeclared"`` in ``regions_2009``."""
        return self.regions_2009.num_categories - 1

    @property
    def none_college_index(self) -> int:
        """Category index of ``"none"`` in ``colleges_2010``."""
        return self.colleges_2010.num_categories - 1

    def country_of_region_name(self) -> dict[str, str]:
        """Map region category name -> country code (for merging)."""
        return {
            f"{self.country_names[self.region_country[r]]}.r{r}": self.country_names[
                self.region_country[r]
            ]
            for r in range(len(self.region_country))
        }


class _WorldState:
    """Mutable scratchpad threading the build stages together.

    Holds everything the edge stream and the partition stage both need;
    ``college_of_user`` / ``college_country`` are filled in *during*
    the edge stream (college assignment is interleaved with the overlay
    edges in RNG draw order).
    """

    __slots__ = (
        "n",
        "num_countries",
        "country_position",
        "region_country",
        "region_position",
        "latent_region",
        "user_country",
        "degrees",
        "college_of_user",
        "college_country",
    )


def _world_state(cfg: FacebookModelConfig, gen: np.random.Generator) -> _WorldState:
    """Geography, latent regions, and degrees (pre-edge RNG stages)."""
    state = _WorldState()
    state.n = n = cfg.effective_users()

    # ------------------------------------------------------------------
    # Geography: countries with continent-blocked positions, regions
    # distributed US/CA-heavy (the paper's North-America county detail).
    # ------------------------------------------------------------------
    state.num_countries = len(_COUNTRY_CODES)
    state.country_position = np.array(
        [
            _CONTINENT_OF[code] * 50.0 + i * 1.5
            for i, code in enumerate(_COUNTRY_CODES)
        ]
    )
    state.region_country, state.region_position = _lay_out_regions(
        cfg.num_regions, state.num_countries, state.country_position, gen
    )
    num_regions = len(state.region_country)

    # Latent region per user: Zipf over regions.
    region_weights = 1.0 / np.arange(1, num_regions + 1) ** cfg.region_zipf
    region_weights /= region_weights.sum()
    state.latent_region = gen.choice(
        num_regions, size=n, p=region_weights
    ).astype(np.int64)
    state.user_country = state.region_country[state.latent_region]

    state.degrees = power_law_degree_sequence(
        n,
        cfg.degree_exponent,
        mean_degree=cfg.mean_degree,
        d_min=2,
        d_max=min(n - 1, int(20 * cfg.mean_degree)),
        rng=gen,
    )
    state.college_of_user = None
    state.college_country = None
    return state


def _edge_blocks(
    cfg: FacebookModelConfig, gen: np.random.Generator, state: _WorldState
) -> Iterator[np.ndarray]:
    """The world's construction edge blocks, in RNG draw order.

    Hierarchical stub matching (region / country / global) followed by
    the college overlay; college assignment draws its numbers between
    the global block and the overlay block.
    """
    n = state.n
    region_stubs = np.rint(state.degrees * cfg.region_stub_fraction).astype(np.int64)
    country_stubs = np.rint(state.degrees * cfg.country_stub_fraction).astype(np.int64)
    global_stubs = state.degrees - region_stubs - country_stubs

    yield _pair_grouped(state.latent_region, region_stubs, gen)
    yield _pair_geo_sorted(
        state.user_country,
        country_stubs,
        positions=state.region_position[state.latent_region],
        noise_scale=1.0,
        gen=gen,
    )
    yield _pair_geo_sorted(
        np.zeros(n, dtype=np.int64),  # one global group
        global_stubs,
        positions=state.country_position[state.user_country],
        noise_scale=40.0,
        gen=gen,
    )

    # Colleges: localized memberships + dense intra-college overlay.
    state.college_of_user, state.college_country = _assign_colleges(
        cfg, n, state.user_country, state.num_countries, gen
    )
    yield _college_overlay(state.college_of_user, cfg, gen)


def build_facebook_world(
    config: FacebookModelConfig | None = None,
    rng: "np.random.Generator | int | None" = None,
) -> FacebookWorld:
    """Generate the synthetic world (graph + both category partitions)."""
    cfg = config or FacebookModelConfig()
    gen = ensure_rng(rng)
    state = _world_state(cfg, gen)
    n = state.n
    num_regions = len(state.region_country)

    builder = GraphBuilder(n)
    for block in _edge_blocks(cfg, gen, state):
        builder.add_edges(block)

    graph = builder.build()
    graph = bridge_components(graph, gen)

    # ------------------------------------------------------------------
    # Category partitions.
    # ------------------------------------------------------------------
    declared = gen.random(n) < cfg.declared_fraction
    region_labels = np.where(
        declared, state.latent_region, num_regions
    ).astype(np.int64)
    region_names = [
        f"{_COUNTRY_CODES[state.region_country[r]]}.r{r}"
        for r in range(num_regions)
    ] + ["Undeclared"]
    regions_2009 = CategoryPartition(
        region_labels, names=region_names, num_categories=num_regions + 1
    )

    college_country = state.college_country
    num_colleges = int(college_country.shape[0])
    college_labels = np.where(
        state.college_of_user >= 0, state.college_of_user, num_colleges
    ).astype(np.int64)
    college_names = [
        f"College{g}_{_COUNTRY_CODES[college_country[g]]}" for g in range(num_colleges)
    ] + ["none"]
    colleges_2010 = CategoryPartition(
        college_labels, names=college_names, num_categories=num_colleges + 1
    )

    return FacebookWorld(
        graph=graph,
        regions_2009=regions_2009,
        colleges_2010=colleges_2010,
        latent_region=state.latent_region,
        region_country=state.region_country,
        region_position=state.region_position,
        country_names=_COUNTRY_CODES,
        college_country=college_country,
        config=cfg,
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _lay_out_regions(
    requested: int,
    num_countries: int,
    country_position: np.ndarray,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute regions over countries; US/CA get county-level detail."""
    requested = max(requested, num_countries)
    counts = np.ones(num_countries, dtype=np.int64)
    extra = requested - num_countries
    # 45% of extra regions to the US, 10% to Canada, rest by Zipf.
    us_extra = int(0.45 * extra)
    ca_extra = int(0.10 * extra)
    counts[0] += us_extra
    counts[1] += ca_extra
    remaining = extra - us_extra - ca_extra
    if remaining > 0:
        weights = 1.0 / np.arange(1, num_countries - 1) ** 1.1
        weights /= weights.sum()
        allocation = gen.multinomial(remaining, weights)
        counts[2:] += allocation
    region_country = np.repeat(np.arange(num_countries, dtype=np.int64), counts)
    # Regions sit around their country's position, spaced by 0.02.
    offsets = np.concatenate([np.arange(c) * 0.02 for c in counts])
    region_position = country_position[region_country] + offsets
    return region_country, region_position


def _pair_grouped(
    group_of_user: np.ndarray, stub_counts: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Pair stubs uniformly within each group (region-level edges)."""
    owners = np.repeat(np.arange(len(stub_counts), dtype=np.int64), stub_counts)
    groups = group_of_user[owners]
    order = np.lexsort((gen.random(len(owners)), groups))
    owners = owners[order]
    groups = groups[order]
    return _pair_consecutive_same_group(owners, groups)


def _pair_geo_sorted(
    group_of_user: np.ndarray,
    stub_counts: np.ndarray,
    positions: np.ndarray,
    noise_scale: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """Pair stubs within groups, sorted by geo position + Laplace noise.

    Sorting by noisy position and pairing consecutive stubs yields a
    connection probability that decays with geographic distance — the
    mechanism behind the paper's Fig. 7 distance effects.
    """
    owners = np.repeat(np.arange(len(stub_counts), dtype=np.int64), stub_counts)
    if len(owners) == 0:
        return np.empty((0, 2), dtype=np.int64)
    groups = group_of_user[owners]
    noisy = positions[owners] + gen.laplace(0.0, noise_scale, size=len(owners))
    order = np.lexsort((noisy, groups))
    return _pair_consecutive_same_group(owners[order], groups[order])


def _pair_consecutive_same_group(
    owners: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Pair stubs (2i, 2i+1) within each group run; drop odd leftovers."""
    edges = []
    start = 0
    boundaries = np.concatenate(
        (np.flatnonzero(np.diff(groups)) + 1, [len(groups)])
    )
    for end in boundaries:
        run = owners[start:end]
        usable = len(run) - (len(run) % 2)
        if usable >= 2:
            pairs = run[:usable].reshape(-1, 2)
            keep = pairs[:, 0] != pairs[:, 1]
            edges.append(pairs[keep])
        start = end
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(edges)


def _assign_colleges(
    cfg: FacebookModelConfig,
    n: int,
    user_country: np.ndarray,
    num_countries: int,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """College membership (-1 = none) and each college's country."""
    num_colleges = cfg.effective_colleges()
    members_total = int(cfg.college_fraction * n)
    member_users = gen.choice(n, size=members_total, replace=False)
    # College sizes: Zipf, at least 2 members.
    raw = 1.0 / np.arange(1, num_colleges + 1) ** cfg.college_zipf
    sizes = np.maximum((raw / raw.sum() * members_total).astype(np.int64), 2)
    # Localize each college: members sorted by country, colleges carved
    # out of contiguous country runs.
    member_users = member_users[np.argsort(user_country[member_users], kind="stable")]
    college_of_user = np.full(n, -1, dtype=np.int64)
    college_country = np.zeros(num_colleges, dtype=np.int64)
    cursor = 0
    order = gen.permutation(num_colleges)  # big colleges spread over countries
    for g in order:
        take = min(int(sizes[g]), members_total - cursor)
        if take <= 0:
            college_country[g] = int(gen.integers(0, num_countries))
            continue
        chunk = member_users[cursor : cursor + take]
        college_of_user[chunk] = g
        college_country[g] = int(np.bincount(user_country[chunk]).argmax())
        cursor += take
    return college_of_user, college_country


def _college_overlay(
    college_of_user: np.ndarray, cfg: FacebookModelConfig, gen: np.random.Generator
) -> np.ndarray:
    """Extra dense intra-college edges (mean intra degree per member)."""
    edges = []
    members_by_college: dict[int, np.ndarray] = {}
    assigned = np.flatnonzero(college_of_user >= 0)
    for g in np.unique(college_of_user[assigned]):
        members_by_college[int(g)] = assigned[college_of_user[assigned] == g]
    for members in members_by_college.values():
        size = len(members)
        if size < 2:
            continue
        target = int(cfg.intra_college_degree * size / 2)
        max_edges = size * (size - 1) // 2
        target = min(target, max_edges)
        if target <= 0:
            continue
        us = members[gen.integers(0, size, size=3 * target + 8)]
        vs = members[gen.integers(0, size, size=3 * target + 8)]
        ok = us != vs
        pairs = np.column_stack((us[ok], vs[ok]))[:target]
        edges.append(pairs)
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(edges)
