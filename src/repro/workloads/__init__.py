"""Workloads: synthetic data generators and the paper's canned queries."""

from repro.workloads.generator import (
    MusicConfig,
    MusicDatabase,
    generate_music_database,
)
from repro.workloads.parts import (
    CONTAINS,
    PartsConfig,
    PartsDatabase,
    build_parts_catalog,
    components_of_query,
    contains_rules,
    generate_parts_database,
    heavy_components_query,
)
from repro.workloads.scenarios import (
    PushComparison,
    compare_push_policies,
    selection_push_sweep,
)
from repro.workloads.queries import (
    INFLUENCER,
    chain_join_query,
    fig2_query,
    fig3_query,
    influencer_rules,
    join_push_query,
)

__all__ = [
    "MusicConfig",
    "MusicDatabase",
    "generate_music_database",
    "CONTAINS",
    "PartsConfig",
    "PartsDatabase",
    "build_parts_catalog",
    "components_of_query",
    "contains_rules",
    "generate_parts_database",
    "heavy_components_query",
    "PushComparison",
    "compare_push_policies",
    "selection_push_sweep",
    "INFLUENCER",
    "chain_join_query",
    "fig2_query",
    "fig3_query",
    "influencer_rules",
    "join_push_query",
]
