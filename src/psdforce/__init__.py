"""Exact tools for positive semidefinite zero forcing on small graphs.

The library simulates the PSD color change rule, computes the PSD zero
forcing number Z+ and propagation times pt+(G;B), pt+(G,k), pt+(G), and
transforms forcing sets by migration: moving blue vertices between
components while provably preserving the forcing property.  On top of the
engine sit throttling numbers, complement (Nordhaus-Gaddum) sums, and
exhaustive catalogs of the graphs whose propagation time comes within a
fixed distance of their order.

Everything is exact and deterministic: graphs are bitmask adjacency rows,
searches are complete subset scans under an explicit budget, and all
catalog output is keyed by canonical labels.
"""

from .canon import (
    CANON_MAX_N,
    ENUM_MAX_N,
    canonical_label,
    enumerate_graphs,
)
from .engine import (
    DEFAULT_MAX_SUBSETS,
    CapExceededError,
    ConsistencyError,
    ForceEvent,
    ForcingForest,
    NoForcingSetError,
    NotForcingError,
    PropagationSchedule,
    component_pt,
    forceable,
    forcing_forest,
    is_psd_forcing_set,
    propagate,
    psd_zero_forcing_number,
    pt_plus,
    pt_plus_k,
)
from .extremal import (
    ExtremalRecord,
    NGSearchResult,
    classify_extremal,
    graph_record,
    invariant_table,
    ng_search,
    throttling_number,
    zeta,
)
from .families import (
    FIXTURES,
    complete,
    cycle,
    empty_graph,
    h_family,
    lollipop,
    make_family,
    migration_demo_double,
    migration_demo_single,
    path,
)
from .graph import (
    GRAPH6_MAX_N,
    Graph,
    Graph6Error,
    bridges,
    complement,
    components,
    is_bridge,
    parse_graph6,
    read_graph6_lines,
    vlist,
    vset,
    write_graph6,
)
from .migration import (
    MigrationStep,
    MigrationTrace,
    balance_propagation,
    multi_vertex_migrate,
    shrink_max_component,
    single_vertex_migrate,
    verify_force_switch,
)

__version__ = "0.1.0"

__all__ = [
    "CANON_MAX_N",
    "DEFAULT_MAX_SUBSETS",
    "ENUM_MAX_N",
    "GRAPH6_MAX_N",
    "CapExceededError",
    "ConsistencyError",
    "ExtremalRecord",
    "FIXTURES",
    "ForceEvent",
    "ForcingForest",
    "Graph",
    "Graph6Error",
    "MigrationStep",
    "MigrationTrace",
    "NGSearchResult",
    "NoForcingSetError",
    "NotForcingError",
    "PropagationSchedule",
    "balance_propagation",
    "bridges",
    "canonical_label",
    "classify_extremal",
    "complement",
    "complete",
    "component_pt",
    "components",
    "cycle",
    "empty_graph",
    "enumerate_graphs",
    "forceable",
    "forcing_forest",
    "graph_record",
    "h_family",
    "invariant_table",
    "is_bridge",
    "is_psd_forcing_set",
    "lollipop",
    "make_family",
    "migration_demo_double",
    "migration_demo_single",
    "multi_vertex_migrate",
    "ng_search",
    "parse_graph6",
    "path",
    "propagate",
    "psd_zero_forcing_number",
    "pt_plus",
    "pt_plus_k",
    "read_graph6_lines",
    "shrink_max_component",
    "single_vertex_migrate",
    "throttling_number",
    "verify_force_switch",
    "vlist",
    "vset",
    "write_graph6",
    "zeta",
]
