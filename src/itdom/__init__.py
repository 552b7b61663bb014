"""Exact solvers and an exhaustive small-graph verification harness for
independent transversal domination and related invariants."""

__version__ = "0.1.0"

from .graphs import (
    Bipartition,
    EdgeListError,
    Graph,
    Graph6Error,
    bipartition,
    complement,
    complete,
    complete_bipartite,
    components,
    corona,
    cycle,
    encode_graph6,
    induced_subgraph,
    is_complete,
    is_connected,
    is_tree,
    iter_bits,
    mask_of,
    members,
    parse_edge_list,
    parse_graph6,
    path,
    pendant_vertices,
    petersen,
    star,
)
from .catalog import (
    canonical_form,
    enumerate_connected_graphs,
    enumerate_graphs,
)
from .invariants import (
    InvariantCache,
    InvariantReport,
    OmegaCapError,
    OmegaFamily,
    SolverLimitError,
    compute_report,
    domination_number,
    gamma_it,
    gamma_t,
    gamma_tt,
    matching_number,
    maximum_matching,
    omega,
    tau_i,
)
from .theorems import (
    CharacterizationResult,
    PROVEN_IDS,
    REFUTABLE_IDS,
    SEARCH_MODES,
    Status,
    THEOREMS,
    TheoremVerdict,
    check,
    check_many,
    figure1_graph,
    is_corona,
    pendant_condition,
    search_extremal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
