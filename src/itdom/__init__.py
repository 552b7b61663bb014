"""Exact solvers and an exhaustive small-graph verification harness for
independent transversal domination and related invariants.

The names below are exported on first access (PEP 562): ``import itdom``
loads no submodule, and each command of ``python -m itdom`` loads only the
modules it runs.
"""

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "graphs": (
            "Bipartition", "EdgeListError", "Graph", "Graph6Error", "bipartition",
            "complement", "complete", "complete_bipartite", "components", "corona",
            "cycle", "encode_graph6", "induced_subgraph", "is_connected",
            "iter_bits", "mask_of", "members", "parse_edge_list", "parse_graph6",
            "path", "pendant_vertices", "petersen", "star",
        ),
        "catalog": ("canonical_form", "enumerate_connected_graphs", "enumerate_graphs"),
        "invariants": (
            "InvariantCache", "InvariantReport", "OmegaCapError", "OmegaFamily",
            "SolverLimitError", "compute_report", "domination_number", "gamma_it",
            "gamma_t", "gamma_tt", "matching_number", "maximum_matching", "omega",
            "tau_i",
        ),
        "theorems": (
            "CharacterizationResult", "PROVEN_IDS", "REFUTABLE_IDS", "Status",
            "THEOREMS", "TheoremVerdict", "check", "check_many", "figure1_graph",
            "is_corona", "pendant_condition",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
