"""Perfect Roman domination on trees and forests.

Exact solvers (linear tree DP plus exhaustive small-graph ground truth),
vertex-deletion stability, and the constructive family of stable trees with
recognition, certificates, and exhaustive cross-validation sweeps.

``import prdom`` loads no submodule: the first use of an exported name
imports the module that defines it (PEP 562), so a command pays only for
the modules it runs.
"""

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {
    "canonical": ("CanonicalForm", "canonical_form", "canonical_forms", "centroids"),
    "enumeration": (
        "FREE_TREE_MAX_N",
        "all_labeled_trees",
        "enumerate_free_trees",
        "random_labeled_tree",
        "tree_from_prufer",
    ),
    "family": (
        "FAMILY_MAX_N",
        "Certificate",
        "RecognitionResult",
        "check_stable_profile",
        "enumerate_family",
        "grow",
        "parse_certificate",
        "recognize",
        "replay_certificate",
        "serialize_certificate",
    ),
    "graph6": ("GRAPH6_MAX_N", "emit_graph6", "parse_graph6"),
    "graphs": (
        "Forest",
        "Graph",
        "InvalidStepError",
        "ParseError",
        "SizeLimitError",
        "Tree",
        "delete_vertices",
        "diameter",
        "emit_edge_list",
        "longest_path",
        "make_double_star",
        "make_path",
        "make_spider",
        "make_star",
        "parse_edge_list",
        "remove_vertex",
    ),
    "solver": (
        "BRUTE_FORCE_MAX_N",
        "INFEASIBLE",
        "StateTable",
        "brute_force",
        "forced_zero_set",
        "is_valid_prdf",
        "optimal_assignment",
        "prd_number",
    ),
    "stability": (
        "BranchSite",
        "OptimaReport",
        "StabilityReport",
        "attach_pendant_path",
        "branch_sites",
        "optima_report",
        "stability_report",
    ),
    "sweeps": ("attachment_delta_sweep", "characterization_sweep", "optima_structure_sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the value here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
