"""Graph-based identifiability analysis and signal allocation for dynamic networks.

The package decides generic identifiability of a structured network model
(which transfer-function entries are zero, parameterized, or known) from its
graph alone, covers the parameterized edges with disjoint pseudotrees via a
mergeability-matrix heuristic, and synthesizes minimal excitation or
measurement allocations from the covering.
"""

from dynetid.graph import DiGraph, max_vertex_disjoint_paths
from dynetid.model import (
    EntryStatus,
    ExtendedGraph,
    ModelSet,
    build_extended_graph,
    extended_in_neighbors,
    validate,
)
from dynetid.identifiability import (
    IdentReport,
    check_generic_identifiability,
    check_with_excitations,
    excitation_bounds,
)
from dynetid.pseudotree import (
    CharEntry,
    CharMatrix,
    Covering,
    Pseudotree,
    algorithm1_merge,
    char_matrix,
    char_matrix_from_adjacency,
    initial_covering,
    matrix_only_merge,
    merge_trees,
    odot,
    reduce,
)
from dynetid.allocation import AllocationResult, allocate
from dynetid.dual import measurement_bounds, select_measurements
from dynetid.oracle import (
    BudgetExceeded,
    OracleBudget,
    brute_disjoint_paths,
    brute_identifiability,
    brute_min_covering,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "BudgetExceeded",
    "CharEntry",
    "CharMatrix",
    "Covering",
    "DiGraph",
    "EntryStatus",
    "ExtendedGraph",
    "IdentReport",
    "ModelSet",
    "OracleBudget",
    "Pseudotree",
    "algorithm1_merge",
    "allocate",
    "brute_disjoint_paths",
    "brute_identifiability",
    "brute_min_covering",
    "build_extended_graph",
    "char_matrix",
    "char_matrix_from_adjacency",
    "check_generic_identifiability",
    "check_with_excitations",
    "excitation_bounds",
    "extended_in_neighbors",
    "initial_covering",
    "matrix_only_merge",
    "max_vertex_disjoint_paths",
    "measurement_bounds",
    "merge_trees",
    "odot",
    "reduce",
    "select_measurements",
    "validate",
]
