"""Combinatorial indeterminacy tests for the extended Prym map.

Decide, from the dual graph of a stable curve with involution alone,
whether the curve lies in the indeterminacy locus of the extended Prym
map: build the anti-invariant cycle lattice X^-, classify edge orbits,
test the dicing conditions (*) and (**) through unimodularity of maximal
minors, and search for Friedman-Smith degenerations.  The verify module
cross-checks every criterion exhaustively on all small graphs.
"""

from .errors import CapExceededError, GraphFormatError, InvalidGraphError
from .graphs import (
    BoldComponent,
    BoldSubgraph,
    EquivariantGraph,
    Involution,
    OrientedEdge,
    ValidationReport,
    Vertex,
    arithmetic_genus,
    auto_orient,
    bold_subgraph,
    canonical_document,
    canonical_json,
    components,
    graph_from_document,
    load_graph,
    parse_graph,
    require_valid,
    to_document,
    validate,
)
from .homology import (
    Analysis,
    AntiInvariantLattice,
    Chain,
    CycleBasis,
    EdgeClass,
    analyse,
    anti_invariant_lattice,
    classification_report,
    classify_edge_by_cycles,
    classify_edges,
    fundamental_cycles,
    involution_on_chain,
    rank_formula,
    simple_cycles,
)
from .dicing import (
    DicingVerdict,
    DicingWitness,
    FunctionalMatrix,
    condition_star,
    condition_star_star,
    deletion_criterion,
    dicing_bruteforce,
    dicing_report,
    is_dicing,
    star_matrix,
    star_star_matrix,
    witness_is_sound,
)
from .fs import (
    FSWitness,
    SubgraphPair,
    complete_subgraph_pair,
    fs_bipartitions,
    fs_component_genera,
    fs_report,
    is_fs_degeneration,
)
from .verify import (
    ConsistencyRecord,
    GenSpec,
    SuiteReport,
    check_graph,
    enumerate_graphs,
    isomorphism_key,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CapExceededError",
    "GraphFormatError",
    "InvalidGraphError",
    # graphs
    "BoldComponent",
    "BoldSubgraph",
    "EquivariantGraph",
    "Involution",
    "OrientedEdge",
    "ValidationReport",
    "Vertex",
    "arithmetic_genus",
    "auto_orient",
    "bold_subgraph",
    "canonical_document",
    "canonical_json",
    "components",
    "graph_from_document",
    "load_graph",
    "parse_graph",
    "require_valid",
    "to_document",
    "validate",
    # homology
    "Analysis",
    "AntiInvariantLattice",
    "Chain",
    "CycleBasis",
    "EdgeClass",
    "analyse",
    "anti_invariant_lattice",
    "classification_report",
    "classify_edge_by_cycles",
    "classify_edges",
    "fundamental_cycles",
    "involution_on_chain",
    "rank_formula",
    "simple_cycles",
    # dicing
    "DicingVerdict",
    "DicingWitness",
    "FunctionalMatrix",
    "condition_star",
    "condition_star_star",
    "deletion_criterion",
    "dicing_bruteforce",
    "dicing_report",
    "is_dicing",
    "star_matrix",
    "star_star_matrix",
    "witness_is_sound",
    # friedman-smith
    "FSWitness",
    "SubgraphPair",
    "complete_subgraph_pair",
    "fs_bipartitions",
    "fs_component_genera",
    "fs_report",
    "is_fs_degeneration",
    # verify
    "ConsistencyRecord",
    "GenSpec",
    "SuiteReport",
    "check_graph",
    "enumerate_graphs",
    "isomorphism_key",
    "run_suite",
]
