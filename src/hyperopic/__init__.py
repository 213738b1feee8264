"""Exact solver, strategy simulator, and audit workbench for
distance-limited pursuit games on finite connected graphs.

The robber is invisible whenever every cop is within the sight-limit
distance of it; the solver decides winnability exactly over belief states,
the check module plays every certificate it hands out on vertex sets, the
strategies module replays constructive cop policies against an
omniscient robber, and the audits module turns bound and equality claims
into machine-checked reports over exhaustive small-instance families.
"""

from .cache import ResultCache, open_cache
from .check import check_certificate
from .families import (
    all_trees,
    all_two_connected_outerplanar,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    g_k,
    path,
    subdivide,
    t_family,
    t_hat,
    tree_diam10,
)
from .formats import decode_graph6, emit_edge_list, encode_graph6, parse_edge_list
from .game import (
    GameSpec,
    VisibilityRule,
    full_visibility,
    hyperopic,
    mask_to_set,
    zero_visibility,
)
from .graph import (
    Graph,
    Matching,
    build_graph,
    diameter,
    eccentricities,
    find_outer_embedding,
    is_caterpillar,
    is_tree,
    maximum_matching,
    radius,
    verify_retraction,
)
from .solver import (
    Certificate,
    SolveResult,
    UndecidedError,
    cached_solve,
    cop_number,
    extract_certificate,
    search_cop_number,
    solve,
)
from .strategies import (
    CopPolicy,
    Evaded,
    Timeout,
    Win,
    certificate_policy,
    matching_policy,
    outerplanar_k2_policy,
    pendant_path_policy,
    stationary_pair_policy,
    tree_k2_policy,
    tree_near_diam_policy,
    verify_policy,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CopPolicy",
    "Evaded",
    "GameSpec",
    "Graph",
    "Matching",
    "ResultCache",
    "SolveResult",
    "Timeout",
    "UndecidedError",
    "VisibilityRule",
    "Win",
    "all_trees",
    "all_two_connected_outerplanar",
    "build_graph",
    "cached_solve",
    "caterpillar",
    "certificate_policy",
    "check_certificate",
    "complete",
    "complete_bipartite",
    "cop_number",
    "cycle",
    "decode_graph6",
    "diameter",
    "eccentricities",
    "emit_edge_list",
    "encode_graph6",
    "extract_certificate",
    "find_outer_embedding",
    "full_visibility",
    "g_k",
    "hyperopic",
    "is_caterpillar",
    "is_tree",
    "mask_to_set",
    "matching_policy",
    "maximum_matching",
    "open_cache",
    "outerplanar_k2_policy",
    "parse_edge_list",
    "path",
    "pendant_path_policy",
    "radius",
    "search_cop_number",
    "solve",
    "stationary_pair_policy",
    "subdivide",
    "t_family",
    "t_hat",
    "tree_diam10",
    "tree_k2_policy",
    "tree_near_diam_policy",
    "verify_policy",
    "verify_retraction",
    "zero_visibility",
]
