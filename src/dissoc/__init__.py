"""Dissociation-set invariants, critical structure, and extremal verification on forests."""

from .forest import (
    Forest,
    VertexSet,
    canonical_code,
    centroids,
    normalize_indices,
    parse_edge_list,
    serialize_edge_list,
)
from .dissociation import (
    DissociationResult,
    alpha3_count_dp,
    alpha3_forced,
    enumerate_mds,
)
from .errors import GuardExceeded, ParseError, TheoremViolation
from .extremal import (
    ExtremalReport,
    exhaustive_extremal_check,
    generate_extremal_family,
    lt8,
    max_mds_formula,
    star_construction,
)
from .kpath import (
    CoverMatchingCertificate,
    alpha_k_brute,
    greedy_cover_matching,
    verify_certificate,
)
from .structure import (
    CheckResult,
    CriticalStructure,
    VertexClassification,
    classify_vertices,
    critical_edges_alpha3,
    critical_edges_mu3,
    critical_structure,
    verify_structure_theorems,
)
from .treegen import (
    forest_from_level_sequence,
    free_trees,
    pruefer_decode,
    random_labeled_tree,
)

__version__ = "0.1.0"
