"""ekrforge: exact verification and search for intersecting k-uniform families
with covering-number constraints."""

from .binomial import binom
from .families import (TraceStats, UniformFamily, are_cross_intersecting,
                       is_intersecting, layer, max_degree, trace)
from .covers import all_covers, covers, has_cover, is_saturated, saturate, tau
from .constructions import (build_F_H, build_G, build_HM, build_K34, build_R,
                            build_S, full_star, g_size_formula, lex_family,
                            lex_precedes)
from .classify import (Classification, ClassificationTag, DisjointnessGraph,
                       claim5_maxT, claim6_partition, classify_T3,
                       contains_copy, disjointness_graph)
from .certify import Certificate
from .oracles import ft92_oracle, hilton_corollary_oracle, trace_bound_check
from .properties import list_suites, verify_identity_suite
from .search import (SearchResult, canonical_form, enumerate_optima,
                     max_intersecting, max_intersecting_degcap)
from .familyio import read_family, write_family

__version__ = "0.1.0"

__all__ = [
    "binom",
    "UniformFamily", "TraceStats",
    "is_intersecting", "are_cross_intersecting", "trace", "layer", "max_degree",
    "covers", "all_covers", "has_cover", "tau", "saturate", "is_saturated",
    "build_S", "build_R", "build_K34", "build_G", "g_size_formula",
    "build_F_H", "full_star", "build_HM", "lex_family", "lex_precedes",
    "Classification", "ClassificationTag", "DisjointnessGraph",
    "contains_copy", "classify_T3", "disjointness_graph",
    "claim6_partition", "claim5_maxT",
    "Certificate", "verify_identity_suite", "list_suites",
    "ft92_oracle", "hilton_corollary_oracle", "trace_bound_check",
    "SearchResult", "max_intersecting",
    "max_intersecting_degcap", "enumerate_optima", "canonical_form",
    "read_family", "write_family",
]
