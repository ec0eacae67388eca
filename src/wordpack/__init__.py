"""Pattern packing in words over totally ordered alphabets.

Exact occurrence counting for classical, vincular and subword patterns;
exhaustive and branch-and-bound search for finite packing maxima; closed-form
asymptotic packing densities; extremal witness constructions; and
shortest-superpattern search with certified lower bounds.
"""

from __future__ import annotations

from .core import (
    CanonicalizationWarning,
    LayeredShape,
    ParseError,
    Pattern,
    WeightedPatternSet,
    Word,
    as_classical,
    blocks,
    complement,
    flatten,
    format_pattern,
    format_word,
    inverse,
    is_canonical,
    layered_decompose,
    parse_pattern,
    parse_word,
    reverse,
    symmetry_class,
)
from .count import (
    CountReport,
    count_classical,
    count_generalized,
    occurrence_denominator,
    pattern_table,
    table_lookup,
    tiebreak_permutation,
    weighted_count,
)
from .search import (
    SearchBudget,
    SearchResult,
    SeriesReport,
    canonical_count,
    delta_series,
    enumerate_canonical,
    max_count,
    max_count_by_alphabet,
    surjection_count,
    verify_layered_witness,
    verify_perm_restriction,
    verify_tiebreak_map,
)
from .density import (
    DensityRouteError,
    DensityValue,
    alpha_root,
    asymptotic_density,
    gen_layered_density,
    k1_density,
    layered_density_cap,
    m_overlap,
    pqr_density,
    r_s_density,
    simple_layered_density,
    three_letter_table,
)
from .construct import (
    Construction,
    balanced_monotone_word,
    layered_word,
    nested_word,
    pqr_word,
    sqrt_layer_perm,
    superpattern_word,
    twelve_one_word,
)
from .superpattern import (
    LengthVerdict,
    SuperResult,
    UniverseSpec,
    is_universal,
    pattern_universe,
    shortest_superpattern,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Pattern",
    "Word",
    "WeightedPatternSet",
    "LayeredShape",
    "ParseError",
    "CanonicalizationWarning",
    "flatten",
    "is_canonical",
    "parse_pattern",
    "format_pattern",
    "parse_word",
    "format_word",
    "reverse",
    "complement",
    "inverse",
    "symmetry_class",
    "layered_decompose",
    "blocks",
    "as_classical",
    # count
    "CountReport",
    "count_generalized",
    "count_classical",
    "weighted_count",
    "occurrence_denominator",
    "tiebreak_permutation",
    "pattern_table",
    "table_lookup",
    # search
    "SearchBudget",
    "SearchResult",
    "SeriesReport",
    "surjection_count",
    "canonical_count",
    "enumerate_canonical",
    "max_count",
    "max_count_by_alphabet",
    "delta_series",
    "verify_perm_restriction",
    "verify_tiebreak_map",
    "verify_layered_witness",
    # density
    "DensityValue",
    "DensityRouteError",
    "simple_layered_density",
    "k1_density",
    "r_s_density",
    "alpha_root",
    "pqr_density",
    "layered_density_cap",
    "m_overlap",
    "gen_layered_density",
    "asymptotic_density",
    "three_letter_table",
    # construct
    "Construction",
    "balanced_monotone_word",
    "pqr_word",
    "nested_word",
    "layered_word",
    "superpattern_word",
    "twelve_one_word",
    "sqrt_layer_perm",
    # superpattern
    "UniverseSpec",
    "SuperResult",
    "LengthVerdict",
    "pattern_universe",
    "is_universal",
    "shortest_superpattern",
]
