"""Tetravalent covers of doubled cycles from divisors of x^n - (-1)^eps.

Each proper monic divisor g of x^n - (-1)^eps over Z_p determines a
connected tetravalent cover of the doubled cycle on n vertices, and the
reflexibility of g decides whether the cover's lifted symmetry group is
arc-transitive or half-arc-transitive.  The package classifies divisors,
builds the covers, lifts base automorphisms two independent ways, and
cross-checks every prediction with a permutation-group engine.
"""

from .fpoly import (
    FpPoly,
    code_modulus,
    compress,
    factor_code_modulus,
    is_odd_prime,
    modulus_divisors,
    poly_gcd,
    poly_one,
    poly_x,
    support_gcd,
)
from .reflex import (
    DivisorInfo,
    Reflexibility,
    core_polynomial,
    divisor_info,
    is_maximal_divisor,
    is_maximal_weakly_reflexible,
    is_weakly_reflexible,
    reflexibility_of,
)
from .dcycle import (
    DCAut,
    homology_matrix,
    subgroup_from_case,
)
from .cover import (
    CoverGraph,
    GeneratorMatrix,
    NonSimpleCover,
    NotCertified,
    build_cover,
    check_simple,
    extremal_cover,
)
from .lift import (
    Inconsistent,
    LiftReport,
    is_minimal_cover,
    lift_by_propagation,
    lifted_generators,
    lifting_report,
    lifting_swaps,
    lifts_by_invariance,
)
from .permgrp import (
    NotAnAutomorphism,
    OracleLimit,
    PermGroup,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    transitivity_profile,
)

__all__ = [
    "CoverGraph",
    "DCAut",
    "DivisorInfo",
    "FpPoly",
    "GeneratorMatrix",
    "Inconsistent",
    "LiftReport",
    "NonSimpleCover",
    "NotAnAutomorphism",
    "NotCertified",
    "OracleLimit",
    "PermGroup",
    "Reflexibility",
    "are_isomorphic",
    "automorphism_group",
    "build_cover",
    "canonical_form",
    "check_simple",
    "code_modulus",
    "compress",
    "core_polynomial",
    "divisor_info",
    "extremal_cover",
    "factor_code_modulus",
    "homology_matrix",
    "is_maximal_divisor",
    "is_maximal_weakly_reflexible",
    "is_minimal_cover",
    "is_odd_prime",
    "is_weakly_reflexible",
    "lift_by_propagation",
    "lifted_generators",
    "lifting_report",
    "lifting_swaps",
    "lifts_by_invariance",
    "modulus_divisors",
    "poly_gcd",
    "poly_one",
    "poly_x",
    "reflexibility_of",
    "subgroup_from_case",
    "support_gcd",
    "transitivity_profile",
]

__version__ = "0.1.0"
