"""Tetravalent covers of doubled cycles from divisors of x^n - (-1)^eps.

Each proper monic divisor g of x^n - (-1)^eps over Z_p determines a
connected tetravalent cover of the doubled cycle on n vertices, and the
reflexibility of g decides whether the cover's lifted symmetry group is
arc-transitive or half-arc-transitive.  The package classifies divisors,
builds the covers, lifts base automorphisms two independent ways, and
cross-checks every prediction with a permutation-group engine.
"""

import importlib

from .fpoly import (
    FpPoly,
    code_modulus,
    compress,
    factor_code_modulus,
    is_odd_prime,
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
    is_weakly_reflexible,
    modulus_divisors,
    reflexibility_of,
)
from .dcycle import (
    DCAut,
    subgroup_from_case,
)
from .lift import (
    LiftReport,
    lifting_report,
    lifts_by_invariance,
)

# The verification side loads numpy, so its names are imported on first
# use (PEP 562): predicting a cover's symmetry never starts the engine.
_LAZY = dict.fromkeys(
    ("CoverGraph", "Inconsistent", "NotCertified", "build_cover", "cover_isomorphism",
     "extremal_cover", "lift_by_propagation", "lifted_generators"),
    "cover",
) | dict.fromkeys(
    ("NotAnAutomorphism", "OracleLimit", "PermGroup", "automorphism_group",
     "transitivity_profile"),
    "permgrp",
)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "CoverGraph",
    "DCAut",
    "DivisorInfo",
    "FpPoly",
    "Inconsistent",
    "LiftReport",
    "NotAnAutomorphism",
    "NotCertified",
    "OracleLimit",
    "PermGroup",
    "Reflexibility",
    "automorphism_group",
    "build_cover",
    "code_modulus",
    "compress",
    "core_polynomial",
    "cover_isomorphism",
    "divisor_info",
    "extremal_cover",
    "factor_code_modulus",
    "is_odd_prime",
    "is_weakly_reflexible",
    "lift_by_propagation",
    "lifted_generators",
    "lifting_report",
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
