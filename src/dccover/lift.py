"""Lifting doubled-cycle automorphisms to cover graphs.

An automorphism of the doubled cycle lifts to the cover of a divisor g of
x^n - (-1)^eps exactly when its signed permutation of coordinates maps the
code <g> in Z_p[x]/(x^n - (-1)^eps) into itself.  Membership is the
check-polynomial test: y lies in <g> exactly when y * h vanishes in the ring,
with h = (x^n - (-1)^eps) / g.  This module is plain Python, so predictions
never load numpy; cover.lift_by_propagation makes the same decision
combinatorially on the cover and returns the lifted vertex permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dcycle import DCAut, subgroup_from_case
from .fpoly import FpPoly, code_modulus
from .reflex import (
    DivisorInfo,
    _require_divisor,
    is_maximal_divisor,
    is_maximal_weakly_reflexible,
)

# -- the check-polynomial criterion --------------------------------------------


@lru_cache(maxsize=1)
def _check_rows(g: FpPoly, n: int, eps: int) -> tuple[tuple[int, ...], int]:
    """The n x n check table of the code <g>, each row packed into one int.

    Row j holds x^j * h reduced mod x^n - (-1)^eps, so a word y lies in <g>
    exactly when y times the table vanishes mod p.  Row j + 1 is x times
    row j: its entries move up one place and the last one wraps round to
    the first, times (-1)^eps.  For g = 1, h is the modulus itself, which
    reduces to 0.  Entries lie in 0..p-1 and are packed `width` bits apart,
    enough for a sum of n rows times multipliers below p, so adding
    multiples of packed rows adds their entries.  Callers ask about one
    divisor many times in a row and then move on, so only the last
    divisor's table is kept: a census would otherwise hold the tables of
    every row it emits.
    """
    _require_divisor(g, n, eps)
    h = code_modulus(n, eps, g.p) // g
    width = (n * (g.p - 1) ** 2).bit_length()
    row = sum(c << width * k for k, c in enumerate(h.coeffs)) if h.degree < n else 0
    lanes = (1 << width * n) - 1
    rows = [row]
    for _ in range(n - 1):
        last = row >> width * (n - 1)
        row = (row << width) & lanes | (-1) ** eps * last % g.p
        rows.append(row)
    return tuple(rows), width


def lifts_by_invariance(aut: DCAut, g: FpPoly, n: int, eps: int) -> bool:
    """Whether the automorphism maps the code <g> of length n into itself.

    Row i of the homology block carries a single signed entry at column
    perm(i), so a word w maps to y with y[i] = sign(i) * w[perm(i)]; the
    automorphism lifts exactly when every basis word x^i * g maps back into
    <g>.  The image of x^i * g is nonzero only at the deg g + 1 places that
    perm sends into its support, so only those rows of the check table are
    summed.  Raises ValueError unless g is a monic proper divisor of the
    modulus.
    """
    if aut.n != n:
        raise ValueError("automorphism and code disagree on the cycle length")
    rows, width = _check_rows(g, n, eps)
    perm, sign = aut.homology_action()
    source = [0] * n
    for i in range(n):
        source[perm[i]] = i
    entry = (1 << width) - 1
    places = range(0, width * n, width)
    for shift in range(n - g.degree):
        total = 0
        for k, c in enumerate(g.coeffs, shift):
            i = source[k]
            total += c * sign[i] % g.p * rows[i]
        for place in places:
            if (total >> place & entry) % g.p:
                return False
    return True


# -- the lifting subgroup of a divisor ------------------------------------------


def is_minimal_cover(info: DivisorInfo) -> bool:
    """Whether no strictly larger divisor gives an intermediate cover of the same kind.

    Covers shrink as divisors grow, so minimal covers come from maximal
    divisors.  The comparison happens at the core level, in the compressed
    code of length n / step: maximal among weakly reflexible divisors when
    the cover is arc-transitive, maximal outright otherwise.
    """
    m = info.n // info.step
    if info.weakly_reflexible:
        return is_maximal_weakly_reflexible(info.core, m, info.eps)
    return is_maximal_divisor(info.core, m, info.eps)


@dataclass(frozen=True)
class LiftReport:
    """The largest edge-transitive subgroup that lifts, with derived data."""

    info: DivisorInfo
    generators: tuple[DCAut, ...]
    arc_transitive: bool
    tau_l: DCAut | None
    stabilizer: str
    minimal_cover: bool
    base_order: int
    lifted_order: int


def lifting_report(info: DivisorInfo) -> LiftReport:
    """Generators of the maximal lifting edge-transitive subgroup.

    The swaps that lift are generated by the step-d periodic swaps, the
    twisted rotation always lifts, and a twisted reflection lifts exactly
    when the core is reflexible: its swap tail is the full swap for a
    type-1 core and the union of the even-position step classes for a
    strictly type-2 core.  Every generator is re-checked against the
    check-polynomial criterion before being reported.
    """
    n, eps, d = info.n, info.eps, info.step
    b_masks = [DCAut.periodic_swap(n, i, d).swaps for i in range(d)]
    tau_l = None
    if info.weakly_reflexible:
        if info.core_refl.type1:
            tau_l = DCAut.full_swap(n)
        else:
            if n % (2 * d):
                raise AssertionError("a strictly type-2 core forces an even quotient")
            tau_l = DCAut(n, swaps=sum(1 << j for j in range(n) if j % (2 * d) < d))
        gens = subgroup_from_case(n, "iii", b_masks, eps, j_mask=tau_l.swaps)
    else:
        gens = subgroup_from_case(n, "ii", b_masks, eps)
    for aut in gens:
        if not lifts_by_invariance(aut, info.g, n, eps):
            raise AssertionError(f"predicted generator {aut} does not preserve the code")
    base = (1 << d) * n * (2 if info.weakly_reflexible else 1)
    return LiftReport(
        info=info,
        generators=tuple(gens),
        arc_transitive=info.weakly_reflexible,
        tau_l=tau_l,
        stabilizer=f"Z2^{d}:Z2" if info.weakly_reflexible else f"Z2^{d}",
        minimal_cover=is_minimal_cover(info),
        base_order=base,
        lifted_order=base * info.p**info.fiber_dim,
    )
