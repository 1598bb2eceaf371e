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
from .fpoly import FpPoly
from .reflex import DivisorInfo, divisor_info

# -- the check-polynomial criterion --------------------------------------------


@lru_cache(maxsize=1)
def _check_rows(g: FpPoly, n: int, eps: int) -> tuple[tuple[int, ...], int]:
    """The n x n check table of the code <g>, each row packed into one int.

    Row j holds x^j * h reduced mod x^n - (-1)^eps, so a word y lies in <g>
    exactly when y times the table vanishes mod p.  h is the cofactor that
    divisor_info(g, n, eps) records, so g is validated and no division
    runs; for g = 1 it is the modulus itself, which reduces to 0.  Row j + 1
    is x times row j: its entries move up one place and the last one wraps
    round to the first, times (-1)^eps.  Entries lie in 0..p-1 and are
    packed `width` bits apart, enough for a sum of n rows times multipliers
    below p, so adding multiples of packed rows adds their entries.
    Callers ask about one divisor many times in a row and then move on, so
    only the last divisor's table is kept: a census would otherwise hold
    the tables of every row it emits.
    """
    h = divisor_info(g, n, eps).cofactor
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

    Raises ValueError unless aut acts on the n-cycle and g is a monic proper
    divisor of the modulus.
    """
    if aut.n != n:
        raise ValueError("automorphism and code disagree on the cycle length")
    return _preserves_code(aut.homology_action(), g, n, eps)


def _preserves_code(action: tuple, g: FpPoly, n: int, eps: int) -> bool:
    """lifts_by_invariance on an automorphism's homology_action().

    Row i of the homology block carries a single signed entry at column
    perm(i), so a word w maps to y with y[i] = sign(i) * w[perm(i)]; the
    automorphism lifts exactly when every basis word x^i * g maps back into
    <g>.  The image of x^i * g is nonzero only at the deg g + 1 places that
    perm sends into its support, so only those rows of the check table are
    summed.
    """
    rows, width = _check_rows(g, n, eps)
    perm, sign = action
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


@dataclass(frozen=True)
class LiftReport:
    """The largest edge-transitive subgroup that lifts, with derived data."""

    info: DivisorInfo
    generators: tuple[DCAut, ...]
    arc_transitive: bool
    tau_l: DCAut | None
    stabilizer: str
    base_order: int
    lifted_order: int


@lru_cache(maxsize=None)
def _generator_set(
    n: int, eps: int, step: int, weakly_reflexible: bool, type1: bool
) -> tuple[tuple[DCAut, ...], DCAut | None, tuple]:
    """The predicted generators of one shape of divisor, tau_l, and each
    generator's homology_action().

    The swaps that lift are generated by the step-d periodic swaps, the
    twisted rotation always lifts, and a twisted reflection lifts exactly
    when the core is reflexible: its swap tail is the full swap for a
    type-1 core and the union of the even-position step classes for a
    strictly type-2 core.  These depend on g only through the key, so each
    shape is built once per process.
    """
    b_masks = [DCAut.periodic_swap(n, i, step).swaps for i in range(step)]
    tau_l = None
    if weakly_reflexible:
        if type1:
            tau_l = DCAut.full_swap(n)
        else:
            if n % (2 * step):
                raise AssertionError("a strictly type-2 core forces an even quotient")
            tau_l = DCAut(n, swaps=sum(1 << j for j in range(n) if j % (2 * step) < step))
        gens = subgroup_from_case(n, "iii", b_masks, eps, j_mask=tau_l.swaps)
    else:
        gens = subgroup_from_case(n, "ii", b_masks, eps)
    return tuple(gens), tau_l, tuple(aut.homology_action() for aut in gens)


def lifting_report(info: DivisorInfo) -> LiftReport:
    """Generators of the maximal lifting edge-transitive subgroup.

    The generators come from _generator_set, built once per shape (n, eps,
    step, weak reflexibility, type-1 core).  Every generator of every
    report is re-checked against the check-polynomial criterion for info.g
    before being reported.
    """
    n, eps, d = info.n, info.eps, info.step
    wr = info.weakly_reflexible
    gens, tau_l, actions = _generator_set(n, eps, d, wr, wr and info.core_refl.type1)
    for aut, action in zip(gens, actions):
        if not _preserves_code(action, info.g, n, eps):
            raise AssertionError(f"predicted generator {aut} does not preserve the code")
    base = (1 << d) * n * (2 if wr else 1)
    return LiftReport(
        info=info,
        generators=gens,
        arc_transitive=wr,
        tau_l=tau_l,
        stabilizer=f"Z2^{d}:Z2" if wr else f"Z2^{d}",
        base_order=base,
        lifted_order=base * info.p**info.fiber_dim,
    )
