"""Reflexibility of code polynomials and maximality within the divisor lattice.

A polynomial with coefficients a_0..a_m (a_0, a_m nonzero) is type-1
reflexible when some unit s satisfies s*a_{m-i} = a_i for all i, and type-2
reflexible when s*a_{m-i} = (-1)^i * a_i for all i.  The scale is forced to
a_0 / a_m by the i = 0 equation, so classification is a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fpoly import (
    FpPoly,
    code_modulus,
    compress,
    factor_code_modulus,
    poly_one,
    support_gcd,
)


@dataclass(frozen=True)
class Reflexibility:
    """Which reflexibility equations hold, and the forced scale."""

    type1: bool
    type2: bool
    scale: int

    @property
    def kind(self) -> str:
        if self.type1 and self.type2:
            return "both"
        return "type1" if self.type1 else "type2"


def reflexibility_of(f: FpPoly) -> Reflexibility | None:
    """Classify f as type-1/type-2/both reflexible, or None."""
    if f.is_zero:
        raise ValueError("zero polynomial cannot be classified")
    if f.coeff(0) == 0:
        raise ValueError("constant term must be nonzero")
    p = f.p
    m = f.degree
    scale = f.coeff(0) * pow(f.coeff(m), p - 2, p) % p
    type1 = all(scale * f.coeff(m - i) % p == f.coeff(i) for i in range(m + 1))
    type2 = all(
        scale * f.coeff(m - i) % p == (-1) ** i * f.coeff(i) % p
        for i in range(m + 1)
    )
    if not (type1 or type2):
        return None
    return Reflexibility(type1, type2, scale)


def core_polynomial(g: FpPoly, n: int) -> tuple[int, FpPoly]:
    """The support step d of g and the core c with g(x) = c(x^d).

    The constant divisor 1 uses step n: the full code length.
    """
    d = support_gcd(g, constant_default=n)
    return d, compress(g, d)


def is_weakly_reflexible(g: FpPoly, n: int) -> bool:
    """True when the core polynomial of g is reflexible of either type."""
    _, core = core_polynomial(g, n)
    return reflexibility_of(core) is not None


@dataclass(frozen=True, slots=True)
class DivisorInfo:
    """A proper divisor g of x^n - (-1)^eps with its classification.

    fiber_dim is n - deg(g): the rank of the banded generator matrix, hence
    the exponent of the fiber group Z_p^fiber_dim of the cover.  step and
    core are core_polynomial(g, n), core_refl the core's reflexibility, and
    cofactor the check polynomial h = (x^n - (-1)^eps) / g, the modulus for
    g = 1.  The maximal flags: no proper divisor lies strictly above g, and
    g is weakly reflexible with no weakly reflexible one above it.
    minimal_cover: no larger divisor gives an intermediate cover of the
    same kind.  Covers shrink as divisors grow, so minimal covers come from
    maximal divisors, compared at the core level in the code of length
    n / step: maximal among weakly reflexible divisors when the cover is
    arc-transitive, maximal outright otherwise.
    """

    g: FpPoly
    n: int
    eps: int
    fiber_dim: int
    step: int
    core: FpPoly
    core_refl: Reflexibility | None
    weakly_reflexible: bool
    maximal_divisor: bool
    maximal_weakly_reflexible: bool
    minimal_cover: bool
    cofactor: FpPoly

    @property
    def p(self) -> int:
        return self.g.p


@lru_cache(maxsize=None)
def _lattice(n: int, eps: int, p: int) -> dict[FpPoly, DivisorInfo]:
    """Each proper divisor g of the modulus mapped to its DivisorInfo,
    built once and shared by every lookup.

    Divisors are built slot by slot over factor_code_modulus, keyed by
    exponent vector, and one lies above another when its vector is at least
    the other's in every slot.  g is maximal when its vector is one unit
    short of the modulus's in total, and its cofactor has the modulus's
    exponents minus g's.  Divisors are walked in descending (degree,
    coefficients), so the covers of g (one exponent raised by one) are done
    before g, and a weakly reflexible divisor lies above g when a cover
    other than the modulus is weakly reflexible or has one above it.  A
    core of step above 1 is read from the lattice at length n / step.  The
    table is in ascending order, and equal reflexibilities share one object.
    """
    factors = factor_code_modulus(n, eps, p)
    full = tuple(m for _, m in factors)
    # Slot by slot, each divisor is its neighbour in the slot times f.
    by_exponents = {(): poly_one(p)}
    for f, m in factors:
        grown = {}
        for exps, d in by_exponents.items():
            for e in range(m + 1):
                if e:
                    d = d * f
                grown[exps + (e,)] = d
        by_exponents = grown
    if by_exponents[full] != code_modulus(n, eps, p):
        raise AssertionError("the factors do not multiply to the modulus")
    if len(set(by_exponents.values())) != len(by_exponents):
        raise AssertionError("two exponent vectors give one divisor")
    top = sum(full) - 1
    interned = {}
    wr_or_above = {}
    table = {}
    walk = sorted(by_exponents.items(), key=lambda item: (item[1].degree, item[1].coeffs))
    for exps, g in reversed(walk[:-1]):  # the modulus, of degree n, sorts last
        covers = (
            exps[:i] + (e + 1,) + exps[i + 1 :]
            for i, e in enumerate(exps)
            if e < full[i]
        )
        above = any(wr_or_above[c] for c in covers if c != full)
        step, core = core_polynomial(g, n)
        if n % step:
            raise AssertionError("support step must divide the code length")
        refl = reflexibility_of(core)
        refl = interned.setdefault(refl, refl)
        wr = refl is not None
        maximal, maximal_wr = sum(exps) == top, wr and not above
        if step == 1:
            minimal = maximal_wr if wr else maximal
        else:
            at_core = _lattice(n // step, eps, p)[core]
            minimal = at_core.maximal_weakly_reflexible if wr else at_core.maximal_divisor
        table[g] = DivisorInfo(
            g=g, n=n, eps=eps, fiber_dim=n - g.degree, step=step, core=core,
            core_refl=refl, weakly_reflexible=wr, maximal_divisor=maximal,
            maximal_weakly_reflexible=maximal_wr, minimal_cover=minimal,
            cofactor=by_exponents[tuple(m - e for m, e in zip(full, exps))],
        )
        wr_or_above[exps] = above or wr
    return dict(reversed(table.items()))


def modulus_divisors(n: int, eps: int, p: int) -> tuple[FpPoly, ...]:
    """All monic divisors of x^n - (-1)^eps except the modulus itself, 1
    included, sorted by degree and then coefficients low degree first."""
    return tuple(_lattice(n, eps, p))


def divisor_info(g: FpPoly, n: int, eps: int) -> DivisorInfo:
    """The lattice's record of g; ValueError unless g is a monic proper divisor."""
    info = _lattice(n, eps, g.p).get(g)
    if info is None:
        raise ValueError(
            f"{g.to_text()!r} is not a monic proper divisor of the length-{n} modulus"
        )
    return info
