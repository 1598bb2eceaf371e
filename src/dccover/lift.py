"""Lifting doubled-cycle automorphisms to cover graphs.

An automorphism of the doubled cycle lifts to the cover of a divisor g of
x^n - (-1)^eps exactly when its signed permutation of coordinates maps the
code <g> in Z_p[x]/(x^n - (-1)^eps) into itself.  Membership is the
check-polynomial test: y lies in <g> exactly when y * h vanishes in the ring,
with h = (x^n - (-1)^eps) / g.  lift_by_propagation makes the same decision
combinatorially and returns the lifted vertex permutation when it exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cover import CoverGraph, GeneratorMatrix
from .dcycle import DCAut, span_basis, subgroup_from_case
from .fpoly import FpPoly, code_modulus
from .reflex import (
    DivisorInfo,
    _require_divisor,
    is_maximal_divisor,
    is_maximal_weakly_reflexible,
)

# -- the check-polynomial criterion --------------------------------------------


@lru_cache(maxsize=1)
def _code_tables(g: FpPoly, n: int, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis words x^i * g and the n x n check table of the code <g>.

    Row j of the check table holds x^j * h reduced mod x^n - (-1)^eps, so a
    word y lies in <g> exactly when y @ table vanishes mod p.  For g = 1, h is
    the modulus itself and x^j, x^(j+n) land in one column, so the terms are
    accumulated rather than assigned.  Callers ask about one divisor many
    times in a row and then move on, so only the last divisor's tables are
    kept: a census would otherwise hold the tables of every row it emits.
    """
    _require_divisor(g, n, eps)
    h = code_modulus(n, eps, g.p) // g
    degrees = np.arange(n)[:, None] + np.arange(h.degree + 1)
    terms = np.where(degrees >= n, (-1) ** eps, 1) * np.array(h.coeffs)
    check = np.zeros((n, n), dtype=np.int64)
    np.add.at(check, (np.arange(n)[:, None], degrees % n), terms)
    tables = np.array(GeneratorMatrix.from_poly(g, n).rows), check % g.p
    for table in tables:
        table.flags.writeable = False
    return tables


def lifts_by_invariance(aut: DCAut, g: FpPoly, n: int, eps: int) -> bool:
    """Whether the automorphism maps the code <g> of length n into itself.

    Row i of the homology block carries a single signed entry at column
    perm(i), so a word w maps to y with y[i] = sign(i) * w[perm(i)]; the
    automorphism lifts exactly when every basis word maps back into <g>.
    Raises ValueError unless g is a monic proper divisor of the modulus.
    """
    if aut.n != n:
        raise ValueError("automorphism and code disagree on the cycle length")
    basis, check = _code_tables(g, n, eps)
    perm, sign = aut.homology_action()
    images = basis[:, perm[:n]] * sign[:n]
    return not (images @ check % g.p).any()


def lifting_swaps(g: FpPoly, n: int, eps: int) -> list[int]:
    """Basis masks of the group of edge swaps that lift, found exhaustively.

    Lifts form a group and swaps compose by xor of their masks, so the
    lifting swaps are a binary subspace; every mask is tested and the
    result is checked to be closed.
    """
    if n > 20:
        raise ValueError("exhaustive swap search is limited to 20 edge pairs")
    hits = [
        m for m in range(1 << n) if lifts_by_invariance(DCAut(n, swaps=m), g, n, eps)
    ]
    basis = span_basis(hits)
    if len(hits) != 1 << len(basis):
        raise AssertionError("lifting swaps do not form a subspace")
    return basis


# -- combinatorial lifting by forced propagation -------------------------------


@dataclass(frozen=True)
class Inconsistent:
    """Witness that propagation forced two different images on one vertex."""

    vertex: int
    expected: int
    got: int


def lift_by_propagation(
    aut: DCAut, cover: CoverGraph, base_image: int | None = None
) -> np.ndarray | Inconsistent:
    """Lift the automorphism to a vertex permutation, or return a witness.

    The image of vertex 0 determines everything else: each dart at a
    placed vertex must map to the unique dart over the image of its base
    dart, which forces the image of the far endpoint.  Propagation runs
    level by level from vertex 0 and either completes the permutation or
    forces a conflicting image on some vertex.  By default vertex 0 goes to
    the zero fiber point over its base image.  The lift is an int32 image
    array.
    """
    n = cover.n
    if aut.n != n:
        raise ValueError("automorphism and cover disagree on the cycle length")
    if base_image is None:
        base_image = cover.vertex_id((0,) * cover.r, aut.vertex_image(0))
    if cover.layer(base_image) != aut.vertex_image(0):
        raise ValueError("base image must lie over the image of vertex 0")
    # tracks[j, t]: track of the image of the dart of track t at base vertex j.
    tracks = np.asarray(aut.arc_perm()).reshape(n, 4) % 4
    ends = cover.dart_ends
    image = np.full(cover.order, -1, dtype=np.int64)
    image[0] = base_image
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        v = ends[frontier].ravel()
        iv = ends[image[frontier][:, None], tracks[frontier // cover.fiber_size]].ravel()
        fresh = image[v] < 0
        image[v[fresh]] = iv[fresh]
        bad = np.flatnonzero(image[v] != iv)
        if len(bad):
            w, got = int(v[bad[0]]), int(iv[bad[0]])
            return Inconsistent(vertex=w, expected=int(image[w]), got=got)
        reached = np.zeros(cover.order, dtype=bool)
        reached[v[fresh]] = True
        frontier = np.flatnonzero(reached)
    if image.min() < 0:
        raise AssertionError("propagation did not reach every vertex")
    if not np.array_equal(np.sort(image), np.arange(cover.order)):
        raise AssertionError("propagation produced a non-bijective map")
    return image.astype(np.int32)


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


def lifted_generators(report: LiftReport, cover: CoverGraph) -> list[np.ndarray]:
    """Vertex permutations generating the full preimage of the base group.

    One propagation lift per base generator plus the fiber translations;
    together these generate every lift of every element of the base group,
    a group of order base_order * p^fiber_dim.
    """
    info = report.info
    basis, _ = _code_tables(info.g, info.n, info.eps)
    if cover.p != info.p or not np.array_equal(cover.matrix.rows, basis):
        raise ValueError("cover does not belong to the report's divisor")
    perms: list[np.ndarray] = []
    for g in report.generators:
        lift = lift_by_propagation(g, cover)
        if isinstance(lift, Inconsistent):
            raise AssertionError(f"verified generator {g} failed to lift")
        perms.append(lift)
    perms.extend(cover.translations())
    return perms
