"""Tests for the two lifting criteria and the lifting subgroup report."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dccover.cover import (
    Inconsistent,
    build_cover,
    extremal_cover,
    _propagate,
    lift_by_propagation,
    lifted_generators,
)
from dccover.dcycle import DCAut, in_span, span_basis, subgroup_from_case
from dccover.fpoly import FpPoly, code_modulus, poly_one
from dccover.lift import lifting_report, lifts_by_invariance
from dccover.permgrp import PermGroup, transitivity_profile
from dccover.reflex import (
    DivisorInfo,
    Reflexibility,
    core_polynomial,
    divisor_info,
    modulus_divisors,
    reflexibility_of,
)

SEXTIC5 = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
QUINTIC3 = FpPoly(3, (1, 1, 1, 2, 0, 1))

CUBIC_ROWS = [
    (FpPoly(7, (1, 1, 1)), "AT", 84, True),
    (FpPoly(7, (2, 4, 1)), "HT", 42, True),
    (FpPoly(7, (4, 2, 1)), "HT", 42, True),
    (FpPoly(7, (5, 1)), "HT", 294, False),
    (FpPoly(7, (3, 1)), "HT", 294, False),
    (FpPoly(7, (6, 1)), "AT", 588, True),
    (poly_one(7), "AT", 16464, True),
]


def small_cases():
    out = []
    for p in (3, 5):
        for n in (3, 4, 5, 6):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    out.append((g, n, eps))
    return out


def aut_strategy(n):
    return st.builds(
        DCAut,
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 1),
        st.integers(0, n - 1),
    )


# -- the check-polynomial criterion ------------------------------------------------


def lifts_by_reference(aut, g, n):
    """Whether g divides the signed-permuted image of every basis word x^i * g."""
    perm, sign = aut.homology_action()
    for i in range(n - g.degree):
        word = [g.coeff(k - i) for k in range(n)]
        image = FpPoly(g.p, tuple(sign[k] * word[perm[k]] for k in range(n)))
        if not g.divides(image):
            return False
    return True


def reference_auts(g, n, eps):
    """Every swap mask, reflection and shift 0 or 1 up to n = 5, else a seeded sample."""
    if n <= 5:
        return [
            DCAut(n, swaps, reflect, shift)
            for swaps in range(1 << n)
            for reflect in (0, 1)
            for shift in (0, 1)
        ]
    rng = random.Random(f"reference:{n}:{eps}:{g.p}:{g.coeffs}")
    return [
        DCAut(n, rng.randrange(1 << n), rng.randrange(2), rng.randrange(n))
        for _ in range(48)
    ]


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_invariance_matches_the_divisibility_reference(p):
    # p = 11 and 13 widen the packed check rows, bit_length(n * (p - 1)^2).
    outcomes = set()
    for n in range(3, 9 if p < 11 else 7):
        for eps in (0, 1):
            divisors = modulus_divisors(n, eps, p)
            assert poly_one(p) in divisors
            for g in divisors:
                for aut in reference_auts(g, n, eps):
                    want = lifts_by_reference(aut, g, n)
                    assert lifts_by_invariance(aut, g, n, eps) == want, (
                        g.to_text(), n, eps, aut.to_text()
                    )
                    outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize(
    "aut, g, n, eps",
    [
        (DCAut.rotation(4), FpPoly(7, (6, 1)), 3, 0),  # aut.n differs from n
        (DCAut.rotation(3), FpPoly(7, (2, 1)), 3, 0),  # x + 2 does not divide x^3 - 1
        (DCAut.rotation(3), FpPoly(7, (2, 2)), 3, 1),  # 2(x + 1) is not monic
        (DCAut.rotation(3), FpPoly(7, ()), 3, 0),
        (DCAut.rotation(3), code_modulus(3, 0, 7), 3, 0),
    ],
    ids=["length", "non-divisor", "non-monic", "zero", "modulus"],
)
def test_invariance_rejects_bad_input(aut, g, n, eps):
    with pytest.raises(ValueError):
        lifts_by_invariance(aut, g, n, eps)


def test_twisted_rotation_always_lifts():
    for g, n, eps in small_cases():
        rot = DCAut.rotation(n)
        if eps:
            rot = rot * DCAut.edge_swap(n, 0)
        assert lifts_by_invariance(rot, g, n, eps), (g.to_text(), n, eps)


def test_full_swap_always_lifts():
    for g, n, eps in small_cases():
        assert lifts_by_invariance(DCAut.full_swap(n), g, n, eps)


def test_periodic_swap_lifts_exactly_when_step_divides_the_support_step():
    for g, n, eps in small_cases():
        d = divisor_info(g, n, eps).step
        for k in range(1, n + 1):
            if n % k:
                continue
            got = lifts_by_invariance(DCAut.periodic_swap(n, 0, k), g, n, eps)
            assert got == (d % k == 0), (g.to_text(), n, eps, k, d)


def test_single_swap_against_a_linear_divisor():
    assert not lifts_by_invariance(DCAut.edge_swap(3, 0), FpPoly(7, (5, 1)), 3, 0)


def test_reflection_cases_on_cubic_divisors():
    refl_full = DCAut.reflection(3) * DCAut.full_swap(3)
    assert lifts_by_invariance(refl_full, FpPoly(7, (1, 1, 1)), 3, 0)
    assert not lifts_by_invariance(refl_full, FpPoly(7, (5, 1)), 3, 0)


def test_type2_reflection_tail_on_the_sextic():
    tail = DCAut(8, swaps=0b00110011)  # edge pairs {0, 1, 4, 5}
    assert lifts_by_invariance(DCAut.reflection(8) * tail, SEXTIC5, 8, 0)
    assert not lifts_by_invariance(DCAut.reflection(8) * DCAut.full_swap(8), SEXTIC5, 8, 0)
    rep = lifting_report(divisor_info(SEXTIC5, 8, 0))
    assert rep.tau_l == tail


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


def test_swap_kernel_dimension_is_the_support_step():
    for g, n, eps in small_cases():
        info = divisor_info(g, n, eps)
        basis = lifting_swaps(g, n, eps)
        assert len(basis) == info.step, (g.to_text(), n, eps)
        for i in range(info.step):
            mask = sum(1 << j for j in range(i, n, info.step))
            assert in_span(basis, mask)


def test_every_swap_lifts_only_for_the_constant_divisor():
    for g, n, eps in small_cases():
        basis = lifting_swaps(g, n, eps)
        assert (len(basis) == n) == (g == poly_one(g.p))


# -- propagation ------------------------------------------------------------------


def test_propagation_rejects_a_non_lifting_swap_with_a_witness():
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    res = lift_by_propagation(DCAut.edge_swap(3, 0), cov)
    assert isinstance(res, Inconsistent)
    assert res.expected != res.got
    assert cov.layer(res.expected) == cov.layer(res.got)


def test_propagation_lift_is_a_graph_automorphism():
    cov = build_cover(FpPoly(7, (1, 1, 1)), 3, 0)
    lift = lift_by_propagation(DCAut.rotation(3), cov)
    assert isinstance(lift, np.ndarray)
    transitivity_profile([lift], cov)  # raises if an edge breaks
    assert sorted(lift.tolist()) == list(range(cov.order))


def test_propagation_base_image_validation():
    cov = build_cover(FpPoly(7, (1, 1, 1)), 3, 0)
    rot = DCAut.rotation(3)
    with pytest.raises(ValueError, match="over the image of vertex 0"):
        lift_by_propagation(rot, cov, base_image=0)  # lies over layer 0, not 1
    # 7.5 is not read as vertex 7, which lies over layer 1.
    assert isinstance(lift_by_propagation(rot, cov, base_image=np.int64(7)), np.ndarray)
    with pytest.raises(ValueError, match="base images must be integers"):
        lift_by_propagation(rot, cov, base_image=7.5)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(small_cases()[:40]), st.data())
def test_propagation_agrees_with_invariance(case, data):
    g, n, eps = case
    aut = data.draw(aut_strategy(n))
    cov = build_cover(g, n, eps)
    predicted = lifts_by_invariance(aut, g, n, eps)
    got = lift_by_propagation(aut, cov)
    assert isinstance(got, np.ndarray) == predicted
    if predicted:
        transitivity_profile([got], cov)  # raises if an edge breaks
        layers = [cov.layer(x) for x in got.tolist()]
        assert layers == [aut.vertex_image(cov.layer(v)) for v in range(cov.order)]


def test_basepoint_independence():
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    rot = DCAut.rotation(3)
    tau0 = DCAut.edge_swap(3, 0)
    for v in range(cov.fiber_size):
        base = rot.vertex_image(0) * cov.fiber_size + v
        assert isinstance(lift_by_propagation(rot, cov, base), np.ndarray)
        base = tau0.vertex_image(0) * cov.fiber_size + v
        assert isinstance(lift_by_propagation(tau0, cov, base), Inconsistent)


def criterion_4_batches():
    """Each sweep cover of at most 300 vertices, with criterion 4's twenty
    random automorphisms, drawn from the same seeds, and two lists of base
    images for them: the defaults, and random points of the right fibers."""
    for p in (3, 5, 7):
        for n in range(3, 9):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    if n * p ** (n - g.degree) > 300:
                        continue
                    cov = build_cover(g, n, eps)
                    rng = random.Random(f"accept4:{p}:{n}:{eps}:{g.coeffs}")
                    auts = [
                        DCAut(n, rng.randrange(1 << n), rng.randrange(2), rng.randrange(n))
                        for _ in range(20)
                    ]
                    bases = [
                        [None] * len(auts),
                        [
                            a.vertex_image(0) * cov.fiber_size + rng.randrange(cov.fiber_size)
                            for a in auts
                        ],
                    ]
                    yield cov, auts, bases


def reference_lift(aut, cov, base):
    """lift_by_propagation in plain Python: level by level from vertex 0,
    each level's darts taken by vertex, then track; a vertex first reached
    at a level takes the image its last dart there forces, and the level's
    first dart that forces another image on its head is the witness."""
    ends, size = cov.dart_ends.tolist(), cov.fiber_size
    tracks = [t % 4 for t in aut.arc_perm()]
    if base is None:
        base = aut.vertex_image(0) * size
    image, frontier = {0: base}, [0]
    while frontier:
        forced = [
            (ends[u][t], ends[image[u]][tracks[4 * (u // size) + t]])
            for u in frontier
            for t in range(4)
        ]
        fresh = {w: x for w, x in forced if w not in image}
        image.update(fresh)
        for w, x in forced:
            if image[w] != x:
                return Inconsistent(vertex=w, expected=image[w], got=x)
        frontier = sorted(fresh)
    return [image[v] for v in range(cov.order)]


def test_propagation_matches_a_plain_reference():
    # Pins each witness, vertex and both images, not only that one exists.
    witnesses = 0
    for cov, auts, bases in criterion_4_batches():
        for base_images in bases:
            for aut, base in zip(auts, base_images):
                got, want = lift_by_propagation(aut, cov, base), reference_lift(aut, cov, base)
                if isinstance(want, Inconsistent):
                    assert got == want
                    witnesses += 1
                else:
                    assert got.tolist() == want
    assert witnesses == 4832  # of the 5,280 lifts


def test_a_batch_lifts_each_automorphism_as_it_lifts_alone():
    # One propagation serves a batch, and its first conflict ends it: a batch
    # with a conflict returns a row that fails alone, with the witness that
    # row gives alone.
    covers = mixed = 0
    for cov, auts, bases in criterion_4_batches():
        for base_images in bases:
            alone = [lift_by_propagation(a, cov, b) for a, b in zip(auts, base_images)]
            failed = [isinstance(lift, Inconsistent) for lift in alone]
            mixed += set(failed) == {True, False}
            lifts = [k for k, fails in enumerate(failed) if not fails]
            batch = _propagate([auts[k] for k in lifts], cov, [base_images[k] for k in lifts])
            assert [row.tolist() for row in batch] == [alone[k].tolist() for k in lifts]
            if any(failed):
                k, witness = _propagate(auts, cov, base_images)
                assert failed[k] and witness == alone[k]
        covers += 1
    assert covers == 132
    assert mixed == 140  # of the 264 batches, both kinds occur in these


# -- lifting subgroup reports -----------------------------------------------------


def test_cubic_reports_match_the_verified_group_orders():
    for g, sym, lifted, minimal in CUBIC_ROWS:
        info = divisor_info(g, 3, 0)
        rep = lifting_report(info)
        assert rep.arc_transitive == (sym == "AT")
        assert rep.lifted_order == lifted
        assert info.minimal_cover == minimal
        cov = build_cover(g, 3, 0)
        G = PermGroup(lifted_generators(rep, cov))
        assert G.order() == lifted
        prof = transitivity_profile(G, cov)
        assert prof["vertex_transitive"] and prof["edge_transitive"]
        assert prof["arc_transitive"] == (sym == "AT")
        assert prof["arc_orbits"] == (1 if sym == "AT" else 2)


def test_base_group_order_matches_the_dart_action():
    for g, n, eps in [
        (FpPoly(7, (1, 1, 1)), 3, 0),
        (FpPoly(7, (5, 1)), 3, 0),
        (SEXTIC5, 8, 0),
        (QUINTIC3, 8, 0),
        (FpPoly(3, (1, 1)), 3, 1),
    ]:
        rep = lifting_report(divisor_info(g, n, eps))
        G = PermGroup([a.arc_perm() for a in rep.generators], 4 * n)
        assert G.order() == rep.base_order, (g.to_text(), n, eps)


def test_worked_sextic_and_quintic_reports():
    rep = lifting_report(divisor_info(SEXTIC5, 8, 0))
    assert rep.info.step == 2
    assert rep.info.core == FpPoly(5, (3, 4, 2, 1))
    assert rep.info.core_refl.kind == "type2"
    assert rep.info.core_refl.scale == 3
    assert rep.arc_transitive and rep.stabilizer == "Z2^2:Z2"
    assert rep.base_order == 64 and rep.lifted_order == 1600
    rep = lifting_report(divisor_info(QUINTIC3, 8, 0))
    assert not rep.arc_transitive and rep.tau_l is None
    assert rep.stabilizer == "Z2^1"
    assert rep.base_order == 16 and rep.lifted_order == 432


def reference_generators(info):
    """lifting_report's generators and tau_l, built for one row through
    subgroup_from_case."""
    n, eps, d = info.n, info.eps, info.step
    b_masks = [DCAut.periodic_swap(n, i, d).swaps for i in range(d)]
    if not info.weakly_reflexible:
        return tuple(subgroup_from_case(n, "ii", b_masks, eps)), None
    if info.core_refl.type1:
        tau_l = DCAut.full_swap(n)
    else:
        tau_l = DCAut(n, swaps=sum(1 << j for j in range(n) if j % (2 * d) < d))
    return tuple(subgroup_from_case(n, "iii", b_masks, eps, j_mask=tau_l.swaps)), tau_l


@pytest.mark.parametrize("p", (3, 5, 7))
def test_cached_classification_matches_a_build_from_scratch(p):
    # The lattice classifies each divisor once and lifting_report builds
    # one generator set per shape; both must read as a per-row build.
    for n in range(3, 9):
        for eps in (0, 1):
            modulus = code_modulus(n, eps, p)
            for g in modulus_divisors(n, eps, p):
                info = divisor_info(g, n, eps)
                step, core = core_polynomial(g, n)
                assert (info.step, info.core) == (step, core)
                assert info.core_refl == reflexibility_of(core)
                assert info.cofactor * g == modulus
                rep = lifting_report(info)
                assert (rep.generators, rep.tau_l) == reference_generators(info), (
                    g.to_text(), n, eps
                )


def test_a_strictly_type2_core_with_an_odd_quotient_is_refused_every_time():
    # No divisor has such a core; a hand-made row shows that the refusal is
    # raised on every call, not cached away.
    g = FpPoly(7, (1, 1, 1))
    info = DivisorInfo(
        g=g, n=3, eps=0, fiber_dim=1, step=1, core=g,
        core_refl=Reflexibility(False, True, 1), weakly_reflexible=True,
        maximal_divisor=True, maximal_weakly_reflexible=True, minimal_cover=True,
        cofactor=FpPoly(7, (6, 1)),
    )
    for _ in range(2):
        with pytest.raises(AssertionError, match="even quotient"):
            lifting_report(info)


def test_minimality_of_the_cubic_covers():
    got = [divisor_info(g, 3, 0).minimal_cover for g, _, _, _ in CUBIC_ROWS]
    assert got == [True, True, True, False, False, True, True]


def test_every_report_generator_lifts_across_the_sweep():
    for g, n, eps in small_cases():
        rep = lifting_report(divisor_info(g, n, eps))
        assert all(lifts_by_invariance(a, g, n, eps) for a in rep.generators)
        assert len(rep.generators) == rep.info.step + 1 + (1 if rep.arc_transitive else 0)


def test_lifted_generators_requires_the_matching_cover():
    rep = lifting_report(divisor_info(FpPoly(7, (5, 1)), 3, 0))
    other = build_cover(FpPoly(7, (3, 1)), 3, 0)
    with pytest.raises(ValueError):
        lifted_generators(rep, other)
    # The same divisor at another cycle length defines another cover.
    with pytest.raises(ValueError, match="does not belong"):
        lifted_generators(rep, build_cover(FpPoly(7, (5, 1)), 6, 0))


@pytest.mark.parametrize("family", [("pmtheta", 5, 1, 4), ("pmtheta", 13, 1, 6)])
def test_lifting_criteria_agree_on_the_extremal_families(family):
    fam = extremal_cover(*family)
    n = fam.n
    auts = [DCAut(n, *a) for a in itertools.product(range(1 << n), (0, 1), range(n))]
    disagree = [
        str(aut)
        for aut in auts
        if lifts_by_invariance(aut, fam.g, n, fam.eps)
        != isinstance(lift_by_propagation(aut, fam), np.ndarray)
    ]
    assert not disagree, f"{len(disagree)} of {len(auts)}: {disagree[:4]}"
