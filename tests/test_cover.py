"""Tests for cover graphs built from banded generator matrices."""

import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dccover
import dccover.cover as cover_module
from dccover.cover import (
    CoverGraph,
    GeneratorMatrix,
    NonSimpleCover,
    NotCertified,
    build_cover,
    extremal_cover,
    lifted_generators,
)
from dccover.fpoly import FpPoly, modulus_divisors, poly_one
from dccover.lift import lifting_report
from dccover.permgrp import (
    PermGroup,
    arc_action,
    automorphism_group,
    orbit_labels,
    perm_inverse,
    transitivity_profile,
)
from dccover.reflex import divisor_info

SEXTIC5 = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
QUINTIC3 = FpPoly(3, (1, 1, 1, 2, 0, 1))


def divisor_strategy():
    cases = []
    for p in (3, 5, 7):
        for n in range(3, 7):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    cases.append((g, n, eps))
    return st.sampled_from(cases)


# -- generator matrices -------------------------------------------------------


def test_banded_matrix_of_the_sextic():
    m = GeneratorMatrix.from_poly(SEXTIC5, 8)
    assert m.rows == ((3, 0, 4, 0, 2, 0, 1, 0), (0, 3, 0, 4, 0, 2, 0, 1))
    assert m.r == 2 and m.n == 8
    assert m.column(0) == (3, 0)
    assert m.column(7) == (0, 1)


def test_constant_divisor_gives_identity_matrix():
    m = GeneratorMatrix.from_poly(poly_one(7), 3)
    assert m.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_banded_matrix_matches_the_entrywise_reference():
    for p in (3, 5, 7):
        for n in range(3, 9):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    want = tuple(
                        tuple(g.coeff(j - i) for j in range(n))
                        for i in range(n - g.degree)
                    )
                    assert GeneratorMatrix.from_poly(g, n).rows == want


def test_matrix_entries_are_reduced_mod_p():
    m = GeneratorMatrix(5, [[-1, 7], np.array([5, 12])])
    assert m.rows == ((4, 2), (0, 2))
    assert all(type(x) is int for row in m.rows for x in row)
    assert m == GeneratorMatrix(5, np.array([[4, 2], [0, 2]]))


def test_matrix_validation():
    with pytest.raises(ValueError):
        GeneratorMatrix(4, ((1, 0),))
    with pytest.raises(ValueError, match="nonempty"):
        GeneratorMatrix(5, ())
    with pytest.raises(ValueError, match="nonempty"):
        GeneratorMatrix(5, ((),))
    with pytest.raises(ValueError, match="ragged rows"):
        GeneratorMatrix(5, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError):
        GeneratorMatrix.from_poly(SEXTIC5, 6)


def test_zero_column_is_caught():
    bad = GeneratorMatrix(5, ((1, 0, 2), (2, 0, 1)))
    with pytest.raises(NonSimpleCover) as err:
        CoverGraph(bad)
    assert err.value.column == 1
    assert CoverGraph(GeneratorMatrix.from_poly(SEXTIC5, 8)).order == 200


@pytest.mark.parametrize("rows", [((1, 1),), ((1, 2), (2, 1)), ((3,),)])
def test_fewer_than_three_columns_are_refused(rows):
    # On two layers the arcs ahead of a layer and those behind it join the
    # same two layers; ((1, 1),) gave a 2-layer multigraph.
    with pytest.raises(ValueError, match="three vertices"):
        CoverGraph(GeneratorMatrix(5, rows))


# -- cover construction --------------------------------------------------------


def test_worked_example_orders():
    assert build_cover(SEXTIC5, 8, 0).order == 200
    assert build_cover(QUINTIC3, 8, 0).order == 216
    assert build_cover(poly_one(7), 3, 0).order == 1029
    assert build_cover(FpPoly(5, (1, 1, 1)), 3, 0).order == 15


def test_explicit_neighbors_in_the_sextic_cover():
    cov = build_cover(SEXTIC5, 8, 0)
    # Vertex (0, 0): forward by column 0 = (3, 0), back by column 7 = (0, 1).
    assert cov.dart_ends[0].tolist() == [28, 27, 195, 180]
    assert cov.vertex_id((3, 0), 1) == 28
    assert cov.vertex_id((0, 4), 7) == 195


def test_vertex_roundtrip_and_layers():
    cov = build_cover(SEXTIC5, 8, 0)
    # Little-endian fiber digits, so the first digit varies fastest.
    fibers = [f[::-1] for f in itertools.product(range(cov.p), repeat=cov.r)]
    ids = [cov.vertex_id(fiber, layer) for layer in range(cov.n) for fiber in fibers]
    assert ids == list(range(cov.order))
    assert [cov.layer(vid) for vid in ids] == [layer for layer in range(cov.n) for _ in fibers]
    with pytest.raises(ValueError):
        cov.vertex_id((1,), 0)


def test_reverse_tracks_invert_each_other():
    cov = build_cover(QUINTIC3, 8, 0)
    ends = cov.dart_ends
    # Track t at u ends at w, and track t ^ 2 at w leads back to u.
    assert (ends[ends, [2, 3, 0, 1]] == np.arange(cov.order)[:, None]).all()


def small_covers(max_order=1000, ns=range(3, 6)):
    """Report and cover of every divisor over p 3,5,7 and the lengths ns
    (3..5 by default) up to max_order vertices."""
    for p in (3, 5, 7):
        for n in ns:
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    info = divisor_info(g, n, eps)
                    if n * p**info.fiber_dim <= max_order:
                        yield lifting_report(info), build_cover(g, n, eps)


def test_lifted_arc_actions_project_onto_base_arc_actions():
    checked = 0
    for report, cov in small_covers():
        arc_perm, _ = arc_action(cov.dart_ends)
        arcs = np.arange(4 * cov.order)
        base = arcs // (4 * cov.fiber_size) * 4 + arcs % 4
        # Each lift covers its generator; each deck translation covers the identity.
        expected = [aut.arc_perm() for aut in report.generators]
        expected += [list(range(4 * cov.n))] * cov.r
        lifts = lifted_generators(report, cov)
        assert len(lifts) == len(expected)
        for perm, on_base in zip(lifts, expected):
            assert np.array_equal(base[arc_perm(perm)], np.asarray(on_base)[base])
        checked += 1
    assert checked == 68


def test_build_cover_validation():
    with pytest.raises(ValueError):
        build_cover(SEXTIC5, 2, 0)
    with pytest.raises(ValueError):
        build_cover(SEXTIC5, 8, 2)
    with pytest.raises(ValueError):
        build_cover(FpPoly(5, (3, 0, 4, 0, 2, 0, 2)), 8, 0)  # not monic
    with pytest.raises(ValueError):
        build_cover(SEXTIC5, 8, 1)  # divides x^8 - 1, not x^8 + 1
    with pytest.raises(ValueError):
        build_cover(FpPoly(5, (1, 1)), 3, 0)  # x + 1 does not divide x^3 - 1


@settings(max_examples=60, deadline=None)
@given(divisor_strategy())
def test_cover_invariants_across_divisors(case):
    g, n, eps = case
    cov = build_cover(g, n, eps)
    assert cov.order == n * cov.p ** cov.r
    adj = cov.dart_ends.tolist()
    assert all(len(nbrs) == 4 for nbrs in adj)
    assert all(len(set(nbrs)) == 4 for nbrs in adj)  # simple
    assert cov.is_connected()
    # Undirected consistency.
    for u in range(0, cov.order, max(1, cov.order // 40)):
        for v in adj[u]:
            assert u in adj[v]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(0, 2), min_size=r, max_size=r).filter(any),
            min_size=3,
            max_size=6,
        )
    )
)
def test_is_connected_matches_plain_closure(columns):
    cov = CoverGraph(GeneratorMatrix(3, tuple(zip(*columns))))
    adj = cov.dart_ends.tolist()
    seen, frontier = {0}, [0]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert cov.is_connected() == (len(seen) == cov.order)


def test_translations_are_regular_deck_transformations():
    cov = build_cover(SEXTIC5, 8, 0)
    trans = cov.translations()
    assert len(trans) == cov.r
    prof = transitivity_profile(trans, cov)  # raises if not automorphisms
    assert prof["vertex_orbits"] == cov.n
    G = PermGroup(trans)
    assert G.order() == cov.fiber_size
    # Transitive on each fiber: the orbit of vertex 0 is the layer-0 fiber.
    images = np.array([*trans, *map(perm_inverse, trans)], dtype=np.int32)
    label = orbit_labels(images.T)
    assert np.flatnonzero(label == label[0]).tolist() == list(range(cov.fiber_size))
    # Commuting generators.
    a, b = (np.asarray(t) for t in trans)
    assert np.array_equal(a[b], b[a])


def test_connectivity_checks_survive_optimized_mode():
    # python -O strips assert statements; the connectivity checks must still raise.
    script = "\n".join([
        "from dccover.cover import CoverGraph, build_cover, extremal_cover",
        "from dccover.fpoly import FpPoly",
        "CoverGraph.is_connected = lambda self: False",
        "for make in (lambda: build_cover(FpPoly(7, (1, 1, 1)), 3, 0),",
        "             lambda: extremal_cover('pm1', 5, 2, 3)):",
        "    try:",
        "        make()",
        "    except AssertionError:",
        "        continue",
        "    raise SystemExit(1)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(dccover.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=120)
    assert done.returncode == 0


# -- certified lifted-group orders ----------------------------------------------


def certified_order(cov, perms):
    """The order of the group the permutations generate, read on base darts."""
    on_darts, _ = cov.base_action(perms)
    return PermGroup(on_darts, 4 * cov.n).order() * cov.fiber_size


def test_certified_order_is_the_lifted_order_below_aut():
    cov = build_cover(FpPoly(7, (2, 4, 1)), 3, 0)
    lifted = lifted_generators(lifting_report(divisor_info(cov.g, 3, 0)), cov)
    assert certified_order(cov, lifted) == 42
    # |Aut| = 336 is 8 times the lifted order: some automorphisms mix fibers.
    assert automorphism_group(cov).order() == 336


def test_certified_order_matches_the_reference_chain():
    rng = random.Random(7)
    checked = 0
    for report, cov in small_covers():
        gens = lifted_generators(report, cov)
        bound = certified_order(cov, gens)
        certified = PermGroup(gens, upper_bound=bound)
        reference = PermGroup(gens)
        assert certified.order() == reference.order() == bound
        for _ in range(4):
            member = np.arange(cov.order)
            for _ in range(6):
                member = np.asarray(rng.choice(gens))[member]
            moved = member.copy()
            i, j = rng.sample(range(cov.order), 2)
            moved[[i, j]] = moved[[j, i]]
            assert certified.contains(member) and reference.contains(member)
            assert certified.contains(moved) == reference.contains(moved)
        checked += 1
    assert checked == 68


def test_certified_order_stops_at_the_bound_on_a_large_cover():
    # 18,750 vertices: the closure must stop once the chain meets the bound,
    # since sifting every Schreier generator at this degree takes over a minute.
    start = time.perf_counter()
    g = FpPoly(5, (1, 1))
    report = lifting_report(divisor_info(g, 6, 0))
    cov = build_cover(g, 6, 0)
    gens = lifted_generators(report, cov)
    bound = certified_order(cov, gens)
    assert cov.order == 18750
    order = PermGroup(gens, upper_bound=bound).order()
    assert order == bound == report.lifted_order == 75000
    assert time.perf_counter() - start < 10


# -- the lifted group on the 4n base darts --------------------------------------


def test_base_action_matches_the_degree_n_group_on_sweep_covers():
    # The degree-N chain gets the order read on base darts as its upper
    # bound and stops once its orbit product reaches it.  A bound below the
    # true order that the product meets exactly is returned, not refused,
    # so random products of the generators are sifted too: a chain stopped
    # short of the group refuses some of them.  Lifts with fewer
    # translations give other orbit counts.
    rng = random.Random(7)
    checked = 0
    for report, cov in small_covers(2500, range(3, 9)):
        gens = lifted_generators(report, cov)
        trans = cov.translations()
        for perms in (gens, trans, gens[:1] + trans):
            on_darts, base = cov.base_action(perms)
            order = PermGroup(on_darts, 4 * cov.n).order() * cov.fiber_size
            group = PermGroup(perms, upper_bound=order)
            assert group.order() == order
            for _ in range(4):
                member = np.arange(cov.order)
                for _ in range(6):
                    member = np.asarray(rng.choice(perms))[member]
                assert group.contains(member)
            assert transitivity_profile(on_darts, base) == transitivity_profile(perms, cov)
        checked += 1
    assert checked == 224


NOT_TRANSITIVE = "the lifts acting trivially on base darts are not transitive on a fiber"
REFUSALS = {
    "disconnected": "the cover is disconnected",
    "swapped-pair": "a lift is not an automorphism: edge (0,54) is not preserved",
    "mixes-fibers": "a lift does not act on the base darts",
    "broken-reversal": "the arc reversal does not act on the base darts",
    "lifts-only": NOT_TRANSITIVE,
    "one-translation": NOT_TRANSITIVE,
}


@pytest.mark.parametrize("case", REFUSALS)
def test_base_action_refuses_what_it_cannot_certify(case, monkeypatch):
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    assert cov.r == 2
    gens = lifted_generators(lifting_report(divisor_info(cov.g, 3, 0)), cov)
    lifts, trans = gens[: -cov.r], gens[-cov.r :]
    cov.base_action(gens)  # lifts and translations together are certified
    swap = np.arange(cov.order)
    swap[[0, 1]] = [1, 0]
    if case == "disconnected":
        # The second matrix row is zero, so the second fiber digit never moves.
        cov = CoverGraph(GeneratorMatrix(5, ((1, 1, 1), (0, 0, 0))))
        perms = cov.translations()
    elif case == "mixes-fibers":
        # |Aut| is 8 times the lifted order here.
        cov = build_cover(FpPoly(7, (2, 4, 1)), 3, 0)
        perms = automorphism_group(cov).gens
    elif case == "broken-reversal":
        # Swapping the reverses of the first two arcs at vertex 0 sends them
        # over other base darts than the reverses of their fiber's twins.
        real = cover_module.arc_action

        def swapped_reversal(graph):
            arc_perm, darts = real(graph)
            swapped = darts.reversal[[1, 0, *range(2, len(darts.reversal))]]
            return arc_perm, darts._replace(reversal=swapped)

        monkeypatch.setattr(cover_module, "arc_action", swapped_reversal)
        perms = gens
    else:
        # The lifts act on base darts, but none acts trivially there, and one
        # translation moves vertex 0 along a line of its 49-point fiber only.
        perms = {
            "swapped-pair": gens + [swap],
            "lifts-only": lifts,
            "one-translation": lifts + trans[:1],
        }[case]
    with pytest.raises(NotCertified) as refused:
        cov.base_action(perms)
    assert str(refused.value) == REFUSALS[case]


# -- extremal families ----------------------------------------------------------


def test_block_families_match_the_generic_construction():
    for kind, p, r, blocks in (
        ("pm1", 5, 2, 3),
        ("pm1", 3, 3, 2),
        ("pm1", 7, 1, 5),
        ("pmtheta", 5, 2, 2),
        ("pmtheta", 5, 1, 4),
        ("pmtheta", 13, 3, 2),
    ):
        fam = extremal_cover(kind, p, r, blocks)
        # Block k is +-s_k times the identity: s_k = 1 for pm1, and for
        # pmtheta theta on even k and 1 on odd k.
        theta = min((x for x in range(2, p) if (x * x + 1) % p == 0), default=None)
        rows, eye = np.array(fam.matrix.rows), np.eye(r, dtype=np.int64)
        for k in range(blocks):
            block = rows[:, k * r : k * r + r]
            scale = theta if kind == "pmtheta" and k % 2 == 0 else 1
            assert any(
                np.array_equal(block, sign * scale * eye % p) for sign in (1, -1)
            ), (kind, p, r, blocks, k)
        assert fam.order == r * blocks * p**r
        assert fam.is_connected()
        assert all(len(set(nbrs)) == 4 for nbrs in fam.dart_ends.tolist())


def test_pm1_single_row_is_all_ones():
    fam = extremal_cover("pm1", 7, 1, 5)
    assert fam.matrix.rows == ((1, 1, 1, 1, 1),)
    assert fam.g == FpPoly(7, (1, 1, 1, 1, 1))


def test_extremal_validation():
    with pytest.raises(ValueError):
        extremal_cover("pm1", 5, 1, 1)
    with pytest.raises(ValueError):
        extremal_cover("pm1", 5, 2, 1)
    with pytest.raises(ValueError):
        extremal_cover("pmtheta", 7, 2, 2)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        extremal_cover("pmtheta", 5, 2, 3)  # odd block count
    with pytest.raises(ValueError):
        extremal_cover("pmtheta", 13, 1, 2)  # n = 2
    with pytest.raises(ValueError):
        extremal_cover("blocks", 5, 2, 2)
    with pytest.raises(ValueError, match="9 is not an odd prime"):
        extremal_cover("pmtheta", 9, 1, 2)
    with pytest.raises(ValueError, match="21 is not an odd prime"):
        extremal_cover("pmtheta", 21, 1, 2)
