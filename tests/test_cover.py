"""Tests for cover graphs built from divisors."""

import itertools
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dccover
from dccover.cover import (
    CoverGraph,
    NotCertified,
    build_cover,
    extremal_cover,
    lifted_generators,
)
from dccover.fpoly import FpPoly, poly_one
from dccover.lift import lifting_report
from dccover.permgrp import (
    PermGroup,
    arc_action,
    as_perm,
    automorphism_group,
    orbit_labels,
    perm_inverse,
    transitivity_profile,
)
from dccover.reflex import divisor_info, modulus_divisors

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


# -- voltage columns ------------------------------------------------------------


def entrywise_columns(g, n):
    """Columns of the banded matrix whose entry (i, j) is g's coefficient j - i."""
    rows = [[g.coeff(j - i) for j in range(n)] for i in range(n - g.degree)]
    return [tuple(col) for col in zip(*rows)]


def test_banded_matrix_of_the_sextic():
    cov = CoverGraph(SEXTIC5, 8, 0)
    assert cov.r == 2 and cov.n == 8
    assert cov.columns() == [(3, 0), (0, 3), (4, 0), (0, 4), (2, 0), (0, 2), (1, 0), (0, 1)]


def test_constant_divisor_gives_identity_matrix():
    assert CoverGraph(poly_one(7), 3, 0).columns() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_banded_matrix_matches_the_entrywise_reference():
    # No column is zero either, as the CoverGraph docstring proves: a zero
    # column would make the two arcs of a layer coincide.  columns() reads
    # only g, n and r, and most of these covers are too large to build.
    count = 0
    for p in (3, 5, 7, 11, 13):
        for n in range(3, 13):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    cols = CoverGraph.columns(SimpleNamespace(g=g, n=n, r=n - g.degree))
                    assert cols == entrywise_columns(g, n)
                    assert all(any(col) for col in cols), (p, n, eps, g.coeffs)
                    count += 1
    assert count == 7532


def test_the_constructor_takes_only_a_proper_divisor():
    with pytest.raises(ValueError, match="not a proper divisor"):
        CoverGraph(SEXTIC5, 6, 0)
    with pytest.raises(ValueError, match="monic"):
        CoverGraph(FpPoly(7, (5, 2)), 3, 0)
    with pytest.raises(ValueError, match="eps must be 0 or 1"):
        CoverGraph(FpPoly(7, (5, 1)), 3, 2)


@pytest.mark.parametrize("rows", [((1, 1),), ((1, 0), (0, 1)), ((1,),)])
def test_fewer_than_three_columns_are_refused(rows):
    # Each case is the voltage matrix of g, its first row, at n, its width.
    # On two layers the arcs ahead of a layer and those behind it join the
    # same two layers; ((1, 1),), of 1 + x at n = 2, gave a 2-layer multigraph.
    with pytest.raises(ValueError, match="three vertices"):
        CoverGraph(FpPoly(5, rows[0]), len(rows[0]), 0)


def test_a_cover_too_large_for_int32_ids_is_refused_before_any_table(monkeypatch):
    # x - 1 over Z_7 at n = 12 has 12 * 7^11 = 23,727,920,916 vertices;
    # building its tables would take about 190 GB.
    def allocate(self, vecs):
        raise AssertionError("a fiber table was built")

    monkeypatch.setattr(CoverGraph, "_fiber_add", allocate)
    with pytest.raises(ValueError, match="23727920916 vertices"):
        CoverGraph(FpPoly(7, (6, 1)), 12, 0)


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
    with pytest.raises(ValueError, match="expected 2 fiber digits"):
        cov.vertex_id((1,), 0)
    # A float digit or layer is refused, not truncated.
    assert cov.vertex_id((np.int64(2), 0), np.int32(1)) == 27
    for fiber, layer in (((2.7, 0), 0), ((2, 0), 0.5)):
        with pytest.raises(ValueError, match="must be integers"):
            cov.vertex_id(fiber, layer)


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


def arc_table_projection(cov, perms):
    """Each permutation's base-dart action read from the arc table: the
    images of the 4N arcs by arc_action's search, sent to the base darts
    they lie over.  None when some permutation maps two arcs over one base
    dart to arcs over different base darts."""
    arc_perm, _ = arc_action(cov.dart_ends)
    arcs = np.arange(4 * cov.order)
    base = arcs // (4 * cov.fiber_size) * 4 + arcs % 4
    out = []
    for perm in perms:
        image = base[arc_perm(perm)]
        on_base = np.empty(4 * cov.n, dtype=np.int32)
        on_base[base] = image
        if not np.array_equal(on_base[base], image):
            return None
        out.append(on_base)
    return out


def test_base_action_matches_the_arc_table_projection():
    # base_action reads tracks at one vertex per layer; the arc table reads
    # every arc.  On small covers, automorphism_group's generators need not
    # preserve fibers, and base_action must refuse exactly those; with the
    # translations beside them, the kernel check passes.
    lifted = refused = 0
    for report, cov in small_covers(2500, range(3, 9)):
        gens = lifted_generators(report, cov)
        on_darts, _ = cov.base_action(gens)
        expected = arc_table_projection(cov, gens)
        assert [perm.tolist() for perm in on_darts] == [perm.tolist() for perm in expected]
        lifted += 1
        if cov.order > 300:
            continue
        aut_gens = automorphism_group(cov, limit=300).gens + cov.translations()
        expected = arc_table_projection(cov, aut_gens)
        if expected is None:
            with pytest.raises(NotCertified, match="a lift does not act on the base darts"):
                cov.base_action(aut_gens)
            refused += 1
        else:
            on_darts, _ = cov.base_action(aut_gens)
            assert [perm.tolist() for perm in on_darts] == [perm.tolist() for perm in expected]
    assert lifted == 224
    assert refused == 38  # of the 132 covers searched


NOT_TRANSITIVE = (
    "the given permutations acting trivially on base darts are not transitive "
    "on a fiber; adding the deck translations supplies the kernel"
)
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
        # No divisor gives a disconnected cover, so the cached flag is forced.
        cov.__dict__["_connected"] = False
        perms = trans
    elif case == "mixes-fibers":
        # |Aut| is 8 times the lifted order here.
        cov = build_cover(FpPoly(7, (2, 4, 1)), 3, 0)
        perms = automorphism_group(cov).gens
    elif case == "broken-reversal":
        # Tracks 2 and 3 trade places at vertex 1: the edges stay, but the
        # dart of track 2 there comes back along track 1, not track 0.
        edges = cov.edges()
        ends = cov.dart_ends.copy()
        ends[1, 2:] = ends[1, [3, 2]]
        ends.flags.writeable = False
        monkeypatch.setattr(cov, "dart_ends", ends)
        assert cov.edges() == edges
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


@pytest.mark.parametrize("kind", ["wrong-length", "repeated-image"])
def test_base_action_reports_the_first_failure_in_list_order(kind):
    # A permutation that as_perm refuses and one that breaks a dart each
    # stop the check where they stand in the list; NotCertified is itself a
    # ValueError, so the type is compared exactly.
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    gens = lifted_generators(lifting_report(divisor_info(cov.g, 3, 0)), cov)
    swap = np.arange(cov.order)
    swap[[0, 1]] = [1, 0]
    bad = np.arange(cov.order - 1) if kind == "wrong-length" else np.append(swap[:-1], 0)
    with pytest.raises(ValueError) as invalid:
        as_perm(bad, cov.order)
    for perms, error, message in (
        ([bad, swap] + gens, ValueError, str(invalid.value)),
        (gens + [swap, bad], NotCertified, REFUSALS["swapped-pair"]),
        (gens + [bad], ValueError, str(invalid.value)),
    ):
        with pytest.raises(ValueError) as refused:
            cov.base_action(perms)
        assert type(refused.value) is error
        assert str(refused.value) == message


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
        rows, eye = np.array(fam.columns()).T, np.eye(r, dtype=np.int64)
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
    assert fam.columns() == [(1,)] * 5
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
