"""Tests for the permutation-group engine and the automorphism oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dccover import cover as cover_module, permgrp
from dccover.permgrp import (
    NotAnAutomorphism,
    OracleLimit,
    PermGroup,
    arc_action,
    as_perm,
    automorphism_group,
    canonical_form,
    orbit_labels,
    perm_identity,
    perm_inverse,
    transitivity_profile,
)
from dccover.cover import build_cover, lifted_generators
from dccover.fpoly import FpPoly, modulus_divisors
from dccover.lift import lifting_report
from dccover.reflex import divisor_info


def brute_closure(gens, degree, cap=20000):
    """All group elements as tuples, by breadth-first closure."""
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
        assert len(seen) <= cap, "closure blew past the cap"
    return seen


def brute_aut(adj):
    """All automorphisms of a small graph by exhaustive search."""
    n = len(adj)
    edges = {(u, v) for u in range(n) for v in adj[u]}
    out = []
    for p in itertools.permutations(range(n)):
        if all((p[u], p[v]) in edges for (u, v) in edges):
            out.append(p)
    return out


def cycle_adj(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


perm_strategy = st.integers(3, 8).flatmap(
    lambda n: st.permutations(list(range(n)))
)


# -- core permutation helpers -------------------------------------------------


def test_as_perm_rejects_bad_input():
    with pytest.raises(ValueError):
        as_perm([0, 0, 1])
    with pytest.raises(ValueError):
        as_perm([0, 2])
    with pytest.raises(ValueError):
        as_perm([0, 1, 2], degree=4)


@given(perm_strategy, st.randoms(use_true_random=False))
def test_mult_applies_left_then_right(p, rng):
    q = list(range(len(p)))
    rng.shuffle(q)
    r = as_perm(q)[as_perm(p)]
    for x in range(len(p)):
        assert r[x] == q[p[x]]


@given(perm_strategy)
def test_inverse_cancels(p):
    arr = as_perm(p)
    ident = perm_identity(len(p))
    assert np.array_equal(perm_inverse(arr)[arr], ident)
    assert np.array_equal(arr[perm_inverse(arr)], ident)


# -- stabilizer chain ---------------------------------------------------------


def test_symmetric_group_order():
    G = PermGroup([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
    assert G.order() == 120
    assert G.contains([4, 3, 2, 1, 0])


def test_cyclic_and_alternating_orders():
    assert PermGroup([[1, 2, 3, 4, 5, 6, 0]]).order() == 7
    assert PermGroup([[1, 0, 3, 2], [1, 2, 0, 3]]).order() == 12


def test_contains_rejects_outside_element():
    C5 = PermGroup([[1, 2, 3, 4, 0]])
    assert C5.contains([2, 3, 4, 0, 1])
    assert not C5.contains([1, 0, 2, 3, 4])


def test_trivial_group():
    G = PermGroup([], degree=4)
    assert G.order() == 1
    assert G.contains([0, 1, 2, 3])
    assert not G.contains([1, 0, 2, 3])
    # No generators: four orbits, each its own point.
    assert orbit_labels(generator_table([], 4)).tolist() == [0, 1, 2, 3]


def test_bound_above_the_order_falls_back_to_the_exact_order():
    gens = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
    for bound in (120, 121, 240, 10**6):
        G = PermGroup(gens, upper_bound=bound)
        assert G.order() == 120
        assert G.contains([4, 3, 2, 1, 0])
    A4 = PermGroup([[1, 0, 3, 2], [1, 2, 0, 3]], upper_bound=24)
    assert A4.order() == 12
    assert not A4.contains([1, 0, 2, 3])
    assert PermGroup([], 4, upper_bound=5).order() == 1


def test_bound_below_the_chain_order_raises():
    with pytest.raises(ValueError):
        PermGroup([[1, 2, 0]], upper_bound=2).order()
    G = PermGroup([[1, 2, 3, 4, 5, 6, 0]], upper_bound=1)
    with pytest.raises(ValueError):
        G.contains([0, 1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        G.order()  # a failed build is not kept


def test_a_false_bound_met_exactly_is_returned():
    # The orbit product 4 * 3 meets the bound 12 before the chain of S4 is
    # complete, so the bound must be proven: only sifting shows the chain
    # missing an element the generators give.
    S4 = PermGroup([[1, 0, 2, 3], [1, 2, 3, 0]], upper_bound=12)
    assert S4.order() == 12
    assert not S4.contains([1, 0, 3, 2])


def test_equal_bounds_give_the_order_without_a_chain():
    S5 = PermGroup([[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]], upper_bound=120, lower_bound=120)
    assert S5.order() == 120
    assert S5._levels is None
    assert S5.contains([4, 3, 2, 1, 0])  # membership still builds the chain
    assert S5._levels is not None


def test_lower_bound_above_the_upper_bound_raises():
    with pytest.raises(ValueError):
        PermGroup([[1, 2, 0]], upper_bound=3, lower_bound=6)


def test_false_lower_bound_raises_once_the_chain_closes():
    # Z7 has order 7: a lower bound of 14 is false, whatever the upper bound.
    for upper in (None, 21):
        G = PermGroup([[1, 2, 3, 4, 5, 6, 0]], upper_bound=upper, lower_bound=14)
        with pytest.raises(ValueError):
            G.order()
        assert G._levels is None  # a failed build is not kept
    assert PermGroup([[1, 2, 0]], upper_bound=6, lower_bound=3).order() == 3


def generator_table(gens, degree):
    """Row x lists the images of x under the generators and their inverses."""
    images = [as_perm(g, degree) for g in gens]
    images += [perm_inverse(g) for g in images]
    return np.array(images, dtype=np.int32).reshape(len(images), degree).T


def orbits_from_labels(label):
    """The orbits that the labels name, each ascending, in order of first point."""
    orbits = {}
    for x, root in enumerate(label.tolist()):
        orbits.setdefault(root, []).append(x)
    return list(orbits.values())


def test_orbits_partition():
    label = orbit_labels(generator_table([[1, 0, 2, 4, 3, 5]], 6))
    assert orbits_from_labels(label) == [[0, 1], [2], [3, 4], [5]]
    assert np.flatnonzero(label == label[4]).tolist() == [3, 4]


def closure_orbits(gens, degree):
    """Orbits by plain set closure, each ascending, ordered by least point."""
    left = set(range(degree))
    out = []
    while left:
        orbit = {min(left)}
        frontier = list(orbit)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = int(g[x])
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        left -= orbit
        out.append(sorted(orbit))
    return out


def check_orbits(gens, degree):
    want = closure_orbits(gens, degree)
    # The orbit labels of the generators and their inverses as columns.
    label = orbit_labels(generator_table(gens, degree))
    assert orbits_from_labels(label) == want
    for orbit in want:
        assert np.flatnonzero(label == label[orbit[-1]]).tolist() == orbit
    least = np.zeros(degree, dtype=int)
    for orbit in want:
        least[orbit] = orbit[0]
    assert label.tolist() == least.tolist()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(list(range(n))), max_size=3), st.just(n)
        )
    )
)
@example(([], 0))
@example(([], 5))
def test_orbits_match_plain_closure(case):
    check_orbits(*case)


@pytest.mark.parametrize("numbering", ["in order", "random"])
def test_orbits_of_one_long_cycle(numbering):
    # A single 20,000-cycle: one orbit, however its points are numbered.
    n = 20_000
    points = np.arange(n)
    if numbering == "random":
        points = np.random.default_rng(0).permutation(n)
    cycle = np.empty(n, dtype=np.int32)
    cycle[points] = np.roll(points, -1)
    check_orbits([cycle], n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 7).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))), min_size=1, max_size=3
        )
    )
)
def test_order_and_membership_match_brute_closure(gens):
    degree = len(gens[0])
    elements = brute_closure(gens, degree)
    for bound in (None, len(elements)):
        G = PermGroup(gens, upper_bound=bound)
        assert G.order() == len(elements)
        for p in itertools.islice(elements, 12):
            assert G.contains(list(p))
        for p in itertools.permutations(range(degree)):
            if p not in elements:
                assert not G.contains(list(p))
                break


# -- transitivity profiles ----------------------------------------------------


def test_profile_rotations_of_a_cycle():
    n = 6
    rot = [(i + 1) % n for i in range(n)]
    prof = transitivity_profile([rot], cycle_adj(n))
    assert prof["vertex_transitive"]
    assert prof["edge_transitive"]
    assert not prof["arc_transitive"]
    assert prof["arc_orbits"] == 2


def test_profile_dihedral_closes_arcs():
    n = 6
    rot = [(i + 1) % n for i in range(n)]
    refl = [(-i) % n for i in range(n)]
    prof = transitivity_profile([rot, refl], cycle_adj(n))
    assert prof["arc_transitive"]
    assert prof == {
        "vertex_orbits": 1,
        "edge_orbits": 1,
        "arc_orbits": 1,
        "vertex_transitive": True,
        "edge_transitive": True,
        "arc_transitive": True,
    }


def closure_orbit_counts(gens, adj):
    """Orbit counts on vertices, edges and arcs by plain set closure."""

    def count(points, act):
        left = set(points)
        orbits = 0
        while left:
            orbits += 1
            frontier = [left.pop()]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = act(g, x)
                    if y in left:
                        left.remove(y)
                        frontier.append(y)
        return orbits

    arcs = [(u, v) for u in range(len(adj)) for v in adj[u]]
    edges = {frozenset(a) for a in arcs}
    return (
        count(range(len(adj)), lambda g, x: int(g[x])),
        count(edges, lambda g, e: frozenset(int(g[x]) for x in e)),
        count(arcs, lambda g, a: (int(g[a[0]]), int(g[a[1]]))),
    )


def profile_counts(gens, graph):
    prof = transitivity_profile(gens, graph)
    return prof["vertex_orbits"], prof["edge_orbits"], prof["arc_orbits"]


def test_profile_matches_plain_closure_on_small_covers():
    checked = 0
    for p in (3, 5, 7):
        for n in range(3, 9):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    info = divisor_info(g, n, eps)
                    if n * p**info.fiber_dim > 200:
                        continue
                    cov = build_cover(g, n, eps)
                    adj = cov.dart_ends.tolist()
                    lifted = lifted_generators(lifting_report(info), cov)
                    for gens in (lifted, cov.translations()):
                        want = closure_orbit_counts(gens, adj)
                        assert profile_counts(gens, cov) == want, (p, n, eps, g.coeffs)
                        assert profile_counts(gens, adj) == want
                    checked += 1
    assert checked > 50


@pytest.mark.parametrize("gens", [[], [[3, 2, 1, 0]]])
def test_profile_matches_plain_closure_on_a_ragged_graph(gens):
    path = [[1], [0, 2], [1, 3], [2]]
    assert profile_counts(gens, path) == closure_orbit_counts(gens, path)


def test_profile_needs_a_dart_at_every_vertex():
    # Orbits are counted on darts, which cannot see an isolated vertex.
    with pytest.raises(ValueError, match="no dart"):
        transitivity_profile([[1, 0, 2]], [[1], [0], []])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: arc_action([[1, 1], [0, 0]]), "repeats an arc"),
        (lambda: transitivity_profile([[1, 0]], [[1, 1], [0, 0]]), "repeats an arc"),
        (lambda: arc_action([[1], []]), "not symmetric"),
        (lambda: arc_action([[1, 2], [0]]), "not a vertex"),
        (lambda: arc_action([[1, -1], [0]]), "not a vertex"),
    ],
    ids=["repeated-arc", "repeated-arc-profile", "asymmetric", "too-large", "negative"],
)
def test_arc_action_refuses_a_graph_it_cannot_number(call, message):
    # Two parallel arcs would find the same key, so the arc map would not be
    # a bijection, and the profile counted 1 arc orbit on 2 vertex orbits.
    with pytest.raises(ValueError, match=message):
        call()


def test_profile_rejects_non_automorphism():
    bad = [1, 2, 3, 0]
    path = [[1], [0, 2], [1, 3], [2]]
    with pytest.raises(NotAnAutomorphism):
        transitivity_profile([bad], path)


# -- automorphism oracle ------------------------------------------------------


def test_aut_orders_of_named_graphs():
    assert automorphism_group(cycle_adj(5)).order() == 10
    assert automorphism_group(cycle_adj(8)).order() == 16
    k5 = [[j for j in range(5) if j != i] for i in range(5)]
    assert automorphism_group(k5).order() == 120
    petersen = {
        0: [1, 4, 5], 1: [0, 2, 6], 2: [1, 3, 7], 3: [2, 4, 8], 4: [0, 3, 9],
        5: [0, 7, 8], 6: [1, 8, 9], 7: [2, 5, 9], 8: [3, 5, 6], 9: [4, 6, 7],
    }
    assert automorphism_group([petersen[i] for i in range(10)]).order() == 120


def test_aut_of_rigid_graph_is_trivial():
    # A path with a pendant triangle on one end has no symmetry.
    adj = [[1], [0, 2], [1, 3, 4], [2, 4], [2, 3, 5], [4]]
    assert automorphism_group(adj).order() == 1


def graph_strategy(max_n=7):
    def build(n, picks):
        pairs = list(itertools.combinations(range(n), 2))
        adj = [[] for _ in range(n)]
        for (u, v), keep in zip(pairs, picks):
            if keep:
                adj[u].append(v)
                adj[v].append(u)
        return adj

    return st.integers(4, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.booleans(),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    ).map(lambda t: build(*t))


@settings(max_examples=30, deadline=None)
@given(graph_strategy())
def test_aut_order_matches_exhaustive_search(adj):
    expected = len(brute_aut(adj))
    assert automorphism_group(adj).order() == expected


@settings(max_examples=30, deadline=None)
@given(graph_strategy(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(adj, rng):
    n = len(adj)
    lab = list(range(n))
    rng.shuffle(lab)
    relab = [[] for _ in range(n)]
    for u in range(n):
        for v in adj[u]:
            relab[lab[u]].append(lab[v])
    assert canonical_form(adj) == canonical_form(relab)


def test_non_isomorphic_pairs():
    # Same vertex count and degree sequence: C6 against two triangles.
    two_triangles = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
    assert canonical_form(cycle_adj(6)) != canonical_form(two_triangles)
    assert canonical_form(cycle_adj(5)) != canonical_form(cycle_adj(6))


def test_oracle_limit_is_enforced():
    with pytest.raises(OracleLimit):
        automorphism_group(cycle_adj(10), limit=9)
    with pytest.raises(OracleLimit):
        canonical_form(cycle_adj(10), limit=9)


def test_time_budget_stops_the_search():
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    with pytest.raises(OracleLimit, match="time budget"):
        automorphism_group(cov, time_budget=1e-9)
    with pytest.raises(OracleLimit, match="time budget"):
        canonical_form(cov, time_budget=1e-9)


def test_canonical_form_agrees_on_table_lists_and_relabelling():
    cov = build_cover(FpPoly(7, (5, 1)), 3, 0)
    adj = cov.dart_ends.tolist()
    lab = np.random.default_rng(0).permutation(len(adj))
    relab = [[] for _ in adj]
    for u, nbrs in enumerate(adj):
        relab[lab[u]] = [int(lab[v]) for v in nbrs]
    assert canonical_form(cov) == canonical_form(adj) == canonical_form(relab)


def test_aut_order_matches_networkx_on_small_covers():
    # VF2++ rather than GraphMatcher, which takes several times longer to
    # count the 20,480 automorphisms of each 20-vertex cover over Z_5.
    nx = pytest.importorskip("networkx")
    checked = 0
    for p in (3, 5, 7):
        for n in range(3, 9):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    if n * p ** divisor_info(g, n, eps).fiber_dim > 21:
                        continue
                    cov = build_cover(g, n, eps)
                    graph = nx.Graph(cov.edges())
                    want = sum(1 for _ in nx.vf2pp_all_isomorphisms(graph, graph))
                    assert automorphism_group(cov).order() == want, (p, n, eps, g.coeffs)
                    checked += 1
    assert checked > 20


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: automorphism_group([]).order(), 1),
        (lambda: canonical_form([]), (0, b"")),
        (lambda: canonical_form([]) == canonical_form([]), True),
    ],
)
def test_oracle_on_the_graph_without_vertices(call, expected):
    assert call() == expected


def test_bounded_aut_order_matches_the_unbounded_closure():
    # On every cover of this sweep the search's bounds meet, so order()
    # builds no chain; the unbounded closure confirms the value.
    checked = 0
    for p in (3, 5, 7):
        for n in range(3, 6):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    if n * p ** divisor_info(g, n, eps).fiber_dim > 500:
                        continue
                    aut = automorphism_group(build_cover(g, n, eps), limit=500)
                    want = PermGroup(aut.gens).order()
                    key = (p, n, eps, g.coeffs)
                    assert aut.lower_bound == aut.upper_bound == want, key
                    assert aut.order() == want and aut._levels is None, key
                    checked += 1
    assert checked > 50


@pytest.mark.parametrize("coeffs", [(2, 1, 3, 4, 2, 1), (3, 1, 2, 4, 3, 1)])
def test_aut_order_runs_the_chain_when_the_bounds_differ(coeffs):
    # On these 30-vertex covers the target cells of the first path multiply
    # to twice the order the found generators reach, so only the chain can
    # give the order.  networkx counts 720 automorphisms on each.
    aut = automorphism_group(build_cover(FpPoly(5, coeffs), 6, 1))
    assert (aut.lower_bound, aut.upper_bound) == (720, 1440)
    assert aut.order() == 720
    assert aut._levels is not None


def test_automorphism_group_builds_one_arc_action(monkeypatch):
    # The generators are checked through one arc table; the order needs no
    # second one, as the fiber bound of the cover did.
    calls = []
    real = permgrp.arc_action

    def counted(adj):
        calls.append(1)
        return real(adj)

    monkeypatch.setattr(permgrp, "arc_action", counted)
    monkeypatch.setattr(cover_module, "arc_action", counted)
    aut = automorphism_group(build_cover(FpPoly(7, (5, 1)), 3, 0))
    assert aut.order() == 294
    assert len(calls) == 1


def test_canonical_form_is_relabelling_invariant_on_sweep_covers():
    rng = np.random.default_rng(7)
    checked = 0
    for p in (3, 5, 7):
        for n in range(3, 6):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    if n * p ** divisor_info(g, n, eps).fiber_dim > 300:
                        continue
                    cov = build_cover(g, n, eps)
                    lab = rng.permutation(cov.order)
                    relab = [[] for _ in range(cov.order)]
                    for u, nbrs in enumerate(cov.dart_ends.tolist()):
                        relab[lab[u]] = [int(lab[v]) for v in nbrs]
                    assert canonical_form(cov, limit=300) == canonical_form(
                        relab, limit=300
                    ), (p, n, eps, g.coeffs)
                    checked += 1
    assert checked == 56


@pytest.mark.parametrize(
    "graph, leaves",
    [
        (lambda: cycle_adj(8), 3),
        (lambda: build_cover(FpPoly(7, (5, 1)), 3, 0), 5),
        (lambda: build_cover(FpPoly(5, (1,)), 4, 0), 9),
    ],
    ids=["C8", "p7-n3-5+x", "p5-n4-1"],
)
def test_search_jumps_back_after_an_equivalent_leaf(graph, leaves, monkeypatch):
    # Walking every subtree to its end takes 4, 7 and 16 leaves.
    calls = []
    leaf = permgrp._AutSearch._leaf

    def counted(self, *args):
        calls.append(1)
        return leaf(self, *args)

    monkeypatch.setattr(permgrp._AutSearch, "_leaf", counted)
    automorphism_group(graph(), limit=2500)
    assert len(calls) == leaves


def test_aut_generators_are_verified_automorphisms():
    adj = cycle_adj(7)
    G = automorphism_group(adj)
    edges = {(u, v) for u in range(7) for v in adj[u]}
    for g in G.gens:
        assert all((int(g[u]), int(g[v])) in edges for (u, v) in edges)
