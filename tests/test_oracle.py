"""The refinement search against references it does not share code with:
the plain lexsort refinement it replaced, the relabelled graph at every
leaf, the per-vertex pruning loop and the arc-table check it replaced, and
networkx's VF2++ counts of self-isomorphisms on graphs that are not
covers; and arc_action against a plain list of arcs."""

import random

import numpy as np
import pytest

from dccover import permgrp
from dccover.cover import build_cover, lifted_generators
from dccover.fpoly import FpPoly
from dccover.lift import lifting_report
from dccover.permgrp import (
    NotAnAutomorphism,
    OracleLimit,
    _refine,
    _table,
    arc_action,
    automorphism_group,
    orbit_labels,
    perm_inverse,
)
from dccover.reflex import divisor_info, modulus_divisors


def generator_labels(gens, degree):
    """Orbit labels with the generators and their inverses as columns: the
    inverse-closed table that the per-vertex reference loop labels with."""
    images = np.array([*gens, *map(perm_inverse, gens)], dtype=np.int32)
    return orbit_labels(images.reshape(len(images), degree).T)


def reference_refine(table, col, count):
    """Colour refinement as one lexsort of whole rows per round: the slow
    path that _refine's keyed rounds must reproduce exactly."""
    while True:
        rows = np.column_stack([col, np.sort(np.append(col, -1)[table], axis=1)])
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        fresh = np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])[: len(rows)]
        col = np.empty(len(order), dtype=np.int64)
        col[order] = np.cumsum(fresh) - 1
        grown = int(fresh.sum())
        if grown == count:
            return col, count, rows[fresh].tobytes()
        count = grown


def assert_refines_alike(table, col, count):
    got = _refine(table, col.copy(), count)
    want = reference_refine(table, col.copy(), count)
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def needs_several_keys(table, col) -> bool:
    """Whether a row of (colour, neighbour colours), each shifted to a
    non-negative digit, is too long for one int64 in base max colour + 2."""
    return (int(col.max(initial=-1)) + 2) ** (table.shape[1] + 1) > 2**63


def recorded_calls(monkeypatch, graphs, limit):
    """The arguments of every _refine call made while searching the graphs."""
    calls = []

    def recording(table, col, count):
        calls.append((table, col.copy(), count))
        return _refine(table, col, count)

    monkeypatch.setattr(permgrp, "_refine", recording)
    for graph in graphs:
        automorphism_group(graph, limit=limit)
    return calls


def sweep_divisors(max_order):
    for p in (3, 5, 7):
        for n in range(3, 6):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    info = divisor_info(g, n, eps)
                    if n * p**info.fiber_dim <= max_order:
                        yield info, build_cover(g, n, eps)


def sweep_covers(max_order):
    for _, cover in sweep_divisors(max_order):
        yield cover


def certified_covers(max_order):
    """Each sweep cover with its lifted generators and deck translations,
    certified as automorphisms by base_action, as a census passes them."""
    for info, cover in sweep_divisors(max_order):
        gens = lifted_generators(lifting_report(info), cover)
        cover.base_action(gens)
        yield cover, gens


def counted_refines(monkeypatch):
    """A list that grows by one on every _refine call from now on."""
    calls = []

    def counting(table, col, count):
        calls.append(1)
        return _refine(table, col, count)

    monkeypatch.setattr(permgrp, "_refine", counting)
    return calls


def test_refine_matches_the_reference_on_every_call_of_the_sweep_searches(monkeypatch):
    covers = list(sweep_covers(300))
    assert len(covers) == 56
    calls = recorded_calls(monkeypatch, covers, limit=300)
    assert len(calls) > 1000
    for table, col, count in calls:
        assert_refines_alike(table, col, count)


@pytest.mark.parametrize(
    "adj", [[], [[], [], []]], ids=["no-vertices", "isolated-vertices"]
)
def test_refine_matches_the_reference_without_edges(adj):
    table = _table(adj)
    assert table.shape[1] == 0
    assert_refines_alike(table, np.zeros(len(adj), dtype=np.int64), 1)


def test_refine_matches_the_reference_when_an_individualised_vertex_takes_the_sentinel_colour():
    # A spider with three legs of two edges: rows padded to the centre's
    # degree, and the cell of colour 0 holds the three feet.  Individualising
    # a foot gives it -1, the colour the search gives the padding sentinel.
    adj = [[1, 2, 3], [0, 4], [0, 5], [0, 6], [1], [2], [3]]
    table = _table(adj)
    col, count, _ = _refine(table, np.zeros(len(adj), dtype=np.int64), 1)
    assert np.count_nonzero(col == 0) == 3 and (table == len(adj)).any()
    child = 2 * col
    child[np.flatnonzero(col == 0)[0]] -= 1
    assert child.min() == -1
    assert_refines_alike(table, child, count + 1)


def test_refine_matches_the_reference_on_rows_wider_than_one_key(monkeypatch):
    k16 = [[v for v in range(16) if v != u] for u in range(16)]
    calls = recorded_calls(monkeypatch, [k16], limit=16)
    assert any(needs_several_keys(table, col) for table, col, _ in calls)
    for table, col, count in calls:
        assert_refines_alike(table, col, count)


def test_refine_matches_the_reference_on_a_large_many_coloured_cover():
    cov = build_cover(FpPoly(7, (1,)), 4, 0)
    assert cov.order == 9604
    col = np.arange(cov.order, dtype=np.int64) * 7919 % 7000
    assert needs_several_keys(cov.dart_ends, col)
    assert_refines_alike(cov.dart_ends, col, 7000)


@pytest.mark.parametrize("graph", ["cover", "spider"])
def test_refine_matches_the_reference_on_a_discrete_colouring(graph):
    # A discrete colouring is confirmed in one pass; the spider's rows are
    # padded, and the colours include -1, the sentinel's.
    if graph == "cover":
        table = build_cover(FpPoly(7, (5, 1)), 3, 0).dart_ends
    else:
        table = _table([[1, 2, 3], [0, 4], [0, 5], [0, 6], [1], [2], [3]])
    col = 2 * np.random.default_rng(5).permutation(len(table)) - 1
    assert col.min() == -1
    assert_refines_alike(table, col, len(table))


def test_every_leaf_invariant_is_the_graph_relabelled_by_the_leaf(monkeypatch):
    # The leaf key is the last node invariant, which the prune keeps equal
    # to the first leaf's: row c holds colour c, then the sorted colours of
    # its vertex's neighbours.  A cover has no padding, so a colour of -1 is
    # an individualised vertex, and ranking the colours of the first column
    # gives the labels.
    leaves = []
    real = permgrp._AutSearch._leaf

    def recording(search, lab, path):
        leaves.append((search.table, lab, search.first_invs[len(path)]))
        return real(search, lab, path)

    monkeypatch.setattr(permgrp._AutSearch, "_leaf", recording)
    for cover in sweep_covers(300):
        automorphism_group(cover, limit=300)
    kinds = set()
    for table, lab, key in leaves:
        rows = np.frombuffer(key, dtype=np.int64).reshape(len(lab), -1)
        assert np.all(rows[1:, 0] > rows[:-1, 0])
        kinds.add(np.array_equal(rows[:, 0], np.arange(len(lab))))
        labels = np.searchsorted(rows[:, 0], rows)
        assert np.array_equal(rows[:, 0][labels], rows)
        by_label = np.argsort(lab)
        want = np.column_stack([np.arange(len(lab)), np.sort(lab[table], axis=1)[by_label]])
        assert np.array_equal(labels, want)
    # Both kinds occur: leaves refined to the labels, and leaves discrete
    # before refining, which keep their individualised colours.
    assert len(leaves) > 300 and kinds == {True, False}


# -- the search started from known automorphisms ---------------------------------


def test_a_search_from_the_lifted_group_finds_the_same_group_with_fewer_refinements(
    monkeypatch,
):
    # The unseeded search is the reference.  Known generators prune by
    # orbits only, so the order and the upper bound (the first path's cells)
    # stay those of the graph, and no cover takes more refinements.
    calls = counted_refines(monkeypatch)

    def searched(cover, known):
        before = len(calls)
        group = automorphism_group(cover, limit=300, known=known)
        return group, len(calls) - before

    totals = [0, 0]
    covers = 0
    for cover, gens in certified_covers(300):
        plain, plain_calls = searched(cover, ())
        seeded, seeded_calls = searched(cover, gens)
        assert seeded.order() == plain.order()
        assert seeded.upper_bound == plain.upper_bound
        assert all(np.array_equal(a, b) for a, b in zip(seeded.gens, gens))
        assert seeded_calls <= plain_calls, (cover.p, cover.n, cover.g)
        totals[0] += plain_calls
        totals[1] += seeded_calls
        covers += 1
    assert covers == 56
    assert totals == [1188, 608]


@pytest.mark.parametrize("case", ["broken-edge", "wrong-degree", "above-limit"])
def test_a_known_permutation_is_checked_before_the_search(case, monkeypatch):
    # The limit comes first, then every known permutation, then the search.
    cover = build_cover(FpPoly(7, (5, 1)), 3, 0)
    gens = lifted_generators(lifting_report(divisor_info(cover.g, 3, 0)), cover)
    bad = np.arange(cover.order)
    bad[[0, 1]] = [1, 0]
    limit = cover.order
    if case == "broken-edge":
        error, text = NotAnAutomorphism, r"edge \(\d+,\d+\) is not preserved"
    elif case == "wrong-degree":
        bad = np.arange(cover.order + 1)
        error, text = ValueError, f"expected degree {cover.order}, got {cover.order + 1}"
    else:
        limit -= 1
        error, text = OracleLimit, f"graph has {cover.order} vertices"
    calls = counted_refines(monkeypatch)
    with pytest.raises(error, match=text):
        automorphism_group(cover, limit=limit, known=[*gens, bad])
    assert calls == []


# -- the oracle against VF2++ on graphs that are not covers --------------------


def adjacency(graph, nx):
    graph = nx.convert_node_labels_to_integers(graph)
    return [sorted(graph[v]) for v in range(graph.number_of_nodes())]


def gate_graphs(nx):
    rng = random.Random(20240917)
    for _ in range(250):
        n = rng.randint(1, 8)
        yield nx.gnp_random_graph(n, rng.uniform(0.15, 0.85), seed=rng.randrange(2**32))
    for degree in (3, 4):
        for n in range(degree + 1, 25, 2 if degree == 3 else 1):
            yield nx.random_regular_graph(degree, n, seed=rng.randrange(2**32))


def test_aut_order_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    checked = 0
    for graph in gate_graphs(nx):
        adj = adjacency(graph, nx)
        want = sum(1 for _ in nx.vf2pp_all_isomorphisms(graph, graph))
        assert automorphism_group(adj).order() == want, adj
        checked += 1
    assert checked == 281


def test_rook_graph_and_shrikhande_graph_are_told_apart():
    # Both are strongly regular with parameters (16, 6, 2, 2), so refinement
    # alone never splits their vertices.
    rook = [
        [4 * i + c for c in range(4) if c != j] + [4 * r + j for r in range(4) if r != i]
        for i in range(4)
        for j in range(4)
    ]
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    shrikhande = [
        [4 * ((i + a) % 4) + (j + b) % 4 for a, b in steps] for i in range(4) for j in range(4)
    ]
    assert automorphism_group(rook).order() == 1152
    assert automorphism_group(shrikhande).order() == 192


# -- the search's checks and walk against the ones they replaced ------------------


@pytest.mark.parametrize(
    "adj, message",
    [
        ([[1], []], "the adjacency is not symmetric"),
        ([[1, 1], [0, 0]], "the adjacency repeats an arc"),
        (np.array([[1], [-1]]), "a neighbour is not a vertex"),
    ],
    ids=["asymmetric", "repeated-arc", "negative-in-a-table"],
)
def test_automorphism_group_refuses_a_graph_before_the_search(adj, message, monkeypatch):
    # With no known permutation to check, the graph is still refused with
    # arc_action's text, and no refinement runs.
    calls = counted_refines(monkeypatch)
    with pytest.raises(ValueError, match=message):
        arc_action(adj)
    with pytest.raises(ValueError, match=message):
        automorphism_group(adj)
    assert calls == []


def verdict(check, table, g):
    """The NotAnAutomorphism text a check raises on g, None when it passes."""
    try:
        check(table, g)
    except NotAnAutomorphism as err:
        return str(err)
    return None


def by_arc_table(table, g):
    arc_action(table)[0](g)


def by_sorted_rows(table, g):
    permgrp._check_automorphisms(table, [g])


@pytest.mark.parametrize("graphs", ["sweep covers", "padded gate graphs"])
def test_the_sorted_row_check_agrees_with_the_arc_table(graphs):
    # Random products of the generators, half of them with two images
    # swapped, are accepted and refused alike, with the same edge named.
    if graphs == "sweep covers":
        tables = [cover.dart_ends for cover in sweep_covers(300)]
        assert len(tables) == 56
    else:
        nx = pytest.importorskip("networkx")
        tables = [_table(adjacency(graph, nx)) for graph in gate_graphs(nx)]
        assert sum((table == len(table)).any() for table in tables) == 180
    rng = np.random.default_rng(21)
    kinds = set()
    for table in tables:
        gens = automorphism_group(table, limit=300).gens
        for _ in range(8):
            g = np.arange(len(table), dtype=np.int32)
            for k in rng.integers(len(gens), size=rng.integers(4) if gens else 0):
                g = gens[k][g]
            if rng.integers(2) and len(table) > 1:
                i, j = rng.choice(len(table), 2, replace=False)
                g[[i, j]] = g[[j, i]]
            want = verdict(by_arc_table, table, g)
            assert verdict(by_sorted_rows, table, g) == want
            kinds.add(want is None)
    assert kinds == {True, False}


def plain_arcs(table):
    """The number of each (tail, head) pair of a table's real slots, in
    row-major order."""
    pairs = [(u, v) for u, row in enumerate(table.tolist()) for v in row if v < len(table)]
    return {arc: k for k, arc in enumerate(pairs)}


def plain_arc_image(arcs, g):
    """arc_action's map at g on the plain arc numbering: the number of
    (g(tail), g(head)) for each arc, or the text naming the first arc whose
    image is not an arc."""
    for u, v in arcs:
        if (g[u], g[v]) not in arcs:
            return f"edge ({u},{v}) is not preserved"
    return [arcs[g[u], g[v]] for u, v in arcs]


@pytest.mark.parametrize("graphs", ["sweep covers", "padded gate graphs"])
def test_arc_action_matches_the_plain_arc_list(graphs):
    # On random products of the generators, half of them with two images
    # swapped, the arc map gives the plain list's images or names its edge,
    # and the Darts are the list's tails and reversed pairs.
    if graphs == "sweep covers":
        tables = [cover.dart_ends for cover in sweep_covers(300)]
        assert len(tables) == 56
    else:
        nx = pytest.importorskip("networkx")
        tables = [_table(adjacency(graph, nx)) for graph in gate_graphs(nx)]
        assert len(tables) == 281
        assert sum((table == len(table)).any() for table in tables) == 180
    rng = np.random.default_rng(34)
    kinds = set()
    for table in tables:
        arcs = plain_arcs(table)
        arc_perm, darts = arc_action(table)
        assert darts.tails.tolist() == [u for u, _ in arcs]
        assert darts.reversal.tolist() == [arcs[v, u] for u, v in arcs]
        gens = automorphism_group(table, limit=300).gens
        for _ in range(8):
            g = np.arange(len(table), dtype=np.int32)
            for k in rng.integers(len(gens), size=rng.integers(4) if gens else 0):
                g = gens[k][g]
            if rng.integers(2) and len(table) > 1:
                i, j = rng.choice(len(table), 2, replace=False)
                g[[i, j]] = g[[j, i]]
            want = plain_arc_image(arcs, g.tolist())
            try:
                got = arc_perm(g).tolist()
            except NotAnAutomorphism as err:
                got = str(err)
            assert got == want
            kinds.add(isinstance(want, list))
    assert kinds == {True, False}


def test_the_children_of_a_cell_are_the_first_of_each_orbit_in_it():
    # In cell order: the vertices whose orbit, under the generators that fix
    # the prefix, holds no vertex earlier in the cell.
    rng = np.random.default_rng(8)
    for _ in range(300):
        degree = int(rng.integers(2, 12))
        prefix = [0] if rng.integers(2) else []
        gens = []
        for _ in range(rng.integers(4)):
            g = rng.permutation(degree)
            if rng.integers(2):
                g[g == 0], g[0] = g[0], 0
            gens.append(g)
        cell = np.sort(rng.choice(degree, int(rng.integers(1, degree + 1)), replace=False))
        search = permgrp._AutSearch(np.zeros((degree, 0), dtype=np.int64), None, gens)
        fixed = [g for g in gens if np.array_equal(g[prefix], prefix)]
        label = generator_labels(fixed, degree)
        want = [i for i, v in enumerate(cell) if label[v] not in label[cell[:i]]]
        assert search._children(prefix, cell).tolist() == want


def reference_dfs(self, node, prefix):
    """_AutSearch._dfs with the per-vertex pruning loop that the orbit walk
    replaced: each vertex of the target cell is skipped when its orbit
    label, under the generators and their inverses that fix the prefix,
    is that of a vertex already tried."""
    self._tick()
    col, count, inv = node
    if self.first is None:
        self.first_invs.append(inv)
    elif self.first_invs[len(prefix)] != inv:
        return None
    if count == len(col):
        return self._leaf(col, prefix)
    sizes = np.bincount(col)
    target = np.argmin(np.where(sizes > 1, sizes, len(col) + 1))
    if self.first is None:
        self.first_cells.append(int(sizes[target]))
    tried = []
    labelled = None
    for v in np.flatnonzero(col == target).tolist():
        if tried:
            if labelled != len(self.gens):
                labelled = len(self.gens)
                fixed = [g for g in self.gens if np.array_equal(g[prefix], prefix)]
                label = generator_labels(fixed, len(col))
            if label[v] in label[tried]:
                continue
        tried.append(v)
        child = 2 * col
        child[v] -= 1
        node = permgrp._refine(self.table, child, count + 1)
        jump = self._dfs(node, prefix + [v])
        if jump is not None and jump < len(prefix):
            return jump
    return None


def searched(monkeypatch, searches):
    """The colouring and count of every _refine call the searches make, and
    the generators of each group they return."""
    calls = []

    def recording(table, col, count):
        calls.append((col.tobytes(), count))
        return _refine(table, col, count)

    with monkeypatch.context() as patch:
        patch.setattr(permgrp, "_refine", recording)
        groups = [np.array(search().gens).tobytes() for search in searches]
    return calls, groups


@pytest.mark.parametrize("graphs", ["sweep covers", "networkx gate graphs", "K16"])
def test_the_orbit_walk_refines_what_the_per_vertex_loop_refines(graphs, monkeypatch):
    # The same children, in the same order, so the same refinements, leaves
    # and generators, with known automorphisms and without.
    if graphs == "sweep covers":
        searches = []
        for cover, gens in certified_covers(300):
            searches.append(lambda cover=cover: automorphism_group(cover, limit=300))
            searches.append(
                lambda cover=cover, gens=gens: automorphism_group(cover, limit=300, known=gens)
            )
        assert len(searches) == 2 * 56
    elif graphs == "networkx gate graphs":
        nx = pytest.importorskip("networkx")
        adjs = [adjacency(graph, nx) for graph in gate_graphs(nx)]
        searches = [lambda adj=adj: automorphism_group(adj) for adj in adjs]
        assert len(searches) == 281
    else:
        k16 = [[v for v in range(16) if v != u] for u in range(16)]
        searches = [lambda: automorphism_group(k16, limit=16)]
    walked = searched(monkeypatch, searches)
    monkeypatch.setattr(permgrp._AutSearch, "_dfs", reference_dfs)
    looped = searched(monkeypatch, searches)
    assert walked == looped
    if graphs == "sweep covers":
        assert len(walked[0]) == 1188 + 608
