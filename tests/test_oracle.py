"""The refinement search against references it does not share code with:
the plain lexsort refinement it replaced, the relabelled graph at every
leaf, and networkx's VF2++ counts of self-isomorphisms on graphs that are
not covers."""

import random

import numpy as np
import pytest

from dccover import permgrp
from dccover.cover import build_cover
from dccover.fpoly import FpPoly, modulus_divisors
from dccover.permgrp import _refine, _table, automorphism_group, canonical_form
from dccover.reflex import divisor_info


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


def sweep_covers(max_order):
    for p in (3, 5, 7):
        for n in range(3, 6):
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    if n * p ** divisor_info(g, n, eps).fiber_dim <= max_order:
                        yield build_cover(g, n, eps)


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


def test_every_leaf_invariant_is_the_graph_relabelled_by_the_leaf(monkeypatch):
    # The leaf key is the last node invariant: row c holds colour c, then
    # the sorted colours of its vertex's neighbours.  A cover has no padding,
    # so a colour of -1 is an individualised vertex, and ranking the colours
    # of the first column gives the labels.
    leaves = []
    real = permgrp._AutSearch._leaf

    def recording(search, lab, path, inv_path):
        leaves.append((search.table, lab, inv_path[-1]))
        return real(search, lab, path, inv_path)

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


# -- the oracle against VF2++ on graphs that are not covers --------------------


def adjacency(graph, nx):
    graph = nx.convert_node_labels_to_integers(graph)
    return [sorted(graph[v]) for v in range(graph.number_of_nodes())]


def relabelled(adj, rng):
    lab = list(range(len(adj)))
    rng.shuffle(lab)
    out = [[] for _ in adj]
    for u, nbrs in enumerate(adj):
        out[lab[u]] = [lab[v] for v in nbrs]
    return out


def gate_graphs(nx):
    rng = random.Random(20240917)
    for _ in range(250):
        n = rng.randint(1, 8)
        yield nx.gnp_random_graph(n, rng.uniform(0.15, 0.85), seed=rng.randrange(2**32))
    for degree in (3, 4):
        for n in range(degree + 1, 25, 2 if degree == 3 else 1):
            yield nx.random_regular_graph(degree, n, seed=rng.randrange(2**32))


def test_aut_order_and_canonical_form_match_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    checked = 0
    for graph in gate_graphs(nx):
        adj = adjacency(graph, nx)
        want = sum(1 for _ in nx.vf2pp_all_isomorphisms(graph, graph))
        assert automorphism_group(adj).order() == want, adj
        assert canonical_form(adj) == canonical_form(relabelled(adj, rng)), adj
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
    assert canonical_form(rook) != canonical_form(shrikhande)
