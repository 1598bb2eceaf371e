"""Permutation groups on integer points: orders, orbits, automorphism oracle.

Permutations are image arrays: perm[x] is the image of point x.  Products
apply left to right, so mult(p, q)[x] == q[p[x]], matching the right-action
convention used by the cover machinery.  Arrays are numpy int32 internally;
plain lists are accepted everywhere.
"""

from __future__ import annotations

import time
from math import lcm, prod

import numpy as np


def as_perm(seq, degree: int | None = None) -> np.ndarray:
    """Validate and convert a permutation to an int32 image array."""
    arr = np.asarray(seq, dtype=np.int32)
    if arr.ndim != 1:
        raise ValueError("permutation must be one-dimensional")
    n = len(arr)
    if degree is not None and n != degree:
        raise ValueError(f"expected degree {degree}, got {n}")
    seen = np.zeros(n, dtype=bool)
    if n and (arr.min() < 0 or arr.max() >= n):
        raise ValueError("permutation images out of range")
    seen[arr] = True
    if not seen.all():
        raise ValueError("not a bijection")
    return arr


def perm_identity(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int32)


def perm_mult(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Apply p, then q."""
    return q[p]


def perm_inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty(len(p), dtype=np.int32)
    inv[p] = np.arange(len(p), dtype=np.int32)
    return inv


def reach(table: np.ndarray, start: int) -> np.ndarray:
    """Mask of the points reached from start, row x of the table listing
    the points one step from x; breadth-first with a boolean frontier."""
    seen = np.zeros(len(table), dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while len(frontier):
        reached = np.zeros(len(table), dtype=bool)
        reached[table[frontier]] = True
        reached &= ~seen
        seen |= reached
        frontier = np.flatnonzero(reached)
    return seen


def perm_order(p: np.ndarray) -> int:
    """Order of the permutation: lcm of cycle lengths."""
    n = len(p)
    seen = np.zeros(n, dtype=bool)
    out = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = int(p[x])
            length += 1
        out = lcm(out, length)
    return out


_UNSEEN = -1
_ROOT = -2


class _Level:
    """One stabilizer-chain level: base point, generators, Schreier vector.

    label[x] is the index of the generator that first carried an orbit point
    to x (_UNSEEN off the orbit, _ROOT at the base), so the labels walked
    back from x spell the transversal element carrying the base point to x.
    A level thus stores one int32 array, not a permutation per orbit point.
    """

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inv: list[np.ndarray] = []
        self.orbit: list[int] = [base]
        self.label = np.full(degree, _UNSEEN, dtype=np.int32)
        self.label[base] = _ROOT
        self.schreier_done: list[int] = []

    def add_gen(self, g: np.ndarray, g_inv: np.ndarray) -> None:
        """Add a generator and grow the orbit breadth-first.

        Until a Schreier generator of this level has been sifted, the tree
        is rebuilt from the base point, which keeps it shallow; after that
        it only grows, so that sifted Schreier products stay valid.
        """
        self.gens.append(g)
        self.inv.append(g_inv)
        if any(self.schreier_done):
            frontier = self._visit(len(self.gens) - 1, np.array(self.orbit))
        else:
            self.label[self.orbit] = _UNSEEN
            self.label[self.base] = _ROOT
            self.orbit = [self.base]
            frontier = np.array(self.orbit)
        self.schreier_done.append(0)
        while len(frontier):
            frontier = np.concatenate(
                [self._visit(k, frontier) for k in range(len(self.gens))]
            )

    def _visit(self, k: int, points: np.ndarray) -> np.ndarray:
        """Label the points new to the orbit that generator k sends points to."""
        img = self.gens[k][points]
        new = img[self.label[img] == _UNSEEN]
        self.label[new] = k
        self.orbit.extend(new.tolist())
        return new

    def transversal(self, x: int) -> np.ndarray:
        """Element carrying the base point to the orbit point x."""
        u = perm_identity(len(self.label))
        k = int(self.label[x])
        while k != _ROOT:
            u = u[self.gens[k]]
            x = int(self.inv[k][x])
            k = int(self.label[x])
        return u

    def strip(self, p: np.ndarray) -> np.ndarray | None:
        """p times the inverse transversal element of p(base), None off the orbit."""
        x = int(p[self.base])
        k = int(self.label[x])
        if k == _UNSEEN:
            return None
        while k != _ROOT:
            g_inv = self.inv[k]
            p = g_inv[p]
            x = int(g_inv[x])
            k = int(self.label[x])
        return p


class PermGroup:
    """Group generated by permutations, with a lazy stabilizer chain.

    The chain is built by sifting the generators and then every Schreier
    generator (Seress, Permutation Group Algorithms, 2003, ch. 4).
    upper_bound, when given, must be a proven upper bound on the group
    order.  The product of the basic orbit lengths is a lower bound on the
    order at every step, so the closure stops as soon as it equals
    upper_bound: equality forces a complete chain, and order() and
    contains() stay exact.  A loose bound lets the closure finish, and a
    chain above the bound raises ValueError, since the bound was false.
    """

    def __init__(
        self, generators, degree: int | None = None, upper_bound: int | None = None
    ):
        gens = [np.asarray(g, dtype=np.int32) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree required when no generators are given")
            degree = len(gens[0])
        self.degree = degree
        self.gens = [as_perm(g, degree) for g in gens]
        self.upper_bound = upper_bound
        self._levels: list[_Level] | None = None

    def orbit(self, point: int) -> list[int]:
        """Orbit of a point, ascending."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        images = np.array(self.gens, dtype=np.int32).reshape(-1, self.degree)
        return np.flatnonzero(reach(images.T, point)).tolist()

    def orbits(self) -> list[list[int]]:
        """All orbits, each ascending, ordered by smallest element."""
        out = []
        left = np.ones(self.degree, dtype=bool)
        while left.any():
            start = int(np.argmax(left))
            orb = self.orbit(start)
            out.append(orb)
            left[orb] = False
        return out

    def order(self) -> int:
        self._build()
        return self._chain_order()

    def contains(self, perm) -> bool:
        p = as_perm(perm, self.degree)
        self._build()
        residue = self._sift(p, 0)[0]
        return residue is None

    # -- stabilizer chain ---------------------------------------------------

    def _build(self) -> None:
        if self._levels is not None:
            return
        self._levels = []
        self._id = perm_identity(self.degree)
        for g in self.gens:
            residue, li = self._sift(g, 0)
            if residue is not None:
                self._extend(residue, li)
        self._complete()

    def _chain_order(self) -> int:
        return prod(len(lvl.orbit) for lvl in self._levels)

    def _meets_bound(self) -> bool:
        """Whether the chain order equals upper_bound; raises when above it."""
        if self.upper_bound is None:
            return False
        total = self._chain_order()
        if total > self.upper_bound:
            self._levels = None
            raise ValueError(
                f"the chain reaches order {total}, above the bound {self.upper_bound}"
            )
        return total == self.upper_bound

    def _sift(self, p: np.ndarray, start: int):
        """Reduce p through the chain; (None, _) when it reaches identity."""
        for li in range(start, len(self._levels)):
            stripped = self._levels[li].strip(p)
            if stripped is None:
                return p, li
            p = stripped
        if np.array_equal(p, self._id):
            return None, len(self._levels)
        return p, len(self._levels)

    def _extend(self, residue: np.ndarray, li: int) -> None:
        """Make a residue that sifted down to level li a strong generator."""
        if li == len(self._levels):
            moved = int(np.nonzero(residue != self._id)[0][0])
            self._levels.append(_Level(moved, self.degree))
        # A strong generator fixing the first li base points belongs to every
        # stabilizer level up to li: it can still move non-base orbit points.
        inv = perm_inverse(residue)
        for j in range(li + 1):
            self._levels[j].add_gen(residue, inv)

    def _complete(self) -> None:
        """Sift Schreier generators until the chain is closed or meets upper_bound."""
        progressed = True
        while progressed and not self._meets_bound():
            progressed = False
            li = 0
            while li < len(self._levels) and not self._meets_bound():
                progressed |= self._close_level(li)
                li += 1

    def _close_level(self, li: int) -> bool:
        """Sift the Schreier generators of level li not yet sifted.

        Points are taken in orbit order and each generator keeps a count of
        the points done, so one transversal element serves every generator
        pending at a point.  Returns whether the chain grew, at once when
        the chain meets upper_bound.
        """
        lvl = self._levels[li]
        grew = False
        while True:
            todo = min(lvl.schreier_done)
            if todo >= len(lvl.orbit):
                return grew
            x = lvl.orbit[todo]
            u = None
            for gi in range(len(lvl.gens)):
                if lvl.schreier_done[gi] != todo:
                    continue
                lvl.schreier_done[gi] += 1
                s = lvl.gens[gi]
                # An edge of the Schreier tree gives the identity.
                if lvl.label[s[x]] == gi:
                    continue
                if u is None:
                    u = lvl.transversal(x)
                residue, drop = self._sift(lvl.strip(s[u]), li + 1)
                if residue is not None:
                    self._extend(residue, drop)
                    if self._meets_bound():
                        return True
                    grew = True


class NotAnAutomorphism(ValueError):
    pass


def arc_action(adj):
    """The map from vertex permutations to arc permutations, and the arc reversal.

    The adjacency is a table with one row per vertex, such as the dart_ends
    of a cover, or plain, possibly ragged, lists.  Arcs are numbered in
    adjacency order, so on a cover arc 4u+t is the dart of track t at u.
    Images are found by binary search among the sorted (tail, head) keys.
    The map raises NotAnAutomorphism when a permutation sends an arc to a
    non-arc; a ValueError here means the adjacency is not symmetric.
    """
    if isinstance(adj, np.ndarray):
        heads = adj.ravel()
        tails = np.repeat(np.arange(len(adj), dtype=np.int32), adj.shape[1])
    else:
        heads = np.fromiter((v for nbrs in adj for v in nbrs), dtype=np.int64)
        tails = np.repeat(np.arange(len(adj)), [len(nbrs) for nbrs in adj])
    degree = len(adj)
    keys = tails.astype(np.int64) * degree + heads
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[order]

    def find(tail_img, head_img):
        want = tail_img.astype(np.int64) * degree + head_img
        at = np.searchsorted(keys, want).clip(max=max(len(keys) - 1, 0))
        return order[at], np.flatnonzero(keys[at] != want)

    def arc_perm(perm) -> np.ndarray:
        g = as_perm(perm, degree)
        arcs, missed = find(g[tails], g[heads])
        if len(missed):
            k = missed[0]
            raise NotAnAutomorphism(f"edge ({tails[k]},{heads[k]}) is not preserved")
        return arcs

    reversal, missed = find(heads, tails)
    if len(missed):
        raise ValueError("the adjacency is not symmetric")
    return arc_perm, reversal


def transitivity_profile(group, graph) -> dict:
    """Orbit counts of a vertex group on vertices, edges and arcs of a graph.

    Accepts a PermGroup or a plain generator list, and a CoverGraph or
    adjacency lists.  Edge orbits are the orbits of the arc group extended
    by the arc reversal.  Raises NotAnAutomorphism when a generator breaks
    an edge.
    """
    gens = group.gens if isinstance(group, PermGroup) else group
    adj = getattr(graph, "dart_ends", graph)
    arc_perm, reversal = arc_action(adj)
    arc_gens = [arc_perm(g) for g in gens]
    v_orbits = len(PermGroup(gens, len(adj)).orbits())
    e_orbits = len(PermGroup(arc_gens + [reversal], len(reversal)).orbits())
    a_orbits = len(PermGroup(arc_gens, len(reversal)).orbits())
    return {
        "vertex_orbits": v_orbits,
        "edge_orbits": e_orbits,
        "arc_orbits": a_orbits,
        "vertex_transitive": v_orbits == 1,
        "edge_transitive": e_orbits == 1,
        "arc_transitive": a_orbits == 1,
    }


# -- full automorphism group via individualization and refinement -----------


class OracleLimit(RuntimeError):
    pass


def _neighbour_table(adj) -> np.ndarray:
    """One row of neighbours per vertex; ragged rows are padded with the
    sentinel len(adj), whose colour is -1."""
    if isinstance(adj, np.ndarray):
        return adj
    table = np.full((len(adj), max(map(len, adj), default=0)), len(adj))
    for u, nbrs in enumerate(adj):
        table[u, : len(nbrs)] = nbrs
    return table


def _sorted_rows(table: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row v: the colours of the neighbours of v, ascending."""
    return np.sort(np.append(col, -1)[table], axis=1)


def _refine(table: np.ndarray, col: np.ndarray, count: int):
    """Colour refinement (1-dimensional Weisfeiler-Leman) of a colouring
    with count colours.

    Each round recolours every vertex by the rank of its row: its colour,
    then its neighbours' colours sorted.  Rounds stop when the number of
    colours stops growing, at the coarsest equitable partition finer than
    col.  Ranks depend on colours alone, so relabelling the graph permutes
    the result alike.  Returns the colouring, its number of colours and,
    as the node invariant of the search, the distinct rows of the last
    round as bytes.
    """
    while True:
        rows = np.column_stack([col, _sorted_rows(table, col)])
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        fresh = np.any(rows[1:] != rows[:-1], axis=1)
        col = np.empty(len(order), dtype=np.int64)
        col[order] = np.concatenate([[0], np.cumsum(fresh)])
        grown = 1 + int(fresh.sum())
        if grown == count:
            return col, count, rows[np.r_[True, fresh]].tobytes()
        count = grown


class _AutSearch:
    """Backtracking search over refined colourings of a neighbour table.

    A node's children individualise, one at a time, the vertices of its
    target cell: the smallest cell of more than one vertex, the one of
    least colour on a tie.  A leaf's colouring is discrete, so it labels
    the vertices, and the leaf key is the graph relabelled by it.
    """

    def __init__(self, table: np.ndarray, deadline: float | None):
        self.table = table
        self.deadline = deadline
        self.gens: list[np.ndarray] = []
        self.first_inv: list[bytes] = []
        self.first_leaf = None
        self.first_key = None
        self.best_inv: list[bytes] = []
        self.best_leaf = None
        self.best_key = None

    def run(self) -> "_AutSearch":
        start = np.zeros(len(self.table), dtype=np.int64)
        self._dfs(_refine(self.table, start, 1), [], [], True, "EQ")
        return self

    def _tick(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleLimit("automorphism search exceeded its time budget")

    def _dfs(self, node, prefix, inv_path, on_first, best_cmp):
        self._tick()
        col, count, inv = node
        inv_path = inv_path + [inv]
        depth = len(inv_path) - 1
        if on_first and self.first_leaf is not None:
            if depth >= len(self.first_inv) or self.first_inv[depth] != inv:
                on_first = False
        if best_cmp == "EQ" and self.best_leaf is not None:
            if depth >= len(self.best_inv):
                best_cmp = "GT"
            elif inv > self.best_inv[depth]:
                best_cmp = "GT"
            elif inv < self.best_inv[depth]:
                best_cmp = "LT"
        if self.best_leaf is not None and best_cmp == "LT" and not on_first:
            return
        if count == len(col):
            self._leaf(col, inv_path)
            return
        sizes = np.bincount(col)
        target = np.argmin(np.where(sizes > 1, sizes, len(col) + 1))
        tried: list[int] = []
        for v in np.flatnonzero(col == target).tolist():
            if self._pruned_by_orbit(v, tried, prefix):
                continue
            tried.append(v)
            child = 2 * col
            child[v] -= 1
            node = _refine(self.table, child, count + 1)
            self._dfs(node, prefix + [v], inv_path, on_first, best_cmp)

    def _pruned_by_orbit(self, v, tried, prefix) -> bool:
        if not tried or not self.gens:
            return False
        fixed = [g for g in self.gens if all(int(g[x]) == x for x in prefix)]
        if not fixed:
            return False
        seen = set(tried)
        frontier = list(tried)
        while frontier:
            x = frontier.pop()
            for g in fixed:
                y = int(g[x])
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return False

    def _leaf(self, lab, inv_path):
        key = _sorted_rows(self.table, lab)[perm_inverse(lab)].tobytes()
        if self.first_leaf is None:
            self.first_inv = list(inv_path)
            self.first_leaf = lab
            self.first_key = key
            self.best_inv = list(inv_path)
            self.best_leaf = lab
            self.best_key = key
            return
        if key == self.first_key:
            self._record(self.first_leaf, lab)
        if (inv_path, key) > (self.best_inv, self.best_key):
            self.best_inv = list(inv_path)
            self.best_leaf = lab
            self.best_key = key
        elif inv_path == self.best_inv and key == self.best_key:
            self._record(self.best_leaf, lab)

    def _record(self, lab_a, lab_b):
        """Automorphism sending each vertex of labeling a to its twin in b."""
        inv_b = perm_inverse(lab_b)
        g = inv_b[lab_a]
        if np.array_equal(g, np.arange(len(g))):
            return
        for known in self.gens:
            if np.array_equal(known, g):
                return
        self.gens.append(g)


DEFAULT_ORACLE_LIMIT = 256


def _search(graph, limit: int, time_budget: float | None):
    """The adjacency of a graph (a cover's dart_ends, or lists) and the
    finished search over it; OracleLimit above limit vertices or once
    time_budget seconds have passed."""
    adj = getattr(graph, "dart_ends", graph)
    if len(adj) > limit:
        raise OracleLimit(
            f"graph has {len(adj)} vertices, above the oracle limit {limit}"
        )
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return adj, _AutSearch(_neighbour_table(adj), deadline).run()


def automorphism_group(
    graph, limit: int = DEFAULT_ORACLE_LIMIT, time_budget: float | None = None
) -> PermGroup:
    """Full automorphism group, structure-blind, via backtracking refinement."""
    adj, search = _search(graph, limit, time_budget)
    arc_perm, _ = arc_action(adj)
    for g in search.gens:
        arc_perm(g)
    return PermGroup(search.gens, len(adj))


def canonical_form(
    graph, limit: int = DEFAULT_ORACLE_LIMIT, time_budget: float | None = None
) -> tuple:
    """Vertex count and canonical key: equal for two graphs exactly when
    isomorphic."""
    adj, search = _search(graph, limit, time_budget)
    return (len(adj), search.best_key)


def are_isomorphic(graph_a, graph_b, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    adj_a = getattr(graph_a, "dart_ends", graph_a)
    adj_b = getattr(graph_b, "dart_ends", graph_b)
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    return canonical_form(adj_a, limit) == canonical_form(adj_b, limit)
