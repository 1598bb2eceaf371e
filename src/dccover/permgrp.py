"""Permutation groups on integer points: orders, orbits, automorphism oracle.

Permutations are image arrays: perm[x] is the image of point x.  Products
apply left to right, so p then q is q[p], matching the right-action
convention used by the cover machinery.  Arrays are numpy int32 internally;
plain lists are accepted everywhere.
"""

from __future__ import annotations

import time
from math import prod
from typing import NamedTuple

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


def perm_inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty(len(p), dtype=np.int32)
    inv[p] = np.arange(len(p), dtype=np.int32)
    return inv


def orbit_labels(table: np.ndarray) -> np.ndarray:
    """The least point of each point's component.

    Row x of the table lists the points one step from x, and every step
    must lie on a cycle of steps: the table is closed under reversal, or
    each column is a permutation, whose images alone give the orbits of the
    group it generates.  Each round lowers the labels of x and of the point
    x's label names to the least label next to x (the second, hooking,
    keeps a randomly numbered cycle from taking a round per step), then
    shortcuts label = label[label], until no label changes.  A label only
    moves against a step, so without the reverse steps a cycle numbered in
    increasing order still takes a round per step.
    """
    label = np.arange(len(table))
    while True:
        low = np.minimum(label, label[table].min(axis=1, initial=len(table)))
        np.minimum.at(low, label, low)
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def generator_labels(gens, degree: int) -> np.ndarray:
    """Orbit labels of the group generated by the permutations."""
    images = np.array([*gens, *map(perm_inverse, gens)], dtype=np.int32)
    return orbit_labels(images.reshape(len(images), degree).T)


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
    upper_bound and lower_bound, when given, must be proven bounds on the
    group order.  When they are equal, order() returns that value and
    builds no chain.  Otherwise the product of the basic orbit lengths is
    a lower bound on the order at every step, so the closure stops as soon
    as it equals upper_bound: equality forces a complete chain, and order()
    and contains() stay exact.  A loose upper bound lets the closure finish.
    A chain above upper_bound, or a finished one below lower_bound, raises
    ValueError, since that bound was false; a false upper_bound that the
    product meets exactly is returned.
    """

    def __init__(
        self,
        generators,
        degree: int | None = None,
        upper_bound: int | None = None,
        lower_bound: int | None = None,
    ):
        gens = [np.asarray(g, dtype=np.int32) for g in generators]
        if degree is None:
            if not gens:
                raise ValueError("degree required when no generators are given")
            degree = len(gens[0])
        if None not in (lower_bound, upper_bound) and lower_bound > upper_bound:
            raise ValueError(
                f"the lower bound {lower_bound} is above the upper bound {upper_bound}"
            )
        self.degree = degree
        self.gens = [as_perm(g, degree) for g in gens]
        self.upper_bound = upper_bound
        self.lower_bound = lower_bound
        self._levels: list[_Level] | None = None

    @classmethod
    def _of_perms(cls, perms, degree: int, upper_bound: int, lower_bound: int):
        """The group of int32 image arrays of the degree that as_perm has
        already passed; they are kept as given, not checked again."""
        group = cls((), degree, upper_bound, lower_bound)
        group.gens = list(perms)
        return group

    def order(self) -> int:
        if self.lower_bound is not None and self.lower_bound == self.upper_bound:
            return self.upper_bound
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
        total = self._chain_order()
        if self.lower_bound is not None and total < self.lower_bound:
            self._levels = None
            raise ValueError(
                f"the chain closes at order {total}, below the bound {self.lower_bound}"
            )

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


class Darts(NamedTuple):
    """A graph given by its darts: reversal[d] is the reverse of dart d, and
    tails[d] the vertex dart d leaves."""

    reversal: np.ndarray
    tails: np.ndarray


def _table(graph) -> np.ndarray:
    """One row of neighbours per vertex: a cover's dart_ends, or adjacency
    lists whose real slots are padded with the sentinel len(adj), coloured
    -1 in the search.  ValueError when a list names a non-vertex."""
    adj = getattr(graph, "dart_ends", graph)
    if isinstance(adj, np.ndarray):
        return adj
    table = np.full((len(adj), max(map(len, adj), default=0)), len(adj))
    for u, nbrs in enumerate(adj):
        table[u, : len(nbrs)] = nbrs
    if table.min(initial=0) < 0 or (table < len(adj)).sum() < sum(map(len, adj)):
        raise ValueError("a neighbour is not a vertex")
    return table


def arc_action(graph):
    """The map from vertex permutations to arc permutations, and the Darts.

    Arcs are the real slots of the graph's neighbour table (_table) in
    row-major order, so on a cover arc 4u+t is the dart of track t at u.
    Images are found by binary search among the sorted (tail, head) keys.
    The map raises NotAnAutomorphism when a permutation sends an arc to a
    non-arc; a ValueError here means the adjacency repeats an arc or is not
    symmetric.
    """
    table = _table(graph)
    degree = len(table)
    heads = table.ravel()
    tails = np.repeat(np.arange(degree, dtype=np.int32), table.shape[1])
    # Only padded lists have slots to drop; a cover's arcs stay a view.
    if table.max(initial=-1) >= degree:
        real = heads < degree
        heads, tails = heads[real], tails[real]
    keys = tails.astype(np.int64) * degree + heads
    order = np.argsort(keys, kind="stable").astype(np.int32)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("the adjacency repeats an arc")

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
    return arc_perm, Darts(reversal, tails)


def transitivity_profile(group, graph) -> dict:
    """Orbit counts of a group on vertices, edges and arcs of a graph.

    Accepts a PermGroup or a plain generator list.  On Darts the generators
    permute darts, as they do on a cover's quotient; on a CoverGraph or
    adjacency lists they permute vertices, and are mapped to darts through
    arc_action.  Raises NotAnAutomorphism when a generator breaks an edge,
    and ValueError when a vertex has no neighbour, since orbits are counted
    on darts.

    Arc orbits are the dart orbits, and edge orbits those of the group
    extended by the reversal.  A generator sends the tail of a dart to the
    tail of its image, which is its action on the vertices; on Darts, every
    vertex up to the largest tail must be the tail of a dart.
    """
    perms = group.gens if isinstance(group, PermGroup) else group
    if not isinstance(graph, Darts):
        table = _table(graph)
        if not (table < len(table)).any(axis=1).all():
            raise ValueError("a vertex without neighbours has no dart to count it by")
        arc_perm, graph = arc_action(table)
        perms = [arc_perm(g) for g in perms]
    tails = np.asarray(graph.tails)
    vertices = int(tails.max(initial=-1)) + 1
    on_vertices = []
    for perm in perms:
        image = np.empty(vertices, dtype=np.int32)
        image[tails] = tails[perm]
        on_vertices.append(image)

    def count(gens, degree):
        label = generator_labels(gens, degree)
        return int(np.count_nonzero(label == np.arange(degree)))

    v_orbits = count(on_vertices, vertices)
    e_orbits = count([*perms, graph.reversal], len(tails))
    a_orbits = count(perms, len(tails))
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


def _row_keys(rows: np.ndarray, base: int) -> list[np.ndarray]:
    """Order-preserving int64 keys of rows whose entries lie in [-1, base - 1).

    A row, each entry plus one read as a digit, is a number in the given
    base.  Its digits are cut into as few pieces as fit in an int64, and
    each piece is folded by one matrix product against the powers of the
    base; the shift by one moves every key alike, so it is left out.
    Comparing the keys in turn compares the rows lexicographically.
    """
    width = rows.shape[1]
    per = width
    while base**per > 2**63:
        per -= 1
    return [
        rows[:, i : i + per] @ base ** np.arange(min(per, width - i) - 1, -1, -1)
        for i in range(0, width, per)
    ]


def _refine(table: np.ndarray, col: np.ndarray, count: int):
    """Colour refinement (1-dimensional Weisfeiler-Leman) of a colouring
    with count colours.

    Each round recolours every vertex by the rank of its row: its colour,
    then its neighbours' colours sorted.  Rows are ranked by their keys
    (_row_keys), with one argsort and a diff of adjacent keys, or a lexsort
    when a row takes more than one key.  Rounds stop when the number of
    colours stops growing, at the coarsest equitable partition finer than
    col, or as soon as the colouring is discrete, which is equitable: its
    confirming round is read in one pass, in colour order, with no keys.
    Ranks depend on colours alone, so relabelling the graph permutes the
    result alike.  Returns the colouring, its number of colours and, as the
    node invariant of the search, the distinct rows of a round that changes
    no colour, as bytes.
    """
    own = np.column_stack([np.arange(len(col)), table])
    # The colours, then -1 for the padding sentinel; one buffer for every round.
    padded = np.full(len(col) + 1, -1, dtype=np.int64)
    order = None
    while True:
        padded[:-1] = col
        if count == len(col):
            # After a round, vertex order[c] has colour c already.
            if order is None:
                order = np.argsort(col)
            rows = padded[own[order]]
            rows[:, 1:].sort(axis=1)
            col = np.empty(len(order), dtype=np.int64)
            col[order] = np.arange(len(order))
            return col, count, rows.tobytes()
        rows = padded[own]
        rows[:, 1:].sort(axis=1)
        keys = _row_keys(rows, int(col.max(initial=-1)) + 2)
        order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
        fresh = np.zeros(len(col), dtype=bool)
        fresh[:1] = True
        for key in keys:
            key = key[order]
            fresh[1:] |= key[1:] != key[:-1]
        col = np.empty(len(order), dtype=np.int64)
        col[order] = np.cumsum(fresh) - 1
        grown = int(fresh.sum())
        if grown == count:
            return col, count, rows[order[fresh]].tobytes()
        count = grown


class _Leaf(NamedTuple):
    """A leaf of the search: the node invariants along its path, its
    discrete colouring and the vertices individualised."""

    inv: list[bytes]
    lab: np.ndarray
    path: list[int]


class _AutSearch:
    """Backtracking search over refined colourings of a neighbour table.

    A node's children individualise, one at a time, the vertices of its
    target cell: the smallest cell of more than one vertex, the one of
    least colour on a tie.  A leaf's colouring is discrete, and its node
    invariant, row by colour, is each vertex's colour, then its neighbours'
    colours sorted: the graph relabelled by the leaf (McKay and Piperno,
    2014).  A leaf discrete before refining keeps its individualised
    colours, which order the vertices as the labels do.

    A leaf whose last invariant matches the first leaf's, or whose
    invariants match the best leaf's, gives an automorphism.  It maps the
    searched child subtree of their deepest common ancestor that holds the
    earlier leaf onto the one that holds this leaf, so the search jumps
    back to that ancestor.

    Until the first leaf, every node lies on its path, and the search notes
    the size of each such node's target cell for order_bounds.

    gens holds one generator per row, so that one compare picks those that
    fix a prefix, and their transpose is a table whose orbit_labels are
    their orbits, with no inverses.  It starts from known, automorphisms
    the caller has already proven.  They prune by orbits from the first
    node on, since orbit pruning is exact under any group of automorphisms,
    but the first child of a node is never pruned: the first path and its
    target cells do not depend on them.
    """

    def __init__(self, table: np.ndarray, deadline: float | None, known=()):
        self.table = table
        self.deadline = deadline
        self.gens = np.array(known, dtype=np.int32).reshape(len(known), len(table))
        self.first_cells: list[int] = []
        self.first: _Leaf | None = None
        self.best: _Leaf | None = None

    def run(self) -> "_AutSearch":
        start = np.zeros(len(self.table), dtype=np.int64)
        self._dfs(_refine(self.table, start, 1), [], [], True, "EQ")
        return self

    def order_bounds(self) -> tuple[int, int]:
        """Proven lower and upper bounds on the order of Aut, from the
        first path v_1..v_k.

        The generators, known or found, that fix v_1..v_(i-1) generate a
        subgroup of that stabiliser in the group they all generate, so the
        product over i of the orbit lengths of v_i under them is at most the
        order of that group.  Refinement is equivariant, so the stabiliser
        of v_1..v_(i-1) in Aut maps v_i into the i-th target cell, and the
        stabiliser of the discrete first leaf is trivial: the product of the
        target-cell sizes bounds the order of Aut.  Only the graph fixes the
        cells, so known generators can raise the lower product but never
        the upper.  When the two products meet, the generators generate all
        of Aut.
        """
        lower = 1
        fixed = self.gens
        for v in self.first.path:
            if not len(fixed):
                break
            label = orbit_labels(fixed.T)
            lower *= int(np.count_nonzero(label == label[v]))
            fixed = fixed[fixed[:, v] == v]
        return lower, prod(self.first_cells)

    def _tick(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleLimit("automorphism search exceeded its time budget")

    def _children(self, prefix, cell) -> np.ndarray:
        """The indices into the target cell of the vertices outside the
        orbits of those before them, under the generators that fix the
        prefix pointwise."""
        keep = (self.gens[:, prefix] == prefix).all(axis=1)
        if not keep.any():
            return np.arange(len(cell))
        fixed = self.gens if keep.all() else self.gens[keep]
        return np.sort(np.unique(orbit_labels(fixed.T)[cell], return_index=True)[1])

    def _dfs(self, node, prefix, inv_path, on_first, best_cmp) -> int | None:
        """Search below the node; the depth to jump back to, or None."""
        self._tick()
        col, count, inv = node
        inv_path = inv_path + [inv]
        depth = len(inv_path) - 1
        if on_first and self.first is not None:
            if depth >= len(self.first.inv) or self.first.inv[depth] != inv:
                on_first = False
        if best_cmp == "EQ" and self.best is not None:
            if depth >= len(self.best.inv):
                best_cmp = "GT"
            elif inv > self.best.inv[depth]:
                best_cmp = "GT"
            elif inv < self.best.inv[depth]:
                best_cmp = "LT"
        if self.best is not None and best_cmp == "LT" and not on_first:
            return None
        if count == len(col):
            return self._leaf(col, prefix, inv_path)
        sizes = np.bincount(col)
        target = np.argmin(np.where(sizes > 1, sizes, len(col) + 1))
        if self.first is None:
            self.first_cells.append(int(sizes[target]))
        cell = np.flatnonzero(col == target)
        # Orbit pruning: skip a vertex in the orbit of a tried one under the
        # automorphisms found so far that fix the prefix.  Orbits only merge
        # as generators are found, so the orbits of the cell vertices before
        # a vertex are those of the tried ones, and the cell is relabelled
        # only after a child has added a generator.
        at, labelled = 0, None
        while True:
            v = int(cell[at])
            child = 2 * col
            child[v] -= 1
            node = _refine(self.table, child, count + 1)
            jump = self._dfs(node, prefix + [v], inv_path, on_first, best_cmp)
            if jump is not None and jump < depth:
                return jump
            if at + 1 == len(cell):
                return None
            if labelled != len(self.gens):
                labelled = len(self.gens)
                children = self._children(prefix, cell)
            k = np.searchsorted(children, at, side="right")
            if k == len(children):
                return None
            at = int(children[k])

    def _leaf(self, lab, path, inv_path) -> int | None:
        """Take in a leaf; when it matches the first or the best leaf, the
        depth of their deepest common ancestor."""
        leaf = _Leaf(inv_path, lab, path)
        if self.first is None:
            self.first = self.best = leaf
            return None
        if inv_path[-1] == self.first.inv[-1]:
            return self._record(self.first, leaf)
        if inv_path > self.best.inv:
            self.best = leaf
        elif inv_path == self.best.inv:
            return self._record(self.best, leaf)
        return None

    def _record(self, a: _Leaf, b: _Leaf) -> int:
        """Keep the automorphism sending each vertex of leaf a's labelling
        to its twin in leaf b's; the depth of their deepest common ancestor."""
        g = perm_inverse(b.lab)[a.lab]
        if (g != np.arange(len(g))).any() and not (self.gens == g).all(axis=1).any():
            self.gens = np.concatenate([self.gens, [g]])
        depth = 0
        for u, v in zip(a.path, b.path):
            if u != v:
                break
            depth += 1
        return depth


DEFAULT_ORACLE_LIMIT = 256


def _limited_table(graph, limit: int) -> np.ndarray:
    """The neighbour table of a graph (_table); OracleLimit above limit
    vertices."""
    table = _table(graph)
    if len(table) > limit:
        raise OracleLimit(
            f"graph has {len(table)} vertices, above the oracle limit {limit}"
        )
    return table


def _search(table: np.ndarray, time_budget: float | None, known=()) -> _AutSearch:
    """The finished search over a neighbour table, started from the known
    automorphisms; OracleLimit once time_budget seconds have passed."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _AutSearch(table, deadline, known).run()


def _check_graph(table: np.ndarray) -> None:
    """ValueError, with arc_action's texts, when the adjacency repeats an
    arc or is not symmetric.  The rows sorted show a repeat as two equal
    neighbours; then each column of them is looked up in the rows of its
    neighbours, N*d*d compares in all."""
    rows = np.sort(table, axis=1)
    degree = len(table)
    real = rows < degree
    if (real[:, 1:] & (rows[:, 1:] == rows[:, :-1])).any():
        raise ValueError("the adjacency repeats an arc")
    for t in range(rows.shape[1]):
        tails = np.flatnonzero(real[:, t])
        if not (rows[rows[tails, t]] == tails[:, None]).any(axis=1).all():
            raise ValueError("the adjacency is not symmetric")


def _check_automorphisms(table: np.ndarray, perms) -> None:
    """NotAnAutomorphism, naming the edge as arc_action does, when a
    permutation breaks one.

    On a graph that repeats no arc (_check_graph), g preserves the arcs
    exactly when the images of each vertex's neighbours, sorted, are the
    sorted neighbours of its image, with the padding sentinel sent to
    itself: one gather and one row sort per permutation.  The arc table is
    built only to name the edge."""
    rows = np.sort(table, axis=1)
    sentinel = len(table)
    for g in perms:
        if not np.array_equal(np.sort(np.append(g, sentinel)[table], axis=1), rows[g]):
            arc_perm, _ = arc_action(table)
            arc_perm(g)
            raise AssertionError("the sorted rows refuse a permutation the arcs keep")


def automorphism_group(
    graph,
    limit: int = DEFAULT_ORACLE_LIMIT,
    time_budget: float | None = None,
    known=(),
) -> PermGroup:
    """Full automorphism group, structure-blind, via backtracking refinement.

    known holds vertex permutations already proven to be automorphisms,
    such as a cover's certified lifts and deck translations.  The search
    starts its generators from them and prunes by their orbits from the
    first node.  After the limit, and before the search, ValueError refuses
    an entry of known that is not a permutation of the vertices, then a
    graph whose adjacency repeats an arc or is not symmetric
    (_check_graph); NotAnAutomorphism then names an edge that a known
    permutation breaks.  The generators the search finds are checked the
    same way.

    The group carries the search's order bounds (_AutSearch.order_bounds),
    so its order() builds no stabilizer chain when they meet.  The upper
    bound comes from the graph alone, so order() is |Aut| whatever known
    holds.
    """
    table = _limited_table(graph, limit)
    seeds = [as_perm(g, len(table)) for g in known]
    _check_graph(table)
    _check_automorphisms(table, seeds)
    search = _search(table, time_budget, seeds)
    _check_automorphisms(table, search.gens[len(seeds) :])
    lower, upper = search.order_bounds()
    return PermGroup._of_perms(search.gens, len(table), upper, lower)


def canonical_form(
    graph, limit: int = DEFAULT_ORACLE_LIMIT, time_budget: float | None = None
) -> tuple:
    """Vertex count and canonical key: equal for two graphs exactly when
    isomorphic."""
    table = _limited_table(graph, limit)
    return (len(table), _search(table, time_budget).best.inv[-1])
