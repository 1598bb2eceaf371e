"""Tetravalent covers of doubled cycles built from divisors.

A proper divisor g of x^n - (-1)^eps over Z_p yields an r x n voltage
matrix whose rows are the shifted coefficient vectors of g, with
r = n - deg g.  The cover has vertex set Z_p^r x Z_n, and each vertex (v, j) is joined to
(v + col_j, j+1) and (v - col_j, j+1) where col_j is column j of the matrix.
Vertices are numbered j * p^r + value(v) with v read as little-endian base-p
digits.  Doubled-cycle automorphisms lift to the cover by forced propagation
over its neighbour table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcycle import DCAut
from .fpoly import FpPoly, as_ints, is_odd_prime, require_proper_divisor
from .lift import LiftReport
from .permgrp import Darts, NotAnAutomorphism, arc_action, as_perm, orbit_labels


class NotCertified(ValueError):
    """Vertex permutations whose action on the base darts does not
    determine the group they generate; the message names the failed check."""


class CoverGraph:
    """Cover of the doubled cycle on n vertices that a proper divisor g of
    x^n - (-1)^eps defines.

    Darts at a vertex are tracked as t in {0, 1, 2, 3}: t=0 adds the column
    of the current layer (the a-arc), t=1 subtracts it, and t=2, t=3 step
    back to the previous layer undoing t=0 and t=1 respectively.

    The constructor raises ValueError unless g is a monic proper divisor,
    for fewer than three layers, where the layers on both sides of a layer
    meet, and for 2^31 or more vertices, before any table is built, since
    vertex ids are int32.

    No column is zero, so the two arcs of a layer never coincide.  Column j
    holds g_j, ..., g_(j-r+1), zero outside 0..deg g.  g_0 is nonzero, as x
    does not divide x^n - (-1)^eps, and so is the leading coefficient; a
    zero column therefore needs r = n - deg g zero coefficients
    g_(i+1), ..., g_(i+r) with i >= 0 and i + r < deg g.  Split
    g = g_lo + x^(i+r+1) * g_hi with deg g_lo <= i, and let h be the
    cofactor, of degree r >= 1.  Then g_lo * h, of degree at most i + r, is
    the part of g * h = x^n - (-1)^eps below degree i + r + 1 <= deg g < n,
    a nonzero constant; yet g_lo is nonzero, so g_lo * h has degree >= r.

    The cover is connected.  From (v, j), the a-arc of layer j followed by
    the b-arc back reaches (v + 2 col_j, j).  Walking from layer 0 to layer
    k along a-arcs, round that loop and back along the same a-arcs adds
    2 col_k to the fiber point, so the points v with (v, 0) in the component
    of vertex 0 are closed under adding every 2 col_k.  Row i of the voltage
    matrix is x^i * g, whose lowest nonzero entry g_0 sits at position i, so
    the r rows are independent and the columns span Z_p^r; p is odd, so 2
    is invertible mod p and the 2 col_k span it too.  The component of
    vertex 0 thus holds all of layer 0, and a-arcs lead from there to every
    vertex.  In the terms of Gross and Tucker (Topological Graph Theory,
    1987), the local group at base vertex 0 is the whole voltage group.
    """

    def __init__(self, g: FpPoly, n: int, eps: int):
        require_proper_divisor(g, n, eps)
        if n < 3:
            raise ValueError("the base cycle needs at least three vertices")
        self.g, self.n, self.eps, self.p = g, n, eps, g.p
        self.r = n - g.degree
        self.fiber_size = self.p**self.r
        self.order = n * self.fiber_size
        if refusal := self.vertex_id_refusal(self.order):
            raise ValueError(refusal)
        self.dart_ends = self._build_dart_ends(np.array(self.columns(), dtype=np.int64))

    @staticmethod
    def vertex_id_refusal(order: int) -> str | None:
        """Why int32 vertex ids cannot number order vertices, or None."""
        return f"{order} vertices do not fit the int32 vertex ids" if order >= 2**31 else None

    def columns(self) -> list[tuple[int, ...]]:
        """The voltage matrix by columns: column j, the voltage of the forward
        step at layer j, holds g's coefficients j, j-1, ..., j-r+1."""
        return [tuple(self.g.coeff(j - i) for i in range(self.r)) for j in range(self.n)]

    def _fiber_add(self, vecs: np.ndarray) -> np.ndarray:
        """Table [k, v] of the fiber value v plus row k of vecs, digitwise mod p."""
        values = np.arange(self.fiber_size)
        out = np.zeros((len(vecs), self.fiber_size), dtype=np.int64)
        for i in range(self.r):
            out += (values // self.p**i + vecs[:, i, None]) % self.p * self.p**i
        return out

    def _build_dart_ends(self, cols: np.ndarray) -> np.ndarray:
        """Read-only table [v, t] of the end vertex of the dart of track t at v.

        The reverse of the dart of track t at u is the dart of track t ^ 2 at
        its head.  From u = (v, j), track 0 leads to (v + col_j, j+1), where
        track 2 subtracts col_j and steps back to u; track 1 leads to
        (v - col_j, j+1), where track 3 adds col_j back.  Tracks 2 and 3 at u
        lead to (v - col_(j-1), j-1) and (v + col_(j-1), j-1), where tracks
        0 and 1 return.  The cover is simple, so the dart of its head that
        leads back to u is that one.  Every dart of track t in layer j thus
        ends in layer j+1 for t < 2 and j-1 for t >= 2, and the reversal
        sends the darts over base dart 4j+t onto those over base dart
        4((j +- 1) mod n) + (t ^ 2): it projects to the base darts.
        """
        add, sub = self._fiber_add(cols), self._fiber_add(-cols)
        size = self.fiber_size
        layers = np.arange(self.n)
        ahead = ((layers + 1) % self.n * size)[:, None]
        back = (layers - 1) % self.n
        behind = (back * size)[:, None]
        ends = np.stack(
            [ahead + add, ahead + sub, behind + sub[back], behind + add[back]], axis=-1
        ).reshape(self.order, 4).astype(np.int32)
        ends.flags.writeable = False
        return ends

    # -- vertex encoding ------------------------------------------------------

    def vertex_id(self, fiber, layer: int) -> int:
        *digits, layer = as_ints((*fiber, layer), "fiber digits and layer")
        if len(digits) != self.r:
            raise ValueError(f"expected {self.r} fiber digits, got {len(digits)}")
        value = sum(x % self.p * self.p**i for i, x in enumerate(digits))
        return layer % self.n * self.fiber_size + value

    def layer(self, vid: int) -> int:
        return vid // self.fiber_size

    # -- graph views -----------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        tails = np.repeat(np.arange(self.order), 4)
        heads = self.dart_ends.ravel()
        keep = tails < heads
        return sorted(zip(tails[keep].tolist(), heads[keep].tolist()))

    def translations(self) -> list[np.ndarray]:
        """Vertex permutations, as int32 image arrays, adding each standard
        basis vector to fibers."""
        layers = (np.arange(self.n) * self.fiber_size)[:, None]
        shifts = self._fiber_add(np.eye(self.r, dtype=np.int64))
        return [(layers + shift).ravel().astype(np.int32) for shift in shifts]

    def base_action(self, perms) -> tuple[list[np.ndarray], Darts]:
        """The action on the 4n base darts of the group G that vertex
        permutations generate, which determines G.

        Returns the induced base-dart permutations and the doubled cycle as
        Darts (the projected arc reversal, and tail j of base dart 4j+t).
        The dart of track t at u lies over base dart 4(u // fiber_size) + t,
        in the numbering of DCAut.arc_perm, and the arc reversal projects to
        the base darts by construction (_build_dart_ends), so the reversal
        is read from n alone.

        Raises NotCertified, naming the check that failed, unless every
        permutation maps darts to darts, sending all darts over one base
        dart to darts over one base dart, and the given permutations that
        induce the identity there, which map each fiber to itself, are
        transitive on the fiber of vertex 0.  That check reads the given
        permutations, not the group they generate, so it refuses a
        generating set that shows too little of the kernel even when G's
        kernel fills a fiber; adding the deck translations supplies the
        kernel.  The permutations are checked in order, each passing as_perm
        before the next is read.

        How it is checked.  Each permutation is read at the first vertex of
        each layer j: the layer its image lies in, and the track map T[j]
        that sends each dart there to the track of its image.  Every vertex
        of layer j must then go to that layer, and every dart (u, t) to the
        dart of track T[j, t] at the image of u: one gather compare over the
        darts of each permutation in turn.  The cover is simple, so this proves that they
        are automorphisms and that the projection is well defined.

        Why that determines G.  An element of the kernel K of the action that
        fixes a vertex fixes its four darts, which lie over four distinct
        base darts, so it fixes the four neighbours and, since the cover is
        connected (see CoverGraph), every vertex.  K is therefore semiregular
        on a fiber, and transitive on the fiber of vertex 0 by the last
        check, so |K| is the fiber size and |G| the fiber size times the
        induced group's order.  K is regular on every fiber, so the arcs over
        one base dart form one K-orbit, and G's orbits on vertices, edges
        and arcs are the induced group's orbits on base vertices, base edges
        and base darts.
        """
        n, size, ends = self.n, self.fiber_size, self.dart_ends
        darts = np.arange(4 * n, dtype=np.int32)
        top = ends[::size]
        induced, kernel = [], []
        for perm in perms:
            perm = as_perm(perm, self.order)
            rows = perm.reshape(n, size)
            first = rows[:, :1]
            # track[j, t]: the track of the image of the dart of track t at the
            # first vertex of layer j; 0 where no dart matches, which the dart
            # compare then refuses.
            track = (ends[first] == perm[top][..., None]).argmax(axis=-1).astype(np.int32)
            heads = ends.ravel()[rows[..., None] * 4 + track[:, None]].reshape(-1, 4)
            if not ((rows // size == first // size).all() and (heads == perm[ends]).all()):
                raise NotCertified(self._refusal(perm))
            induced.append((first // size * 4 + track).ravel())
            if (induced[-1] == darts).all():
                kernel.append(rows[0])
        if orbit_labels(np.array(kernel, dtype=np.int32).reshape(len(kernel), size).T).any():
            raise NotCertified(
                "the given permutations acting trivially on base darts are not "
                "transitive on a fiber; adding the deck translations supplies the kernel"
            )
        # Base dart 4j+t reverses to 4(j + 1) + (t ^ 2) for t < 2, and to
        # 4(j - 1) + (t ^ 2) otherwise (_build_dart_ends).
        t = darts % 4
        reversal = (darts // 4 + 1 - t // 2 * 2) % n * 4 + (t ^ 2)
        return induced, Darts(reversal, darts // 4)

    def _refusal(self, perm: np.ndarray) -> str:
        """Why a permutation failed base_action's dart compare: the first dart,
        row-major, whose image is not a dart (arc_action), or else the
        projection."""
        try:
            arc_action(self)[0](perm)
        except NotAnAutomorphism as err:
            return f"a lift is not an automorphism: {err}"
        return "a lift does not act on the base darts"


# The name the census builds covers by, which a tracer may rebind there.
build_cover = CoverGraph


def extremal_cover(kind: str, p: int, r: int, blocks: int) -> CoverGraph:
    """Cover of a Gardiner–Praeger family, the CoverGraph of c(x^r).

    Kind "pm1" takes c = 1 + x + ... + x^(blocks-1).  Kind "pmtheta" puts
    theta^(k+1-blocks) on x^k, with theta a square root of -1, so p must be
    1 mod 4 and `blocks` even.  Both give n = r * blocks, and voltage matrices
    of scalar r x r blocks up to sign: the identity for "pm1"; for "pmtheta",
    theta times the identity on even blocks and the identity on odd ones.
    """
    if r < 1 or blocks < 2:
        raise ValueError("need a positive fiber dimension and at least two blocks")
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if kind == "pm1":
        eps = 0
        core = [1] * blocks
    elif kind == "pmtheta":
        if p % 4 != 1:
            raise ValueError("a square root of -1 requires p = 1 mod 4")
        if blocks % 2:
            raise ValueError("the alternating family needs an even block count")
        theta = min(x for x in range(2, p) if (x * x + 1) % p == 0)
        eps = (blocks // 2) % 2
        core = [pow(theta, (k + 1 - blocks) % 4, p) for k in range(blocks)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return CoverGraph(FpPoly(p, core).expand(r), r * blocks, eps)


# -- lifting by forced propagation ----------------------------------------------


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
    stops at the first level where a dart forces a conflicting image on a
    vertex; the witness is the first such dart's.  By default vertex 0 goes
    to the zero fiber point over its base image.  The lift is an int32
    image array.
    """
    lifted = _propagate([aut], cover, [base_image])
    return lifted[1] if isinstance(lifted, tuple) else lifted[0]


def _propagate(
    auts, cover: CoverGraph, base_images, target: CoverGraph | None = None
) -> np.ndarray | tuple[int, Inconsistent]:
    """lift_by_propagation of every automorphism, in one propagation: the
    array whose row k is the lift of auts[k], or else the index and witness
    of the first to conflict.

    With a target cover, of the same cycle length and fiber size, each dart
    at a vertex of cover maps to the dart over the image of its base dart
    at the image vertex in target, and a base image names a vertex of
    target: a row that completes maps cover's vertices to target's.  The
    target is cover itself by default.

    The levels of the breadth-first search from vertex 0 depend only on the
    graph, so one frontier serves them all, and no row reads another.  The
    first level at which some row conflicts ends the batch, with the lowest
    such row at its first conflicting dart: the witness that automorphism
    gives alone.  A vertex reached by several darts of one level takes the
    image the last of them forces.

    A row that completes is a bijection onto target's vertices.  Each level
    compares every dart at the vertices the level before placed, so a
    propagation that ends without a conflict has compared every dart at
    every vertex it reached.  The four darts at a vertex go to the four
    darts at its image, since an automorphism's tracks at each base vertex
    are a permutation of 0..3, so a row maps the four neighbours of each
    vertex onto the four neighbours of its image in target.  Its image is
    therefore closed under adjacency in target, which makes it all of the
    connected target (see CoverGraph), and a map onto a set of the same size
    is a bijection.  The reach check below is the graph-side evidence of
    cover's connectivity.
    """
    target = cover if target is None else target
    if (target.n, target.fiber_size) != (cover.n, cover.fiber_size):
        raise ValueError("the target cover has another cycle length or fiber size")
    n, size, ends = cover.n, cover.fiber_size, cover.dart_ends
    image = np.full((len(auts), cover.order), -1, dtype=np.int32)
    if not auts:
        return image
    for k, (aut, base) in enumerate(zip(auts, base_images)):
        if aut.n != n:
            raise ValueError("automorphism and cover disagree on the cycle length")
        if base is None:
            base = target.vertex_id((0,) * target.r, aut.vertex_image(0))
        (base,) = as_ints((base,), "base images")
        if target.layer(base) != aut.vertex_image(0):
            raise ValueError("base image must lie over the image of vertex 0")
        image[k, 0] = base
    # tracks[k, j, t]: track of the image under auts[k] of the dart of track t
    # at base vertex j.
    tracks = np.array([aut.arc_perm() for aut in auts], dtype=np.int32).reshape(-1, n, 4) % 4
    frontier = np.zeros(1, dtype=np.int32)
    while len(frontier):
        v = ends[frontier].ravel()
        iv = target.dart_ends[image[:, frontier, None], tracks[:, frontier // size]]
        iv = iv.reshape(len(auts), -1)
        # Every row places the same vertices at each level, so row 0 tells.
        fresh = np.flatnonzero(image[0, v] < 0)
        frontier, last = np.unique(v[fresh][::-1], return_index=True)
        image[:, frontier] = iv[:, fresh[len(fresh) - 1 - last]]
        bad = image[:, v] != iv
        if bad.any():
            k, i = divmod(int(np.argmax(bad)), len(v))
            w = int(v[i])
            return k, Inconsistent(vertex=w, expected=int(image[k, w]), got=int(iv[k, i]))
    if (image < 0).any():
        raise AssertionError("propagation did not reach every vertex")
    return image


def cover_isomorphism(aut: DCAut, source: CoverGraph, target: CoverGraph) -> np.ndarray:
    """The isomorphism from source onto target that the base automorphism
    lifts to, as an int32 image array, vertex 0 sent to the zero fiber
    point over its base image.

    Why one may exist.  A base automorphism acts on the first homology of
    the doubled cycle (DCAut.homology_action), hence on codes, and it lifts
    to an isomorphism between two regular covers exactly when it carries
    the homology that one cover's voltages kill onto the other's (Malnič,
    Nedela and Škoviera, "Lifting graph automorphisms by voltage
    assignments", European J. Combin. 21, 2000).  In the terms of
    lift.lifts_by_invariance, aut carries the code of source's divisor
    onto the code of target's, the criterion with two codes in place of
    one; census._partners names such an aut for each pair of divisors it
    pairs.

    Nothing here trusts that.  The lift is one propagation from source into
    target (_propagate), which completes or conflicts.  A row that completes
    has compared every dart of source, sending the neighbours of each vertex
    to neighbours of its image in target, and aut's tracks at each base
    vertex are a permutation of 0..3, so the four darts at a vertex go onto
    the four at its image: _propagate proves from this that the row is a
    bijection, and as_perm checks it.  A bijection that maps every edge of
    source to an edge of target, which has as many, is a graph
    isomorphism.  Conjugation by an isomorphism phi, alpha -> phi^-1 alpha
    phi, is a bijection from Aut(source) onto Aut(target), so the two
    covers have automorphism groups of one order.

    Raises NotCertified, naming the first conflict or the check that failed,
    and ValueError when the covers differ in cycle length or fiber size.
    """
    lifted = _propagate([aut], source, [None], target)
    if isinstance(lifted, tuple):
        w = lifted[1]
        raise NotCertified(f"{aut} forces vertex {w.vertex} onto both {w.expected} and {w.got}")
    try:
        return as_perm(lifted[0], target.order)
    except ValueError as err:
        raise NotCertified(f"the lift of {aut}: {err}") from None


def lifted_generators(report: LiftReport, cover: CoverGraph) -> list[np.ndarray]:
    """Vertex permutations generating the full preimage of the base group.

    One propagation lifts every base generator; with the fiber translations
    these generate every lift of every element of the base group, a group
    of order base_order * p^fiber_dim.
    """
    if (cover.g, cover.n, cover.eps) != (report.info.g, report.info.n, report.info.eps):
        raise ValueError("cover does not belong to the report's divisor")
    gens = report.generators
    lifted = _propagate(gens, cover, [None] * len(gens))
    if isinstance(lifted, tuple):
        raise AssertionError(f"verified generator {gens[lifted[0]]} failed to lift")
    return list(lifted) + cover.translations()
