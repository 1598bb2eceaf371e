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
from functools import cached_property

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
        """Read-only table [v, t] of the end vertex of the dart of track t at v."""
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

    def is_connected(self) -> bool:
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        return not orbit_labels(self.dart_ends).any()

    def base_action(self, perms) -> tuple[list[np.ndarray], Darts]:
        """The action on the 4n base darts of the group G that vertex
        permutations generate, which determines G.

        Returns the induced base-dart permutations and the doubled cycle as
        Darts (the projected arc reversal, and tail j of base dart 4j+t).
        The dart of track t at u lies over base dart 4(u // fiber_size) + t,
        in the numbering of DCAut.arc_perm.

        Raises NotCertified, naming the check that failed, unless the cover
        is connected, every permutation maps darts to darts, sending all
        darts over one base dart to darts over one base dart, the arc
        reversal projects to base darts too, and the given permutations
        that induce the identity there, which map each fiber to itself, are
        transitive on the fiber of vertex 0.  That check reads the given
        permutations, not the group they generate, so it refuses a
        generating set that shows too little of the kernel even when G's
        kernel fills a fiber; adding the deck translations supplies the
        kernel.  The cover's own checks come first, then the permutations
        in order, each passing as_perm before the next is read.

        How it is checked.  Dart (u, t) must reverse to the dart of track
        t ^ 2 at its head, and the heads of the darts over one base dart
        must lie in one layer, so that the reversal projects.  Each
        permutation is read at the first vertex of each layer j: the layer
        its image lies in, and the track map T[j] that sends each dart there
        to the track of its image.  Every vertex of layer j must then go to
        that layer, and every dart (u, t) to the dart of track T[j, t] at
        the image of u: one gather compare over the darts of each
        permutation in turn.  The cover is simple, so this proves that they
        are automorphisms and that the projection is well defined.

        Why that determines G.  An element of the kernel K of the action
        that fixes a vertex fixes its four darts, which lie over four
        distinct base darts, so it fixes the four neighbours and, by
        connectivity, every vertex.  K is therefore semiregular on a fiber,
        and transitive on the fiber of vertex 0 by the last check, so
        |K| is the fiber size and |G| the fiber size times the induced
        group's order.  K is regular on every fiber, so the arcs over one
        base dart form one K-orbit, and G's orbits on vertices, edges and
        arcs are the induced group's orbits on base vertices, base edges
        and base darts.
        """
        if not self.is_connected():
            raise NotCertified("the cover is disconnected")
        n, size, ends = self.n, self.fiber_size, self.dart_ends
        swap = np.array([2, 3, 0, 1], dtype=np.int32)
        head_layers = (ends // size).reshape(n, size, 4)
        if not (
            (ends[ends, swap] == np.arange(self.order)[:, None]).all()
            and (head_layers == head_layers[:, :1]).all()
        ):
            raise NotCertified("the arc reversal does not act on the base darts")
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
        reversal = (head_layers[:, 0] * 4 + swap).ravel().astype(np.int32)
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


def build_cover(g: FpPoly, n: int, eps: int) -> CoverGraph:
    """CoverGraph(g, n, eps), checked to be connected."""
    cover = CoverGraph(g, n, eps)
    if not cover.is_connected():
        raise AssertionError("the cover of a proper divisor is disconnected")
    return cover


def extremal_cover(kind: str, p: int, r: int, blocks: int) -> CoverGraph:
    """Cover of a Gardiner–Praeger family, built as build_cover of c(x^r).

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
    return build_cover(FpPoly(p, core).expand(r), r * blocks, eps)


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


def _propagate(auts, cover: CoverGraph, base_images) -> np.ndarray | tuple[int, Inconsistent]:
    """lift_by_propagation of every automorphism, in one propagation: the
    array whose row k is the lift of auts[k], or else the index and witness
    of the first to conflict.

    The levels of the breadth-first search from vertex 0 depend only on the
    graph, so one frontier serves them all, and no row reads another.  The
    first level at which some row conflicts ends the batch, with the lowest
    such row at its first conflicting dart: the witness that automorphism
    gives alone.  A vertex reached by several darts of one level takes the
    image the last of them forces.
    """
    n, size, ends = cover.n, cover.fiber_size, cover.dart_ends
    image = np.full((len(auts), cover.order), -1, dtype=np.int32)
    if not auts:
        return image
    for k, (aut, base) in enumerate(zip(auts, base_images)):
        if aut.n != n:
            raise ValueError("automorphism and cover disagree on the cycle length")
        if base is None:
            base = cover.vertex_id((0,) * cover.r, aut.vertex_image(0))
        (base,) = as_ints((base,), "base images")
        if cover.layer(base) != aut.vertex_image(0):
            raise ValueError("base image must lie over the image of vertex 0")
        image[k, 0] = base
    # tracks[k, j, t]: track of the image under auts[k] of the dart of track t
    # at base vertex j.
    tracks = np.array([aut.arc_perm() for aut in auts], dtype=np.int32).reshape(-1, n, 4) % 4
    frontier = np.zeros(1, dtype=np.int32)
    while len(frontier):
        v = ends[frontier].ravel()
        iv = ends[image[:, frontier, None], tracks[:, frontier // size]].reshape(len(auts), -1)
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
    if not (np.sort(image, axis=1) == np.arange(cover.order)).all():
        raise AssertionError("propagation produced a non-bijective map")
    return image


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
