"""Tetravalent covers of doubled cycles built from banded code matrices.

A proper divisor g of x^n - (-1)^eps over Z_p yields an r x n matrix whose
rows are the shifted coefficient vectors of g, with r = n - deg g.  The cover
has vertex set Z_p^r x Z_n, and each vertex (v, j) is joined to
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
from .fpoly import FpPoly, is_odd_prime, require_proper_divisor
from .lift import LiftReport
from .permgrp import (
    Darts,
    NotAnAutomorphism,
    arc_action,
    generator_labels,
    orbit_labels,
)


class NonSimpleCover(ValueError):
    """A zero matrix column would merge the two parallel arcs of a layer."""

    def __init__(self, column: int):
        super().__init__(f"column {column} is zero, giving parallel edges")
        self.column = column


class NotCertified(ValueError):
    """Vertex permutations whose action on the base darts does not
    determine the group they generate; the message names the failed check."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Voltage matrix over Z_p; column j feeds the arcs leaving layer j."""

    p: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if not len(self.rows) or not len(self.rows[0]):
            raise ValueError("the matrix must be nonempty")
        if len(set(map(len, self.rows))) > 1:
            raise ValueError("ragged rows")
        rows = np.asarray(self.rows, dtype=np.int64) % self.p
        object.__setattr__(self, "rows", tuple(map(tuple, rows.tolist())))

    @classmethod
    def from_poly(cls, g: FpPoly, n: int) -> "GeneratorMatrix":
        """Banded matrix whose row i carries the coefficients of x^i * g."""
        m = g.degree
        if not 1 <= n - m:
            raise ValueError("the polynomial leaves no room for rows")
        r = n - m
        # Rows of length n + 1 that start with g, read back with length n:
        # each row then starts one place later than the one before.
        rows = np.zeros((r, n + 1), dtype=np.int64)
        rows[:, : m + 1] = g.coeffs
        return cls(g.p, rows.ravel()[: r * n].reshape(r, n))

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        j %= self.n
        return tuple(row[j] for row in self.rows)


class CoverGraph:
    """Cover of the doubled cycle described by a generator matrix.

    Darts at a vertex are tracked as t in {0, 1, 2, 3}: t=0 adds the column
    of the current layer (the a-arc), t=1 subtracts it, and t=2, t=3 step
    back to the previous layer undoing t=0 and t=1 respectively.

    The constructor refuses a matrix whose cover is not simple: fewer than
    three columns (ValueError), where the layers on both sides of a layer
    meet, or a zero column (NonSimpleCover).
    """

    def __init__(
        self,
        matrix: GeneratorMatrix,
        eps: int | None = None,
        g: FpPoly | None = None,
    ):
        cols = np.array(matrix.rows, dtype=np.int64).T
        if len(cols) < 3:
            raise ValueError("the base cycle needs at least three vertices")
        zero = np.flatnonzero(~cols.any(axis=1))
        if len(zero):
            raise NonSimpleCover(int(zero[0]))
        self.matrix = matrix
        self.p = matrix.p
        self.n = matrix.n
        self.r = matrix.r
        self.eps = eps
        self.g = g
        self.fiber_size = self.p**self.r
        self.order = self.n * self.fiber_size
        self.dart_ends = self._build_dart_ends(cols)

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
        fiber = tuple(fiber)
        if len(fiber) != self.r:
            raise ValueError(f"expected {self.r} fiber digits, got {len(fiber)}")
        value = sum(int(x) % self.p * self.p**i for i, x in enumerate(fiber))
        return (layer % self.n) * self.fiber_size + value

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
        Arc 4u+t lies over base dart 4(u // fiber_size) + t, in the
        numbering of DCAut.arc_perm.

        Raises NotCertified, naming the check that failed, unless the cover
        is connected, every permutation maps darts to darts, sending all
        darts over one base dart to darts over one base dart, the arc
        reversal projects to base darts too, and the permutations that
        induce the identity there, which map each fiber to itself, are
        transitive on the fiber of vertex 0.

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
        arc_perm, (reversal, _) = arc_action(self)
        base = (np.arange(self.order)[:, None] // self.fiber_size * 4 + np.arange(4)).ravel()

        def project(arcs, what):
            image = base[arcs]
            on_base = np.empty(4 * self.n, dtype=np.int32)
            on_base[base] = image
            if not np.array_equal(on_base[base], image):
                raise NotCertified(f"{what} does not act on the base darts")
            return on_base

        induced = []
        for perm in perms:
            try:
                arcs = arc_perm(perm)
            except NotAnAutomorphism as err:
                raise NotCertified(f"a lift is not an automorphism: {err}") from None
            induced.append(project(arcs, "a lift"))
        on_reversal = project(reversal, "the arc reversal")
        darts = np.arange(4 * self.n)
        size = self.fiber_size
        on_fiber = [
            np.asarray(perm[:size])
            for perm, on_base in zip(perms, induced)
            if np.array_equal(on_base, darts)
        ]
        if generator_labels(on_fiber, size).any():
            raise NotCertified(
                "the lifts acting trivially on base darts are not transitive on a fiber"
            )
        return induced, Darts(on_reversal, darts // 4)


def build_cover(g: FpPoly, n: int, eps: int) -> CoverGraph:
    """Cover of the doubled cycle on n vertices from a proper divisor g."""
    require_proper_divisor(g, n, eps)
    cover = CoverGraph(GeneratorMatrix.from_poly(g, n), eps=eps, g=g)
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
    forces a conflicting image on some vertex.  By default vertex 0 goes to
    the zero fiber point over its base image.  The lift is an int32 image
    array.
    """
    n = cover.n
    if aut.n != n:
        raise ValueError("automorphism and cover disagree on the cycle length")
    if base_image is None:
        base_image = cover.vertex_id((0,) * cover.r, aut.vertex_image(0))
    if cover.layer(base_image) != aut.vertex_image(0):
        raise ValueError("base image must lie over the image of vertex 0")
    # tracks[j, t]: track of the image of the dart of track t at base vertex j.
    tracks = np.asarray(aut.arc_perm()).reshape(n, 4) % 4
    ends = cover.dart_ends
    image = np.full(cover.order, -1, dtype=np.int64)
    image[0] = base_image
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        v = ends[frontier].ravel()
        iv = ends[image[frontier][:, None], tracks[frontier // cover.fiber_size]].ravel()
        fresh = image[v] < 0
        image[v[fresh]] = iv[fresh]
        bad = np.flatnonzero(image[v] != iv)
        if len(bad):
            w, got = int(v[bad[0]]), int(iv[bad[0]])
            return Inconsistent(vertex=w, expected=int(image[w]), got=got)
        reached = np.zeros(cover.order, dtype=bool)
        reached[v[fresh]] = True
        frontier = np.flatnonzero(reached)
    if image.min() < 0:
        raise AssertionError("propagation did not reach every vertex")
    if not np.array_equal(np.sort(image), np.arange(cover.order)):
        raise AssertionError("propagation produced a non-bijective map")
    return image.astype(np.int32)


def lifted_generators(report: LiftReport, cover: CoverGraph) -> list[np.ndarray]:
    """Vertex permutations generating the full preimage of the base group.

    One propagation lift per base generator plus the fiber translations;
    together these generate every lift of every element of the base group,
    a group of order base_order * p^fiber_dim.
    """
    info = report.info
    if cover.matrix != GeneratorMatrix.from_poly(info.g, info.n):
        raise ValueError("cover does not belong to the report's divisor")
    perms: list[np.ndarray] = []
    for g in report.generators:
        lift = lift_by_propagation(g, cover)
        if isinstance(lift, Inconsistent):
            raise AssertionError(f"verified generator {g} failed to lift")
        perms.append(lift)
    perms.extend(cover.translations())
    return perms
