"""The doubled cycle and its automorphisms in split normal form.

The doubled cycle on n vertices has two parallel arcs a_j, b_j from vertex j
to vertex j+1.  Dart 4v+t is the dart of track t leaving vertex v, the
numbering a cover gives its arcs with a one-point fiber: tracks 0 and 1 run
along a_v and b_v, tracks 2 and 3 back along the inverses of a_{v-1} and
b_{v-1}.  Flipping bit 0 of t exchanges the two parallel arcs, flipping bit 1
reverses direction.

Every automorphism factors uniquely as tau_J sigma^s rho^k where tau_J swaps
the parallel arc pairs indexed by J, sigma is the reflection fixing the arcs
between vertices 0 and 1, and rho is the one-step rotation.  Factors apply
left to right throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fpoly import as_ints


# -- subsets of Z_n as bitmasks ----------------------------------------------


def mask_shift(mask: int, n: int, k: int) -> int:
    """Image of a subset of Z_n under j -> j + k, as a bitmask."""
    k %= n
    full = (1 << n) - 1
    return ((mask << k) | (mask >> (n - k))) & full if k else mask


def mask_reverse(mask: int, n: int) -> int:
    """Image of a subset of Z_n under j -> -j, as a bitmask."""
    out = 0
    for j in range(n):
        if (mask >> j) & 1:
            out |= 1 << ((-j) % n)
    return out


def mask_bits(mask: int) -> list[int]:
    out = []
    j = 0
    while mask >> j:
        if (mask >> j) & 1:
            out.append(j)
        j += 1
    return out


def span_basis(masks) -> list[int]:
    """Echelonized basis of a set of bitmasks over GF(2)."""
    basis: list[int] = []
    for m in masks:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis.append(m)
            basis.sort(reverse=True)
    return basis


def in_span(basis, mask: int) -> bool:
    for b in basis:
        mask = min(mask, mask ^ b)
    return mask == 0


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class DCAut:
    """Automorphism tau_J sigma^s rho^k of the doubled cycle on n vertices."""

    n: int
    swaps: int = 0
    reflect: int = 0
    shift: int = 0

    def __post_init__(self):
        fields = (self.n, self.swaps, self.reflect, self.shift)
        n, swaps, reflect, shift = as_ints(fields, "n, swaps, reflect and shift")
        if n < 1:
            raise ValueError("need at least one vertex")
        if not 0 <= swaps < (1 << n):
            raise ValueError("swap set is not a subset of Z_n")
        if reflect not in (0, 1):
            raise ValueError("reflect must be 0 or 1")
        object.__setattr__(self, "shift", shift % n)

    # constructors

    @classmethod
    def edge_swap(cls, n: int, j: int) -> "DCAut":
        return cls(n, swaps=1 << (j % n))

    @classmethod
    def edge_swaps(cls, n: int, js) -> "DCAut":
        mask = 0
        for j in js:
            mask ^= 1 << (j % n)
        return cls(n, swaps=mask)

    @classmethod
    def full_swap(cls, n: int) -> "DCAut":
        return cls(n, swaps=(1 << n) - 1)

    @classmethod
    def periodic_swap(cls, n: int, i: int, step: int) -> "DCAut":
        """tau over the arithmetic progression i, i+step, ... of step dividing n."""
        if step <= 0 or n % step:
            raise ValueError(f"step {step} does not divide {n}")
        return cls.edge_swaps(n, range(i % step, n, step))

    @classmethod
    def reflection(cls, n: int) -> "DCAut":
        return cls(n, reflect=1)

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "DCAut":
        return cls(n, shift=k)

    # group structure

    def __mul__(self, other: "DCAut") -> "DCAut":
        """Composite applying self first, then other."""
        if self.n != other.n:
            raise ValueError("mixed cycle lengths")
        n = self.n
        carried = mask_shift(other.swaps, n, -self.shift)
        if self.reflect:
            carried = mask_reverse(carried, n)
        shift = other.shift - self.shift if other.reflect else self.shift + other.shift
        return DCAut(n, self.swaps ^ carried, self.reflect ^ other.reflect, shift)

    # actions

    def vertex_image(self, v: int) -> int:
        w = (1 - v) % self.n if self.reflect else v % self.n
        return (w + self.shift) % self.n

    def dart_image(self, dart: int) -> int:
        v, t = divmod(dart, 4)
        j = (v - (t >= 2)) % self.n  # the dart's arc pair
        t ^= ((self.swaps >> j) & 1) ^ 2 * self.reflect
        return 4 * self.vertex_image(v) + t

    def arc_perm(self) -> list[int]:
        return [self.dart_image(d) for d in range(4 * self.n)]

    def homology_action(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Signed permutation (perm, sign), as tuples, of the action on first homology.

        The basis is c_0, ..., c_{n-1}, c_* with c_j the difference of the
        two parallel arcs from vertex j and c_* the sum of all arcs; basis
        vector i maps to sign[i] times basis vector perm[i].  tau_J negates
        the c_j with j in J, sigma sends c_j to -c_{-j} and negates c_*, rho
        shifts indices.
        """
        n = self.n
        corner = -1 if self.reflect else 1
        perm = tuple(((-i if self.reflect else i) + self.shift) % n for i in range(n))
        sign = tuple(corner * (-1 if (self.swaps >> i) & 1 else 1) for i in range(n))
        return perm + (n,), sign + (corner,)

    # text form

    def to_text(self) -> str:
        parts = []
        if self.swaps:
            parts.append("t[" + ",".join(map(str, mask_bits(self.swaps))) + "]")
        if self.reflect:
            parts.append("s")
        if self.shift:
            parts.append(f"r{self.shift}" if self.shift != 1 else "r")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.to_text()


# -- vertex- and edge-transitive subgroups -------------------------------------


def subgroup_from_case(
    n: int, case: str, b_masks=(), eps: int = 0, j_mask: int = 0
) -> list[DCAut]:
    """Generators of a vertex- and edge-transitive subgroup of a given shape.

    Case "i" is the dihedral group generated by the rotation and the
    reflection composed with the full swap; it takes no further data.  Cases
    "ii" and "iii" adjoin to a swap subgroup B (given by generator masks) the
    twisted rotation, and for "iii" also a twisted reflection.  The side
    conditions on B, eps and J are verified and violations raise ValueError.
    """
    if case == "i":
        return [DCAut.rotation(n), DCAut.reflection(n) * DCAut.full_swap(n)]
    if case not in ("ii", "iii"):
        raise ValueError(f"unknown case {case!r}")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    basis = span_basis(b_masks)
    if not basis:
        raise ValueError("the swap subgroup must be nontrivial")
    for m in b_masks:
        if not in_span(basis, mask_shift(m, n, 1)):
            raise ValueError("the swap subgroup is not rotation-invariant")
    full = (1 << n) - 1
    if eps and not in_span(basis, full):
        raise ValueError("eps=1 requires the full swap inside the subgroup")
    tau0 = DCAut.edge_swap(n, 0)
    gens = [DCAut(n, swaps=m) for m in b_masks]
    rot = DCAut.rotation(n)
    gens.append(rot * tau0 if eps else rot)
    if case == "iii":
        for m in b_masks:
            if not in_span(basis, mask_reverse(m, n)):
                raise ValueError("the swap subgroup is not reflection-invariant")
        if not in_span(basis, j_mask ^ mask_reverse(j_mask, n)):
            raise ValueError("tau_J tau_{-J} must lie in the swap subgroup")
        if not in_span(basis, j_mask ^ mask_shift(j_mask, n, 1)):
            raise ValueError("tau_J tau_{J+1} must lie in the swap subgroup")
        refl = DCAut.reflection(n)
        if eps:
            refl = refl * tau0
        gens.append(refl * DCAut(n, swaps=j_mask))
    return gens
