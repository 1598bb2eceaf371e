"""Exact polynomial arithmetic over Z_p for an odd prime p.

Coefficients are stored low degree first with no trailing zeros; the zero
polynomial has an empty coefficient tuple.  Everything here is plain integer
arithmetic, no floating point anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType

PRIME_LIMIT = 10**6


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic trial-division primality test for odd p up to PRIME_LIMIT."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    if p > PRIME_LIMIT:
        raise ValueError(f"modulus {p} exceeds supported limit {PRIME_LIMIT}")
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime >= 3, got {p!r}")


@dataclass(frozen=True)
class FpPoly:
    """A polynomial over Z_p; coefficients normalized on construction."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _require_odd_prime(self.p)
        c = [int(a) % self.p for a in self.coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: FpPoly) -> FpPoly:
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FpPoly(self.p, tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: FpPoly) -> FpPoly:
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FpPoly(self.p, tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> FpPoly:
        return FpPoly(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: FpPoly | int) -> FpPoly:
        if isinstance(other, int):
            return FpPoly(self.p, tuple(a * other for a in self.coeffs))
        self._check(other)
        if self.is_zero or other.is_zero:
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = (out[i + j] + a * b) % self.p
        return FpPoly(self.p, tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other: FpPoly) -> tuple[FpPoly, FpPoly]:
        """Exact Euclidean division; divisor must be nonzero."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        inv_lead = pow(den[-1], p - 2, p)
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = c * inv_lead % p
            quo[i - dd] = q
            for j, b in enumerate(den):
                rem[i - dd + j] = (rem[i - dd + j] - q * b) % p
        return FpPoly(p, tuple(quo)), FpPoly(p, tuple(rem))

    def __floordiv__(self, other: FpPoly) -> FpPoly:
        return divmod(self, other)[0]

    def __mod__(self, other: FpPoly) -> FpPoly:
        return divmod(self, other)[1]

    def divides(self, other: FpPoly) -> bool:
        """True when self divides other exactly."""
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> FpPoly:
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        return self * pow(self.leading, self.p - 2, self.p)

    def expand(self, d: int) -> FpPoly:
        """Return f(x^d)."""
        if d < 1:
            raise ValueError("expansion step must be >= 1")
        if self.is_zero:
            return self
        out = [0] * (d * self.degree + 1)
        for i, a in enumerate(self.coeffs):
            out[d * i] = a
        return FpPoly(self.p, tuple(out))

    def _check(self, other: FpPoly) -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def to_text(self) -> str:
        """Space-separated coefficients, low degree first."""
        if self.is_zero:
            return "0"
        return " ".join(str(a) for a in self.coeffs)


def poly_one(p: int) -> FpPoly:
    return FpPoly(p, (1,))


def poly_x(p: int, k: int = 1) -> FpPoly:
    if k < 0:
        raise ValueError("power must be nonnegative")
    return FpPoly(p, (0,) * k + (1,))


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd via the Euclidean algorithm."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def pow_mod(base: FpPoly, e: int, modulus: FpPoly) -> FpPoly:
    """base**e reduced mod modulus, by repeated squaring."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = poly_one(base.p)
    base = base % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return result


def code_modulus(n: int, eps: int, p: int) -> FpPoly:
    """The ring modulus x^n - (-1)^eps of the eps-cyclic code of length n."""
    _require_odd_prime(p)
    if n < 1:
        raise ValueError(f"code length must be >= 1, got {n}")
    if eps not in (0, 1):
        raise ValueError(f"eps must be 0 or 1, got {eps}")
    const = -1 if eps == 0 else 1
    return FpPoly(p, (const,) + (0,) * (n - 1) + (1,))


def require_proper_divisor(g: FpPoly, n: int, eps: int) -> None:
    """Raise ValueError unless g is a monic proper divisor of x^n - (-1)^eps."""
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    if g.is_zero or g.leading != 1:
        raise ValueError("the divisor must be monic")
    modulus = code_modulus(n, eps, g.p)
    if g.degree >= n or not g.divides(modulus):
        raise ValueError(f"{g.to_text()!r} is not a proper divisor of {modulus.to_text()!r}")


def _distinct_degree_split(f: FpPoly) -> list[tuple[FpPoly, int]]:
    """Split squarefree monic f into products of irreducibles of equal degree."""
    p = f.p
    out = []
    h = poly_x(p) % f
    k = 0
    while f.degree > 0:
        k += 1
        if 2 * k > f.degree:
            out.append((f, f.degree))
            break
        h = pow_mod(h, p, f)
        g = poly_gcd(f, h - poly_x(p))
        if g.degree > 0:
            out.append((g, k))
            f = f // g
            h = h % f
    return out


def _equal_degree_split(f: FpPoly, k: int, rng: random.Random) -> list[FpPoly]:
    """Factor monic squarefree f whose irreducible factors all have degree k,
    by Cantor-Zassenhaus splitting."""
    p = f.p
    if f.degree == k:
        return [f]
    exponent = (p**k - 1) // 2
    while True:
        h = FpPoly(p, tuple(rng.randrange(p) for _ in range(f.degree)))
        if h.is_constant:
            continue
        d = poly_gcd(f, h)
        if not 0 < d.degree < f.degree:
            d = poly_gcd(f, pow_mod(h, exponent, f) - poly_one(p))
            if not 0 < d.degree < f.degree:
                continue
        left = _equal_degree_split(d.monic(), k, rng)
        right = _equal_degree_split((f // d).monic(), k, rng)
        return left + right


@lru_cache(maxsize=None)
def factor_code_modulus(n: int, eps: int, p: int) -> tuple[tuple[FpPoly, int], ...]:
    """Monic irreducible factors of x^n - (-1)^eps with multiplicities, sorted.

    When p divides n the modulus is a p-th power of the shorter modulus, so
    multiplicities are extracted first and the squarefree part is factored by
    distinct-degree then equal-degree splitting.
    """
    code_modulus(n, eps, p)  # validates arguments
    mult = 1
    n_red = n
    while n_red % p == 0:
        n_red //= p
        mult *= p
    base = code_modulus(n_red, eps, p)
    rng = random.Random(f"factor:{n}:{eps}:{p}")
    factors: list[tuple[FpPoly, int]] = []
    for product, k in _distinct_degree_split(base):
        for f in _equal_degree_split(product, k, rng):
            factors.append((f.monic(), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return tuple(factors)


@lru_cache(maxsize=None)
def divisor_exponents(n: int, eps: int, p: int) -> MappingProxyType:
    """Each monic divisor of x^n - (-1)^eps except the modulus itself, mapped
    to its exponent vector over factor_code_modulus.

    Includes the constant 1.  Sorted by degree, then coefficient tuples low
    degree first.  One divisor lies above another exactly when its exponent
    vector is at least the other's in every slot.
    """
    factors = factor_code_modulus(n, eps, p)
    full = tuple(m for _, m in factors)
    # Slot by slot, each divisor is its neighbour in the slot times f.
    table = {poly_one(p): ()}
    for f, m in factors:
        grown = {}
        for d, exps in table.items():
            for e in range(m + 1):
                if e:
                    d = d * f
                grown[d] = exps + (e,)
        table = grown
    if table.pop(code_modulus(n, eps, p), None) != full:
        raise AssertionError("the factors do not multiply to the modulus")
    if len(table) != prod(m + 1 for m in full) - 1:
        raise AssertionError("divisor lattice size mismatch")
    return MappingProxyType(
        dict(sorted(table.items(), key=lambda item: (item[0].degree, item[0].coeffs)))
    )


@lru_cache(maxsize=None)
def modulus_divisors(n: int, eps: int, p: int) -> tuple[FpPoly, ...]:
    """All monic divisors of x^n - (-1)^eps except the modulus itself, in the
    order of divisor_exponents."""
    return tuple(divisor_exponents(n, eps, p))


def support_gcd(f: FpPoly, constant_default: int | None = None) -> int:
    """Largest d such that f is a polynomial in x^d (gcd of nonzero indices).

    Constant nonzero polynomials are polynomials in x^d for every d; callers
    must supply the d to use for them (the code length, for divisors).
    """
    if f.is_zero:
        raise ValueError("zero polynomial has no support")
    if f.is_constant:
        if constant_default is None:
            raise ValueError("constant polynomial needs an explicit default")
        return constant_default
    d = 0
    for i, a in enumerate(f.coeffs):
        if a:
            d = gcd(d, i)
    return d


def compress(f: FpPoly, d: int) -> FpPoly:
    """The polynomial c with f(x) = c(x^d); every nonzero index must divide d."""
    if f.is_zero:
        raise ValueError("zero polynomial cannot be compressed")
    if d < 1:
        raise ValueError("compression step must be >= 1")
    for i, a in enumerate(f.coeffs):
        if a and i % d:
            raise ValueError(f"coefficient at index {i} blocks compression by {d}")
    return FpPoly(f.p, f.coeffs[::d])
