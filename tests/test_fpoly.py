"""Tests for exact Z_p[x] arithmetic and the code-modulus divisor lattice."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dccover.fpoly import (
    FpPoly,
    code_modulus,
    compress,
    factor_code_modulus,
    is_odd_prime,
    poly_gcd,
    poly_one,
    poly_x,
    support_gcd,
)
from dccover.reflex import modulus_divisors

SWEEP = [
    (n, eps, p)
    for p in (3, 5, 7)
    for n in range(1, 9)
    for eps in (0, 1)
]


def brute_irreducible(f: FpPoly) -> bool:
    """Oracle: trial division by every monic polynomial of degree <= deg/2."""
    if f.degree < 1:
        return False
    for k in range(1, f.degree // 2 + 1):
        for low in itertools.product(range(f.p), repeat=k):
            if FpPoly(f.p, low + (1,)).divides(f):
                return False
    return True


small_primes = st.sampled_from([3, 5, 7, 11])
coeff_lists = st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=9)


def test_modulus_validation():
    with pytest.raises(ValueError):
        code_modulus(3, 0, 2)
    with pytest.raises(ValueError):
        code_modulus(3, 0, 9)
    with pytest.raises(ValueError):
        code_modulus(0, 0, 7)
    with pytest.raises(ValueError):
        code_modulus(3, 2, 7)
    assert is_odd_prime(999983)
    with pytest.raises(ValueError):
        is_odd_prime(10**6 + 3)


def test_modulus_examples():
    assert code_modulus(3, 0, 7).coeffs == (6, 0, 0, 1)
    assert code_modulus(8, 1, 5).coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert code_modulus(8, 0, 5).coeffs == (4, 0, 0, 0, 0, 0, 0, 0, 1)
    assert code_modulus(1, 0, 5).coeffs == (4, 1)


def test_divmod_examples():
    q, r = divmod(code_modulus(3, 0, 7), FpPoly(7, (5, 1)))
    assert q.coeffs == (4, 2, 1)
    assert r.is_zero
    g = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
    q, r = divmod(code_modulus(8, 0, 5), g)
    assert r.is_zero
    assert q * g == code_modulus(8, 0, 5)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(poly_one(7), FpPoly(7, ()))


@settings(max_examples=200)
@given(small_primes, coeff_lists, coeff_lists)
def test_divmod_reconstruction(p, ca, cb):
    a, b = FpPoly(p, tuple(ca)), FpPoly(p, tuple(cb))
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=150)
@given(small_primes, coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(p, ca, cb, cc):
    a, b, c = (FpPoly(p, tuple(x)) for x in (ca, cb, cc))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == FpPoly(p, ())


def test_normalization():
    assert FpPoly(7, (8, 14, 0, 0)).coeffs == (1,)
    assert FpPoly(5, (-1,)).coeffs == (4,)
    assert FpPoly(3, (0, 0)).is_zero


@pytest.mark.parametrize(
    "coeffs", [(5.9, 1), ("5", 1), (5, 1.0)], ids=["float", "string", "whole-float"]
)
def test_coefficients_must_be_integers(coeffs):
    # A float or a string was truncated by int(): x + 5.9 read as x + 5.
    with pytest.raises(ValueError, match="coefficients must be integers"):
        FpPoly(7, coeffs)


def test_numpy_integer_coefficients_are_accepted():
    np = pytest.importorskip("numpy")
    assert FpPoly(7, (np.int64(12), np.int32(1))) == FpPoly(7, (5, 1))


def test_factor_linear_roots_oracle():
    # Over Z_7 the cube roots of unity are 1, 2, 4, so x^3 - 1 splits into
    # x+6, x+5, x+3.  Derive the roots independently by evaluation.
    mod = code_modulus(3, 0, 7)
    roots = [x for x in range(7) if sum(a * x**k for k, a in enumerate(mod.coeffs)) % 7 == 0]
    assert roots == [1, 2, 4]
    factors = factor_code_modulus(3, 0, 7)
    assert [(f.coeffs, m) for f, m in factors] == [
        ((3, 1), 1),
        ((5, 1), 1),
        ((6, 1), 1),
    ]


def test_factor_trivial_length():
    factors = factor_code_modulus(1, 0, 5)
    assert [(f.coeffs, m) for f, m in factors] == [((4, 1), 1)]


def test_factor_p_power_multiplicity():
    # x^6 - 1 over Z_3 is ((x-1)(x+1))^3.
    factors = factor_code_modulus(6, 0, 3)
    assert [(f.coeffs, m) for f, m in factors] == [((1, 1), 3), ((2, 1), 3)]


def test_factor_sweep_reconstructs_and_is_irreducible():
    for n, eps, p in SWEEP:
        factors = factor_code_modulus(n, eps, p)
        prod = poly_one(p)
        for f, m in factors:
            assert f.leading == 1
            assert brute_irreducible(f)
            for _ in range(m):
                prod = prod * f
        assert prod == code_modulus(n, eps, p)
        polys = [f for f, _ in factors]
        assert len(set(polys)) == len(polys)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factors_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(3, 17):
        for eps in (0, 1):
            _, factors = sympy.Poly(x**n - (-1) ** eps, x, modulus=p).factor_list()
            want = sorted(
                (tuple(int(c) % p for c in reversed(f.all_coeffs())), m)
                for f, m in factors
            )
            got = sorted((f.coeffs, m) for f, m in factor_code_modulus(n, eps, p))
            assert got == want, (p, n, eps)


def test_divisor_lattice_length3():
    divs = modulus_divisors(3, 0, 7)
    assert [d.coeffs for d in divs] == [
        (1,),
        (3, 1),
        (5, 1),
        (6, 1),
        (1, 1, 1),
        (2, 4, 1),
        (4, 2, 1),
    ]


def test_divisor_lattice_sweep():
    for n, eps, p in SWEEP:
        divs = modulus_divisors(n, eps, p)
        mod = code_modulus(n, eps, p)
        count = 1
        for _, m in factor_code_modulus(n, eps, p):
            count *= m + 1
        assert len(divs) == count - 1
        assert poly_one(p) in divs
        assert mod not in divs
        for d in divs:
            assert d.leading == 1
            assert d.divides(mod)
            assert d.coeff(0) != 0
        assert list(divs) == sorted(divs, key=lambda f: (f.degree, f.coeffs))


def test_support_gcd_examples():
    assert support_gcd(FpPoly(5, (3, 0, 4, 0, 2, 0, 1))) == 2
    assert support_gcd(FpPoly(7, (1, 1, 1))) == 1
    assert support_gcd(FpPoly(3, (1, 0, 0, 0, 1))) == 4
    assert support_gcd(poly_one(7), constant_default=3) == 3
    with pytest.raises(ValueError):
        support_gcd(poly_one(7))
    with pytest.raises(ValueError):
        support_gcd(FpPoly(7, ()), constant_default=3)


def test_compress_examples():
    g = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
    assert compress(g, 2).coeffs == (3, 4, 2, 1)
    assert compress(FpPoly(3, (1, 0, 0, 0, 1)), 4).coeffs == (1, 1)
    assert compress(FpPoly(3, (1, 0, 0, 0, 1)), 2).coeffs == (1, 0, 1)
    with pytest.raises(ValueError):
        compress(FpPoly(7, (1, 1, 1)), 2)


@settings(max_examples=150)
@given(small_primes, coeff_lists, st.integers(min_value=1, max_value=4))
def test_expand_compress_roundtrip(p, cc, d):
    c = FpPoly(p, tuple(cc))
    if c.is_zero:
        return
    f = c.expand(d)
    assert compress(f, d) == c
    if not c.is_constant:
        assert f.degree == d * c.degree


def test_support_gcd_of_expansion():
    # Expanding by d multiplies the support gcd by d.
    for p in (3, 5):
        for cc in itertools.product(range(p), repeat=4):
            c = FpPoly(p, cc)
            if c.is_constant:
                continue
            base = support_gcd(c)
            for d in (2, 3):
                assert support_gcd(c.expand(d)) == d * base


def test_cofactor_shares_support_step():
    # For every divisor pair g*h equal to the modulus: equal support steps d,
    # d divides n, and the compressed pair multiplies to the length-n/d modulus.
    for n, eps, p in SWEEP:
        mod = code_modulus(n, eps, p)
        for g in modulus_divisors(n, eps, p):
            h = mod // g
            assert (mod % g).is_zero
            d = support_gcd(g, constant_default=n)
            assert support_gcd(h, constant_default=n) == d
            assert n % d == 0
            assert compress(g, d) * compress(h, d) == code_modulus(n // d, eps, p)


def test_divisibility_of_support_steps():
    # f is a polynomial in x^k exactly when k divides the support gcd.
    for p in (3, 5):
        for cc in itertools.product(range(p), repeat=5):
            f = FpPoly(p, cc)
            if f.is_constant:
                continue
            d = support_gcd(f)
            for k in range(1, f.degree + 1):
                is_poly_in_k = all(a == 0 for i, a in enumerate(f.coeffs) if i % k)
                assert is_poly_in_k == (d % k == 0)


def test_reexpansion_step():
    # Re-expanding a step-1 polynomial by t yields support gcd exactly t and
    # compresses back to the original.
    for p in (3, 5, 7):
        for cc in itertools.product(range(p), repeat=3):
            c = FpPoly(p, (1,) + cc)
            if c.is_constant or support_gcd(c) != 1:
                continue
            for t in (1, 2, 3, 4):
                q = c.expand(t)
                assert support_gcd(q) == t
                assert compress(q, t) == c


def test_gcd_and_powmod():
    mod = code_modulus(8, 0, 5)
    g = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
    assert poly_gcd(mod, g) == g.monic()
    # x^(5^k) mod f stabilizes the Frobenius ladder used by factoring.
    assert poly_gcd(code_modulus(3, 0, 7), poly_x(7, 1) - poly_one(7)).coeffs == (6, 1)


def test_to_text_examples():
    assert FpPoly(5, (3, 0, 4, 0, 2, 0, 1)).to_text() == "3 0 4 0 2 0 1"
    assert FpPoly(7, (9, 6, 14)).to_text() == "2 6"
    assert FpPoly(7, ()).to_text() == "0"
