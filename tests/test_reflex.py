"""Tests for reflexibility classification and lattice maximality."""

import functools
import itertools

import pytest

from dccover.fpoly import (
    FpPoly,
    code_modulus,
    poly_one,
    factor_code_modulus,
)
from dccover.reflex import (
    DivisorInfo,
    core_polynomial,
    divisor_info,
    is_weakly_reflexible,
    modulus_divisors,
    reflexibility_of,
)

SWEEP = [
    (n, eps, p)
    for p in (3, 5, 7)
    for n in range(3, 9)
    for eps in (0, 1)
]


def all_polys_with_unit_ends(p, max_deg):
    """Every poly over Z_p with nonzero constant and leading coefficient."""
    for deg in range(0, max_deg + 1):
        if deg == 0:
            for c0 in range(1, p):
                yield FpPoly(p, (c0,))
            continue
        for mid in itertools.product(range(p), repeat=deg - 1):
            for c0 in range(1, p):
                for cm in range(1, p):
                    yield FpPoly(p, (c0,) + mid + (cm,))


def brute_scales(f, sign):
    """Oracle: all unit scales s with s*a_{m-i} = sign^i * a_i for all i."""
    m = f.degree
    out = []
    for s in range(1, f.p):
        if all(s * f.coeff(m - i) % f.p == sign**i * f.coeff(i) % f.p for i in range(m + 1)):
            out.append(s)
    return out


def test_classification_examples():
    r = reflexibility_of(FpPoly(5, (3, 4, 2, 1)))
    assert r is not None and r.kind == "type2" and r.scale == 3
    assert reflexibility_of(FpPoly(5, (3, 0, 4, 0, 2, 0, 1))) is None
    r = reflexibility_of(FpPoly(7, (1, 1, 1)))
    assert r is not None and r.kind == "type1" and r.scale == 1
    assert reflexibility_of(FpPoly(7, (2, 4, 1))) is None
    assert reflexibility_of(FpPoly(7, (4, 2, 1))) is None
    r = reflexibility_of(FpPoly(7, (6, 1)))
    assert r is not None and r.kind == "type1" and r.scale == 6
    assert reflexibility_of(FpPoly(7, (5, 1))) is None
    assert reflexibility_of(FpPoly(7, (3, 1))) is None
    assert reflexibility_of(FpPoly(3, (1, 1, 1, 2, 0, 1))) is None
    r = reflexibility_of(poly_one(7))
    assert r is not None and r.kind == "both" and r.scale == 1


def test_classification_validation():
    with pytest.raises(ValueError):
        reflexibility_of(FpPoly(7, ()))
    with pytest.raises(ValueError):
        reflexibility_of(FpPoly(7, (0, 1)))


def test_scale_is_forced():
    # Oracle scan over every unit: the solution set is empty or the single
    # forced value a_0/a_m.
    for p in (3, 5):
        for f in all_polys_with_unit_ends(p, 4):
            forced = f.coeff(0) * pow(f.leading, p - 2, p) % p
            for sign in (1, -1):
                sols = brute_scales(f, sign)
                assert sols in ([], [forced])
            r = reflexibility_of(f)
            if r is not None:
                assert r.scale == forced
                assert r.type1 == (brute_scales(f, 1) == [forced])
                assert r.type2 == (brute_scales(f, -1) == [forced])


def test_both_types_means_even_support():
    # Both types hold together exactly when the polynomial is reflexible and
    # every odd-index coefficient vanishes.
    for p in (3, 5):
        for f in all_polys_with_unit_ends(p, 4):
            r = reflexibility_of(f)
            even_support = all(a == 0 for i, a in enumerate(f.coeffs) if i % 2)
            both = r is not None and r.type1 and r.type2
            assert both == (r is not None and even_support)


def test_expansion_preserves_or_collapses_type():
    # Odd expansion steps preserve the reflexibility kind exactly; even steps
    # yield a reflexible (then automatically both-type) polynomial exactly
    # when the core is type-1.
    for p in (3, 5):
        for core in all_polys_with_unit_ends(p, 3):
            rc = reflexibility_of(core)
            for d in (1, 2, 3, 4):
                rf = reflexibility_of(core.expand(d))
                if d % 2:
                    if rc is None:
                        assert rf is None
                    else:
                        assert rf is not None
                        assert (rf.type1, rf.type2) == (rc.type1, rc.type2)
                        assert rf.scale == rc.scale
                elif rc is not None and rc.type1:
                    assert rf is not None and rf.type1 and rf.type2
                else:
                    assert rf is None


def test_core_polynomial_and_weak_reflexibility():
    g = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
    d, core = core_polynomial(g, 8)
    assert d == 2 and core.coeffs == (3, 4, 2, 1)
    assert is_weakly_reflexible(g, 8)
    assert not is_weakly_reflexible(FpPoly(3, (1, 1, 1, 2, 0, 1)), 8)
    # The constant divisor compresses by the full length and is reflexible.
    d, core = core_polynomial(poly_one(7), 3)
    assert d == 3 and core == poly_one(7)
    assert is_weakly_reflexible(poly_one(7), 3)


def test_reflexible_implies_weakly_reflexible():
    for n, eps, p in SWEEP:
        for g in modulus_divisors(n, eps, p):
            if g.is_constant:
                continue
            if reflexibility_of(g) is not None:
                assert is_weakly_reflexible(g, n)


def test_maximal_divisor_examples():
    assert divisor_info(FpPoly(7, (1, 1, 1)), 3, 0).maximal_divisor
    assert not divisor_info(FpPoly(7, (6, 1)), 3, 0).maximal_divisor
    assert not divisor_info(poly_one(7), 3, 0).maximal_divisor
    with pytest.raises(ValueError):
        divisor_info(code_modulus(3, 0, 7), 3, 0)
    with pytest.raises(ValueError):
        divisor_info(FpPoly(7, (1, 1)), 3, 0)


def test_maximal_divisor_against_cofactor_oracle():
    # Maximality is equivalent to the cofactor being irreducible counted with
    # multiplicity: exactly one factor slot left unfilled.
    for n, eps, p in SWEEP[:18]:
        factors = factor_code_modulus(n, eps, p)
        for g in modulus_divisors(n, eps, p):
            slack = 0
            for f, m in factors:
                e, rest = 0, g
                while f.divides(rest):
                    rest = rest // f
                    e += 1
                slack += m - e
            assert divisor_info(g, n, eps).maximal_divisor == (slack == 1)


def test_maximal_weakly_reflexible_examples():
    assert divisor_info(FpPoly(7, (1, 1, 1)), 3, 0).maximal_weakly_reflexible
    assert divisor_info(FpPoly(7, (6, 1)), 3, 0).maximal_weakly_reflexible
    assert not divisor_info(poly_one(7), 3, 0).maximal_weakly_reflexible
    # x + 5 is not weakly reflexible, so it is not maximal among those that are.
    assert not divisor_info(FpPoly(7, (5, 1)), 3, 0).maximal_weakly_reflexible


@functools.lru_cache(maxsize=None)
def exponent_vector(q, n, eps):
    """How often each factor of factor_code_modulus divides q, counted by
    division, apart from how the lattice builds its divisors."""
    exps = []
    for f, _ in factor_code_modulus(n, eps, q.p):
        e = 0
        while f.divides(q):
            q = q // f
            e += 1
        exps.append(e)
    return tuple(exps)


def divisors_above_by_scan(g, n, eps):
    """Reference: the proper divisors strictly above g, found by comparing
    g's exponent vector with every divisor's, O(D^2) over a lattice of D."""
    low = exponent_vector(g, n, eps)
    return [
        q
        for q in modulus_divisors(n, eps, g.p)
        if (exps := exponent_vector(q, n, eps)) != low
        and all(a >= b for a, b in zip(exps, low))
    ]


def check_against_scan(g, n, eps):
    """Check g's maximal flags against the scan; return the one minimal_cover reads."""
    above = divisors_above_by_scan(g, n, eps)
    info = divisor_info(g, n, eps)
    assert info.maximal_divisor == (not above)
    wr_above = any(is_weakly_reflexible(q, n) for q in above)
    assert info.maximal_weakly_reflexible == (
        is_weakly_reflexible(g, n) and not wr_above
    )
    return info.maximal_weakly_reflexible if info.weakly_reflexible else info.maximal_divisor


def test_maximality_matches_a_scan_of_exponent_vectors():
    # Every divisor of the sweep, and every core at length n / step that
    # minimal_cover reads; a core is weakly reflexible exactly when g is.
    cores = 0
    for n, eps, p in SWEEP:
        for g in modulus_divisors(n, eps, p):
            minimal = check_against_scan(g, n, eps)
            info = divisor_info(g, n, eps)
            if info.step > 1:
                minimal = check_against_scan(info.core, n // info.step, eps)
                cores += 1
            assert info.minimal_cover == minimal
    assert cores > 0


def test_non_divisor_raises_before_non_weakly_reflexible():
    # Over Z_7, x + 2 does not divide x^3 - 1 and x + 3 does not divide
    # x^3 + 1.  Neither is weakly reflexible, and the lookup refuses both as
    # non-divisors.
    for coeffs, eps in (((2, 1), 0), ((3, 1), 1)):
        g = FpPoly(7, coeffs)
        assert not is_weakly_reflexible(g, 3)
        assert g not in modulus_divisors(3, eps, 7)
        with pytest.raises(ValueError, match="not a monic proper divisor"):
            divisor_info(g, 3, eps)
    with pytest.raises(ValueError, match="not a monic proper divisor"):
        divisor_info(code_modulus(3, 0, 7), 3, 0)


def test_divisor_info_table_length3():
    expected = {
        (1, 1, 1): (1, 1, True, True, True),
        (2, 4, 1): (1, 1, False, False, True),
        (4, 2, 1): (1, 1, False, False, True),
        (5, 1): (1, 2, False, False, False),
        (3, 1): (1, 2, False, False, False),
        (6, 1): (1, 2, True, True, False),
        (1,): (3, 3, True, False, False),
    }
    for coeffs, (step, fiber, wr, mwr, maxdiv) in expected.items():
        info = divisor_info(FpPoly(7, coeffs), 3, 0)
        assert info.step == step
        assert info.fiber_dim == fiber
        assert info.weakly_reflexible == wr
        assert info.maximal_weakly_reflexible == mwr
        assert info.maximal_divisor == maxdiv


def test_divisor_info_worked_examples():
    info = divisor_info(FpPoly(5, (3, 0, 4, 0, 2, 0, 1)), 8, 0)
    assert info.step == 2
    assert info.fiber_dim == 2
    assert info.core.coeffs == (3, 4, 2, 1)
    assert info.core_refl is not None
    assert info.core_refl.kind == "type2" and info.core_refl.scale == 3
    assert info.weakly_reflexible
    assert info.maximal_divisor and info.maximal_weakly_reflexible

    info = divisor_info(FpPoly(3, (1, 1, 1, 2, 0, 1)), 8, 0)
    assert info.step == 1
    assert info.fiber_dim == 3
    assert not info.weakly_reflexible
    assert info.core_refl is None


def test_divisor_info_returns_the_lattice_record():
    # One record per divisor: a second lookup builds nothing new.
    info = divisor_info(FpPoly(7, (1, 1, 1)), 3, 0)
    assert divisor_info(FpPoly(7, (1, 1, 1)), 3, 0) is info
    assert info.cofactor == FpPoly(7, (6, 1))
    assert divisor_info(poly_one(7), 3, 0).cofactor == code_modulus(3, 0, 7)


def test_divisor_info_sweep_invariants():
    for n, eps, p in SWEEP:
        for g in modulus_divisors(n, eps, p):
            info = divisor_info(g, n, eps)
            assert isinstance(info, DivisorInfo)
            assert n % info.step == 0
            assert info.fiber_dim % info.step == 0
            assert info.core.expand(info.step) == g or g.is_constant
            assert info.weakly_reflexible == (info.core_refl is not None)
            if info.maximal_weakly_reflexible:
                assert info.weakly_reflexible
