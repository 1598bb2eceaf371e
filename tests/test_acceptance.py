"""End-to-end acceptance checks, one test per criterion, each with a time budget.

Every test recomputes its expected values through the permutation engine,
or networkx for isomorphism, rather than trusting the polynomial
classification, prints a single summary line, and fails on any disagreement
or on a blown budget.
"""

import random
import time

import numpy as np

from dccover.census import census_rows
from dccover.cover import build_cover, extremal_cover, lift_by_propagation, lifted_generators
from dccover.dcycle import DCAut
from dccover.fpoly import (
    FpPoly,
    code_modulus,
    compress,
    poly_one,
    support_gcd,
)
from dccover.lift import lifting_report, lifts_by_invariance
from dccover.permgrp import (
    PermGroup,
    as_perm,
    automorphism_group,
    orbit_labels,
    perm_inverse,
    transitivity_profile,
)
from dccover.reflex import divisor_info, modulus_divisors, reflexibility_of

from test_lift import lifting_swaps

BUDGETS = {1: 30.0, 2: 60.0, 3: 60.0, 4: 600.0, 5: 60.0, 6: 60.0, 7: 60.0}

SWEEP_PRIMES = (3, 5, 7)
SWEEP_LENGTHS = range(3, 9)
ORDER_CAP = 2500

# The seven divisors of x^3 - 1 over Z_7 in the order of the reference
# catalogue: quadratics first, then the linear divisors, then the constant.
TABLE_ORDER = [(1, 1, 1), (2, 4, 1), (4, 2, 1), (5, 1), (3, 1), (6, 1), (1,)]

SEXTIC5 = FpPoly(5, (3, 0, 4, 0, 2, 0, 1))
QUINTIC3 = FpPoly(3, (1, 1, 1, 2, 0, 1))


def _sweep():
    for p in SWEEP_PRIMES:
        for n in SWEEP_LENGTHS:
            for eps in (0, 1):
                for g in modulus_divisors(n, eps, p):
                    yield p, n, eps, g


def _finish(num: int, label: str, t0: float) -> None:
    elapsed = time.monotonic() - t0
    budget = BUDGETS[num]
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s, budget {budget:.0f}s")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget:.0f}s"


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    rows = census_rows([7], [3], (0,), verify="orbits", max_order=2500)
    assert len(rows) == 7
    by_g = {r.g: r for r in rows}
    table = [by_g[g] for g in TABLE_ORDER]
    assert [r.weakly_reflexible for r in table] == [
        True, False, False, False, False, True, True,
    ]
    assert [r.maximal_weakly_reflexible for r in table] == [
        True, False, False, False, False, True, False,
    ]
    assert [r.order for r in table] == [21, 21, 21, 147, 147, 147, 1029]
    assert [r.symmetry for r in table] == ["AT", "HT", "HT", "HT", "HT", "AT", "AT"]
    assert [r.verified_order for r in table[:6]] == [84, 42, 42, 294, 294, 588]
    assert all(r.arc_orbits == (1 if r.symmetry == "AT" else 2) for r in table)
    assert all(r.mismatch is None and r.skipped is None for r in rows)
    assert table[6].verified_order == table[6].lifted_order == 16464
    # The catalogue lists 8232 for the constant divisor; the full automorphism
    # group has the lifted order, so that entry is off by a factor of 2.
    cover = build_cover(FpPoly(7, (1,)), 3, 0)
    assert automorphism_group(cover, limit=1029).order() == 16464
    _finish(1, "cubic census table", t0)


def test_criterion_2_full_automorphism_orders():
    t0 = time.monotonic()
    got = [
        automorphism_group(build_cover(FpPoly(7, coeffs), 3, 0), limit=64).order()
        for coeffs in [(1, 1, 1), (2, 4, 1), (4, 2, 1)]
    ]
    assert got == [84, 336, 336]
    _finish(2, "oracle cross-check on the 21-vertex covers", t0)


def test_criterion_3_worked_examples():
    t0 = time.monotonic()
    info = divisor_info(SEXTIC5, 8, 0)
    assert info.step == 2
    assert info.core == FpPoly(5, (3, 4, 2, 1))
    assert info.core_refl is not None
    assert info.core_refl.kind == "type2" and info.core_refl.scale == 3
    cover = build_cover(SEXTIC5, 8, 0)
    assert cover.order == 200
    rep = lifting_report(info)
    prof = transitivity_profile(PermGroup(lifted_generators(rep, cover)), cover)
    assert prof["arc_transitive"]

    info = divisor_info(QUINTIC3, 8, 0)
    assert not info.weakly_reflexible
    cover = build_cover(QUINTIC3, 8, 0)
    assert cover.order == 216
    rep = lifting_report(info)
    prof = transitivity_profile(PermGroup(lifted_generators(rep, cover)), cover)
    assert prof["vertex_transitive"] and prof["edge_transitive"]
    assert not prof["arc_transitive"] and prof["arc_orbits"] == 2
    _finish(3, "worked sextic and quintic examples", t0)


def test_criterion_4_criterion_equivalence_sweep():
    t0 = time.monotonic()
    mismatches = []
    cases = verified = 0
    for p, n, eps, g in _sweep():
        cases += 1
        tag = f"p={p} n={n} eps={eps} g={g.to_text()!r}"
        info = divisor_info(g, n, eps)
        rep = lifting_report(info)
        if len(lifting_swaps(g, n, eps)) != info.step:
            mismatches.append(f"{tag}: swap kernel dimension differs from the step")
        if n * p**info.fiber_dim > ORDER_CAP:
            continue
        cover = build_cover(g, n, eps)
        group = PermGroup(lifted_generators(rep, cover))
        if group.order() != rep.lifted_order:
            mismatches.append(
                f"{tag}: lifted order {group.order()} != {rep.lifted_order}"
            )
        prof = transitivity_profile(group, cover)
        want = 1 if info.weakly_reflexible else 2
        if prof["arc_orbits"] != want:
            mismatches.append(f"{tag}: arc orbits {prof['arc_orbits']} != {want}")
        rng = random.Random(f"accept4:{p}:{n}:{eps}:{g.coeffs}")
        sample_lift = sample_fail = None
        for _ in range(20):
            aut = DCAut(n, rng.randrange(1 << n), rng.randrange(2), rng.randrange(n))
            predicted = lifts_by_invariance(aut, g, n, eps)
            lifted = lift_by_propagation(aut, cover)
            if isinstance(lifted, np.ndarray) != predicted:
                mismatches.append(
                    f"{tag}: {aut} invariance says {predicted}, propagation disagrees"
                )
            if predicted and sample_lift is None:
                sample_lift = (aut, lifted)
            if not predicted and sample_fail is None:
                sample_fail = aut
        if sample_lift is None:
            rot = rep.generators[info.step]  # the twisted rotation always lifts
            sample_lift = (rot, lift_by_propagation(rot, cover))
        deck = PermGroup(cover.translations())
        aut, first = sample_lift
        for v in (1, cover.fiber_size - 1):
            base = aut.vertex_image(0) * cover.fiber_size + v
            other = lift_by_propagation(aut, cover, base)
            if not isinstance(other, np.ndarray):
                mismatches.append(f"{tag}: {aut} lifts from one basepoint only")
                continue
            shift = as_perm(other)[perm_inverse(as_perm(first))]
            if not deck.contains(shift):
                mismatches.append(
                    f"{tag}: two lifts of {aut} do not differ by a translation"
                )
        if sample_fail is not None:
            for v in (1, cover.fiber_size - 1):
                base = sample_fail.vertex_image(0) * cover.fiber_size + v
                if isinstance(lift_by_propagation(sample_fail, cover, base), np.ndarray):
                    mismatches.append(
                        f"{tag}: {sample_fail} fails from some basepoints only"
                    )
        verified += 1
    assert cases == 376
    assert verified >= 200
    assert not mismatches, "\n".join(mismatches[:20])
    _finish(4, f"criterion equivalence, {cases} divisors, {verified} covers", t0)


def test_criterion_5_polynomial_law_suite():
    t0 = time.monotonic()
    checked = 0
    for p, n, eps, g in _sweep():
        support = [i for i, c in enumerate(g.coeffs) if c]
        refl = reflexibility_of(g)
        both = refl is not None and refl.type1 and refl.type2
        even = all(i % 2 == 0 for i in support)
        # Even support makes the two type conditions coincide; both types
        # together force even support.
        if even:
            assert refl is None or both, (p, n, eps, g.to_text())
        assert not both or even, (p, n, eps, g.to_text())
        if g == poly_one(p):
            continue
        checked += 1
        d = support_gcd(g)
        for k in range(1, n + 1):
            assert all(i % k == 0 for i in support) == (d % k == 0)
        h = code_modulus(n, eps, p) // g
        assert not h.is_constant
        assert support_gcd(h) == d
        core = compress(g, d)
        assert core * compress(h, d) == code_modulus(n // d, eps, p)
        for k in range(1, d + 1):
            if d % k:
                continue
            q = core.expand(d // k)
            assert support_gcd(q, constant_default=1) == d // k
            assert compress(q, d // k) == core
        core_refl = reflexibility_of(core)
        reflexible = core_refl is not None and not (
            d % 2 == 0 and core_refl.kind == "type2"
        )
        assert (refl is not None) == reflexible, (p, n, eps, g.to_text())
        if refl is not None and d % 2:
            assert refl.kind == core_refl.kind
    assert checked > 300
    _finish(5, f"polynomial laws on {checked} nonconstant divisors", t0)


def test_criterion_6_isomorphism_sanity():
    # Isomorphism is decided by networkx's VF2++, not by the search that
    # the other criteria check.
    import networkx as nx

    t0 = time.monotonic()
    cov5, cov3, cov6 = (
        nx.Graph(build_cover(FpPoly(7, (a, 1)), 3, 0).edges()) for a in (5, 3, 6)
    )
    assert nx.vf2pp_is_isomorphic(cov5, cov3)
    # Their Aut orders are 294 and 588.
    assert not nx.vf2pp_is_isomorphic(cov5, cov6)
    for n, p in [(3, 3), (3, 5), (5, 3)]:
        cover = nx.Graph(build_cover(FpPoly(p, (1,) * n), n, 0).edges())
        tensor = nx.Graph(
            (v * n + j, ((v + dv) % p) * n + (j + dj) % n)
            for v in range(p)
            for j in range(n)
            for dv in (1, -1)
            for dj in (1, -1)
        )
        assert nx.vf2pp_is_isomorphic(cover, tensor), (n, p)
    _finish(6, "isomorphism sanity and tensor identities", t0)


def test_criterion_7_block_families_and_invariants():
    t0 = time.monotonic()
    for kind, points in [
        ("pm1", [(5, 2, 3), (3, 3, 2), (7, 1, 5)]),
        ("pmtheta", [(5, 2, 2), (5, 1, 4), (13, 3, 2)]),
    ]:
        for p, r, blocks in points:
            family = extremal_cover(kind, p, r, blocks)
            # Block k of the voltage matrix is +-s_k times the identity.
            theta = min((x for x in range(2, p) if (x * x + 1) % p == 0), default=None)
            rows, eye = np.array(family.columns()).T, np.eye(r, dtype=np.int64)
            for k in range(blocks):
                block = rows[:, k * r : k * r + r]
                scale = theta if kind == "pmtheta" and k % 2 == 0 else 1
                assert any(
                    np.array_equal(block, sign * scale * eye % p) for sign in (1, -1)
                ), (kind, p, r, blocks, k)
            # The predicted group, certified on the base darts.
            rep = lifting_report(divisor_info(family.g, family.n, family.eps))
            gens = lifted_generators(rep, family)
            on_darts, base = family.base_action(gens)
            order = PermGroup(on_darts, 4 * family.n).order() * family.fiber_size
            assert order == rep.lifted_order, (kind, p, r, blocks)
            arc_orbits = transitivity_profile(on_darts, base)["arc_orbits"]
            assert arc_orbits == (1 if rep.arc_transitive else 2), (kind, p, r, blocks)
    built = 0
    for p, n, eps, g in _sweep():
        if n * p ** (n - max(g.degree, 0)) > ORDER_CAP:
            continue
        cover = build_cover(g, n, eps)
        adj = cover.dart_ends.tolist()
        assert all(len(nbrs) == 4 and len(set(nbrs)) == 4 for nbrs in adj)
        assert not orbit_labels(cover.dart_ends).any()
        built += 1
    assert built >= 200
    _finish(7, f"block families certified, invariants on {built} covers", t0)
