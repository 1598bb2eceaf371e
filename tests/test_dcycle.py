"""Tests for doubled-cycle automorphisms, their algebra and homology action."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dccover.dcycle import (
    DCAut,
    in_span,
    mask_bits,
    mask_reverse,
    mask_shift,
    span_basis,
    subgroup_from_case,
)
from dccover.permgrp import PermGroup, as_perm, orbit_labels, perm_inverse


def aut_strategy(n_min=3, n_max=7):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.builds(
            DCAut,
            st.just(n),
            st.integers(0, (1 << n) - 1),
            st.integers(0, 1),
            st.integers(-n, 2 * n),
        )
    )


def paired_auts(n_min=3, n_max=7):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.tuples(
            st.builds(
                DCAut,
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.integers(0, 1),
                st.integers(0, n - 1),
            ),
            st.builds(
                DCAut,
                st.just(n),
                st.integers(0, (1 << n) - 1),
                st.integers(0, 1),
                st.integers(0, n - 1),
            ),
        )
    )


def vertex_perm(g):
    return [g.vertex_image(v) for v in range(g.n)]


def inverse(g):
    """g^(m-1), where g^m is the identity."""
    power = DCAut(g.n)
    while power * g != DCAut(g.n):
        power = power * g
    return power


# -- masks ---------------------------------------------------------------------


def test_mask_helpers():
    assert mask_shift(0b001, 5, 2) == 0b00100
    assert mask_shift(0b10000, 5, 1) == 0b00001
    assert mask_reverse(0b00110, 5) == 0b11000
    assert mask_bits(0b10101) == [0, 2, 4]


def test_span_membership():
    basis = span_basis([0b110, 0b011])
    assert in_span(basis, 0b101)
    assert not in_span(basis, 0b001)
    assert in_span(basis, 0)
    assert span_basis([0, 0]) == []


# -- single-factor actions -----------------------------------------------------


def test_rotation_acts_on_darts_and_vertices():
    rho = DCAut.rotation(3)
    assert vertex_perm(rho) == [1, 2, 0]
    # Every dart 4v+t moves to the dart of the same track at v + 1.
    assert rho.arc_perm() == [4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3]


def test_reflection_acts_on_darts_and_vertices():
    sig = DCAut.reflection(3)
    assert vertex_perm(sig) == [1, 0, 2]
    # sigma sends a_1 (track 0 at vertex 1) to the inverse of a_{-1}
    # (track 2 at vertex 0), and b_0 to its own inverse (track 3 at vertex 1).
    assert sig.dart_image(4 * 1 + 0) == 4 * 0 + 2
    assert sig.dart_image(4 * 0 + 1) == 4 * 1 + 3


def test_swap_exchanges_parallel_arcs():
    tau = DCAut.edge_swap(4, 2)
    assert vertex_perm(tau) == [0, 1, 2, 3]
    # a_2 and b_2 leave vertex 2, their inverses leave vertex 3.
    assert tau.dart_image(4 * 2 + 0) == 4 * 2 + 1
    assert tau.dart_image(4 * 3 + 2) == 4 * 3 + 3
    assert tau.dart_image(4 * 1 + 0) == 4 * 1 + 0
    assert tau.dart_image(4 * 2 + 2) == 4 * 2 + 2


def test_periodic_swap():
    assert DCAut.periodic_swap(6, 1, 2).swaps == 0b101010
    assert DCAut.periodic_swap(6, 0, 6).swaps == 0b000001
    with pytest.raises(ValueError):
        DCAut.periodic_swap(6, 0, 4)


@given(aut_strategy())
def test_dart_action_preserves_structure(g):
    n = g.n
    assert sorted(g.arc_perm()) == list(range(4 * n))
    for v in range(n):
        for t in range(4):
            start, t2 = divmod(g.dart_image(4 * v + t), 4)
            # The image leaves the image of the start vertex ...
            assert start == g.vertex_image(v)
            # ... and the image of the inverse dart is the inverse image.
            end = (v + 1) % n if t < 2 else (v - 1) % n
            assert g.dart_image(4 * end + (t ^ 2)) == 4 * g.vertex_image(end) + (t2 ^ 2)


# -- normal-form algebra ---------------------------------------------------


@settings(max_examples=150)
@given(paired_auts())
def test_product_matches_composed_arc_action(pair):
    g, h = pair
    composed = as_perm(h.arc_perm())[as_perm(g.arc_perm())]
    assert list(composed) == (g * h).arc_perm()


@given(aut_strategy())
def test_inverse_cancels(g):
    assert g * inverse(g) == DCAut(g.n)
    assert inverse(g) * g == DCAut(g.n)


def test_swap_conjugation_by_rotation():
    # tau_j equals tau_0 conjugated by the j-step rotation.
    for n in (3, 5, 6):
        for j in range(n):
            lhs = DCAut.rotation(n, -j) * DCAut.edge_swap(n, 0) * DCAut.rotation(n, j)
            assert lhs == DCAut.edge_swap(n, j)


def test_twisted_reflection_squares_into_swap_group():
    for n in (4, 5, 6):
        for eps in (0, 1):
            for j_mask in (0b1, 0b110 % (1 << n), 0b1011 % (1 << n)):
                w = DCAut.reflection(n)
                if eps:
                    w = w * DCAut.edge_swap(n, 0)
                w = w * DCAut(n, swaps=j_mask)
                square = w * w
                expected = j_mask ^ mask_reverse(j_mask, n)
                assert square == DCAut(n, swaps=expected)


def test_twisted_rotation_power_is_full_swap():
    for n in (3, 4, 5, 6):
        step = DCAut.rotation(n) * DCAut.edge_swap(n, 0)
        acc = DCAut(n)
        for _ in range(n):
            acc = acc * step
        assert acc == DCAut.full_swap(n)


def test_full_group_order_on_darts():
    for n in (3, 4, 5, 6):
        gens = [
            DCAut.rotation(n).arc_perm(),
            DCAut.reflection(n).arc_perm(),
            DCAut.edge_swap(n, 0).arc_perm(),
        ]
        assert PermGroup(gens).order() == 2 * n * (1 << n)


def test_every_even_swap_splits_along_rotation():
    # tau_C = tau_X tau_{X+1} tau_0^eps with eps the parity of C.
    for n in (3, 4, 5):
        for c_mask in range(1 << n):
            eps = bin(c_mask).count("1") & 1
            found = any(
                x ^ mask_shift(x, n, 1) ^ (eps and 1) == c_mask
                for x in range(1 << n)
            )
            assert found, (n, c_mask)


def test_to_text_examples():
    assert DCAut(6, swaps=0b100101, reflect=1, shift=4).to_text() == "t[0,2,5]*s*r4"
    assert DCAut(6, swaps=0b101, reflect=1, shift=2).to_text() == "t[0,2]*s*r2"
    assert DCAut(5).to_text() == "1"
    assert DCAut.rotation(4).to_text() == "r"
    assert str(DCAut.reflection(4)) == "s"


# -- homology action -------------------------------------------------------


def homology_matrix(aut, p):
    """Matrix of the automorphism on first homology mod p, rows are images.

    Row i carries the single signed entry of DCAut.homology_action.
    """
    perm, sign = aut.homology_action()
    mat = np.zeros((aut.n + 1, aut.n + 1), dtype=np.int64)
    mat[np.arange(aut.n + 1), perm] = np.array(sign) % p
    return mat


def test_displayed_generator_matrices():
    p, n = 5, 4
    rot_eps1 = DCAut.rotation(n) * DCAut.edge_swap(n, 0)
    assert np.array_equal(
        homology_matrix(rot_eps1, p),
        np.array(
            [
                [0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [4, 0, 0, 0, 0],
                [0, 0, 0, 0, 1],
            ]
        ),
    )
    assert np.array_equal(
        homology_matrix(DCAut.reflection(n), p),
        np.array(
            [
                [4, 0, 0, 0, 0],
                [0, 0, 0, 4, 0],
                [0, 0, 4, 0, 0],
                [0, 4, 0, 0, 0],
                [0, 0, 0, 0, 4],
            ]
        ),
    )
    assert np.array_equal(
        homology_matrix(DCAut.reflection(n) * DCAut.full_swap(n), p),
        np.array(
            [
                [1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0],
                [0, 1, 0, 0, 0],
                [0, 0, 0, 0, 4],
            ]
        ),
    )
    assert np.array_equal(
        homology_matrix(DCAut.edge_swaps(n, [0, 2]), p),
        np.diag([4, 1, 4, 1, 1]),
    )


def test_generator_matrix_transposes():
    p, n = 7, 5
    for eps in (0, 1):
        rot = DCAut.rotation(n)
        if eps:
            rot = rot * DCAut.edge_swap(n, 0)
        r = homology_matrix(rot, p)
        r_inv = homology_matrix(inverse(rot), p)
        assert np.array_equal(r.T % p, r_inv)
    s = homology_matrix(DCAut.reflection(n), p)
    assert np.array_equal(s.T % p, s)
    z = homology_matrix(DCAut.reflection(n) * DCAut.full_swap(n), p)
    assert np.array_equal(z.T % p, z)
    t = homology_matrix(DCAut.edge_swaps(n, [1, 3]), p)
    assert np.array_equal(t.T % p, t)


@settings(max_examples=80)
@given(paired_auts(), st.sampled_from([3, 5, 7]))
def test_homology_is_a_homomorphism(pair, p):
    g, h = pair
    lhs = homology_matrix(g * h, p)
    rhs = (homology_matrix(g, p) @ homology_matrix(h, p)) % p
    assert np.array_equal(lhs, rhs)


@given(aut_strategy(), st.sampled_from([3, 5, 7]))
def test_homology_matrix_is_invertible(g, p):
    m = homology_matrix(g, p)
    m_inv = homology_matrix(inverse(g), p)
    assert np.array_equal((m @ m_inv) % p, np.eye(g.n + 1, dtype=np.int64))


# -- transitive subgroup shapes ---------------------------------------------


def test_case_i_is_dihedral_on_arcs():
    for n in (3, 4, 5):
        gens = [g.arc_perm() for g in subgroup_from_case(n, "i")]
        assert PermGroup(gens).order() == 2 * n


def test_case_ii_and_iii_orders():
    full3 = 0b111
    gens = subgroup_from_case(3, "ii", [full3], eps=0)
    assert PermGroup([g.arc_perm() for g in gens]).order() == 6
    gens = subgroup_from_case(3, "iii", [full3], eps=0, j_mask=full3)
    assert PermGroup([g.arc_perm() for g in gens]).order() == 12
    # The all-swaps subgroup with the plain rotation and reflection.
    all_singletons = [1 << i for i in range(4)]
    gens = subgroup_from_case(4, "iii", all_singletons, eps=0, j_mask=0)
    assert PermGroup([g.arc_perm() for g in gens]).order() == 2 * 4 * (1 << 4)


def test_subgroup_side_conditions_are_enforced():
    # Each refusal is told apart by its message, so a case cannot pass on an
    # earlier check than the one it names.
    shifts = [mask_shift(0b0001011, 7, k) for k in range(7)]
    cases = [
        (lambda: subgroup_from_case(3, "ii", [], eps=0), "must be nontrivial"),
        (lambda: subgroup_from_case(3, "ii", [0b001], eps=0), "not rotation-invariant"),
        (lambda: subgroup_from_case(3, "ii", [0b011, 0b110], eps=1), "requires the full swap"),
        (lambda: subgroup_from_case(3, "ii", [0b111], eps=2), "eps must be 0 or 1"),
        (lambda: subgroup_from_case(7, "iii", shifts, eps=0, j_mask=0), "not reflection-invariant"),
        (lambda: subgroup_from_case(4, "iii", [0b1111], eps=0, j_mask=0b0010), "tau_J tau_{-J}"),
        (lambda: subgroup_from_case(3, "iii", [0b111], eps=0, j_mask=0b001), "tau_J tau_{J+1}"),
        (lambda: subgroup_from_case(9, "unknown"), "unknown case"),
        (lambda: DCAut(0), "at least one vertex"),
        (lambda: DCAut(3, swaps=8), "not a subset of Z_n"),
        (lambda: DCAut(3, reflect=2), "reflect must be 0 or 1"),
        (lambda: DCAut(3) * DCAut(4), "mixed cycle lengths"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize(
    "fields", [(3.0,), (3, 1.0), (3, 0, 1.0), (3, 0, 0, 1.5)], ids=["n", "swaps", "reflect", "shift"]
)
def test_dcaut_fields_must_be_integers(fields):
    # A float is refused, not carried into vertex images and dart numbers.
    with pytest.raises(ValueError, match="must be integers"):
        DCAut(*fields)


def test_subgroup_elements_preserve_vertex_and_edge_orbits():
    # Each shape must act transitively on vertices and on parallel classes.
    for gens in (
        subgroup_from_case(5, "i"),
        subgroup_from_case(5, "ii", [0b11111], eps=1),
        subgroup_from_case(5, "iii", [0b11111], eps=1, j_mask=0b11111),
    ):
        perms = [as_perm(vertex_perm(g)) for g in gens]
        images = np.array([*perms, *map(perm_inverse, perms)], dtype=np.int32)
        # One orbit: every vertex is labelled with vertex 0.
        assert not orbit_labels(images.T).any()
