"""Dihedral bar complex: operator identities, HH with the +/- splitting,
cyclic/dihedral homology, and the graded pieces of real Hochschild homology
against bar-complex HH."""

from c2algebra.differentials import cotangent_module, hkr_graded_piece, presentation_of
from c2algebra.polyring import BaseRing, PolyRing, RingInvolution, TwoNotInvertible
from c2algebra.trace import (
    InvolutiveAlgebra,
    TruncationTooSmall,
    algebra_gaussian,
    algebra_ground,
    algebra_poly,
    algebra_q_dual_numbers,
    algebra_q_poly,
    cyclic_class_eigenvalue,
    dihedral_homology,
    hh_dimension,
    hh_group,
    hh_omega_fixed_dimension,
    hh_plus_minus_dimensions,
    hochschild_complex,
    hr_fixed_points,
    hr_underlying,
)
from c2algebra.complexes import homology as cx_homology
from c2algebra.mackey import isomorphic, zbar, zsign

import pytest


Z = BaseRing("Z")
K_X = algebra_poly(Z, ["x"])                                          # k[x]
K_X_XS = algebra_poly(Z, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])   # k[x, x_s]
COTANGENT = {"trivial": cotangent_module(presentation_of(K_X)),
             "free": cotangent_module(presentation_of(K_X_XS))}


def hr_graded_pieces(kind, i, w):
    """gr^i HR of k[x] ("trivial") or k[x, x_s] ("free") at weight w."""
    return hkr_graded_piece(COTANGENT[kind], i, w)


def hr_underlying_dims_from_graded(kind, weight, degrees):
    """Sum over i of the underlying homology ranks of gr^i in each degree."""
    out = {n: 0 for n in degrees}
    for i in range(0, 3):
        C = hr_graded_pieces(kind, i, weight)
        for n in degrees:
            if n in C.terms:
                out[n] += cx_homology(C, n).underlying.rank()
    return out


def test_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        hochschild_complex(algebra_ground(), 0)


def test_identities_ground_field():
    C = hochschild_complex(algebra_ground(), 4)
    assert C.check_identities()
    assert C.idempotent_is_idempotent()


def test_identities_dual_numbers():
    C = hochschild_complex(algebra_q_dual_numbers(), 4)
    assert C.check_identities()
    assert C.idempotent_is_idempotent()


def test_identities_gaussian():
    C = hochschild_complex(algebra_gaussian(), 4)
    assert C.check_identities()


def test_identities_x_cubed():
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"], rules={0: (3, {})})
    A = InvolutiveAlgebra(base, ring, RingInvolution.identity(ring), "Q[x]/x^3")
    C = hochschild_complex(A, 4)
    assert C.check_identities()


def test_identities_poly_per_weight():
    A = algebra_q_poly()
    for w in range(0, 4):
        C = hochschild_complex(A, 4, weight=w)
        assert C.check_identities()


def test_hh_ground_field():
    A = algebra_ground()
    assert hh_dimension(A, 0) == 1
    for n in range(1, 4):
        assert hh_dimension(A, n) == 0


def test_hh_polynomial_ring():
    # HH_0 = Q[x], HH_1 = Q[x]dx, HH_n = 0 for n >= 2, weight by weight
    A = algebra_q_poly()
    for w in range(0, 5):
        assert hh_dimension(A, 0, weight=w) == 1
        assert hh_dimension(A, 1, weight=w) == (1 if w >= 1 else 0)
        for n in (2, 3):
            assert hh_dimension(A, n, weight=w) == 0


def test_hh_gaussian_etale():
    # R -> C is quadratic etale: HH_0 = C (dim 2 over Q), HH_n = 0 above
    A = algebra_gaussian()
    assert hh_dimension(A, 0) == 2
    for n in range(1, 4):
        assert hh_dimension(A, n) == 0


def test_hh_dual_numbers_brute():
    # classical: HH_0(Q[x]/x^2) = Q[x]/x^2, HH_n = Q for n >= 1
    A = algebra_q_dual_numbers()
    assert hh_dimension(A, 0) == 2
    for n in range(1, 5):
        assert hh_dimension(A, n) == 1


def test_split_dims_add_up_dual_numbers():
    A = algebra_q_dual_numbers()
    for n in range(0, 5):
        p, m = hh_plus_minus_dimensions(A, n)
        assert p + m == hh_dimension(A, n), n


def test_dual_numbers_plus_minus_table():
    # frozen from the bar-complex oracle: the plus/minus parts alternate
    # with period four (classes 1; x dx; (dx)^2; x (dx)^3; ...)
    A = algebra_q_dual_numbers()
    table = [hh_plus_minus_dimensions(A, n) for n in range(0, 5)]
    assert table == [(1, 1), (1, 0), (1, 0), (0, 1), (0, 1)]


def test_gaussian_plus_minus_table():
    G = algebra_gaussian()
    table = [hh_plus_minus_dimensions(G, n) for n in range(0, 4)]
    assert table == [(1, 1), (0, 0), (0, 0), (0, 0)]


def test_split_dims_add_up_gaussian():
    A = algebra_gaussian()
    for n in range(0, 4):
        p, m = hh_plus_minus_dimensions(A, n)
        assert p + m == hh_dimension(A, n), n


def test_hh_plus_minus_polynomial():
    # omega acts by -1 on C_1, so HH_1^+ = 0 and HH_1^- = Q[x]dx
    A = algebra_q_poly()
    for w in range(1, 4):
        p, m = hh_plus_minus_dimensions(A, 1, weight=w)
        assert (p, m) == (0, 1)


def test_hr_fixed_points_examples():
    assert hr_fixed_points(algebra_ground(), 0) == 1
    for w in range(1, 4):
        assert hr_fixed_points(algebra_q_poly(), 1, weight=w) == 0


def test_hr_fixed_points_two_routes():
    for A, weights in ((algebra_q_dual_numbers(), [None]),
                       (algebra_gaussian(), [None]),
                       (algebra_q_poly(), [0, 1, 2, 3])):
        for w in weights:
            for n in range(0, 4):
                assert hr_fixed_points(A, n, weight=w) == \
                    hh_omega_fixed_dimension(A, n, weight=w), (A.name, n, w)


def test_hr_requires_two_invertible():
    base = BaseRing("Z")
    ring = PolyRing(base, ["x"])
    A = InvolutiveAlgebra(base, ring, RingInvolution.identity(ring))
    with pytest.raises(TwoNotInvertible):
        hr_fixed_points(A, 1, weight=1)


def test_hr_underlying_integral():
    A = K_X
    assert hr_underlying(A, 0, weight=2).invariant_factors() == (0,)
    assert hr_underlying(A, 1, weight=2).invariant_factors() == (0,)


def test_hh_two_variable_closed_form():
    # HH of k[x, x_s] is the exterior algebra on dx, dx_s over k[x, x_s]:
    # per weight w, dims are (w + 1, 2w, w - 1, 0, ...)
    A = K_X_XS
    for w in range(0, 5):
        assert hh_group(A, 0, weight=w).rank() == w + 1, w
        assert hh_group(A, 1, weight=w).rank() == 2 * w, w
        assert hh_group(A, 2, weight=w).rank() == max(w - 1, 0), w
        assert hh_group(A, 3, weight=w).rank() == 0, w
    # over Z the groups are torsion-free in the smooth case
    for w in range(0, 4):
        for n in range(0, 3):
            assert not hh_group(A, n, weight=w).torsion(), (n, w)


def test_cyclic_homology_ground_field():
    D = dihedral_homology(algebra_ground(), 4)
    assert D.hc == [1, 0, 1, 0, 1]
    for n in range(0, 5):
        assert D.hd[n] + D.hd_prime[n] == D.hc[n]
    # distribution follows the involution eigenvalue on the cyclic classes
    for n in (0, 2, 4):
        if cyclic_class_eigenvalue(n) == 1:
            assert (D.hd[n], D.hd_prime[n]) == (1, 0)
        else:
            assert (D.hd[n], D.hd_prime[n]) == (0, 1)
    # period four: HD = Q, 0, 0, 0, Q, ...
    assert D.hd == [1, 0, 0, 0, 1]
    assert D.hd_prime == [0, 0, 1, 0, 0]


def test_cyclic_homology_polynomial():
    A = algebra_q_poly()
    # weight 0 block reproduces HC(Q)
    D0 = dihedral_homology(A, 4, weight=0)
    assert D0.hc == [1, 0, 1, 0, 1]
    # positive weights: reduced HC of Q[x] is x Q[x] in degree 0 only
    for w in (1, 2, 3):
        D = dihedral_homology(A, 3, weight=w)
        assert D.hc == [1, 0, 0, 0], w
        assert D.hd[0] + D.hd_prime[0] == 1
        for n in range(0, 4):
            assert D.hd[n] + D.hd_prime[n] == D.hc[n]
    # HD_0 = Q[x]^+ = Q[x]: the degree-0 class is in the plus part
    for w in (0, 1, 2, 3):
        D = dihedral_homology(A, 2, weight=w)
        assert D.hd[0] == 1 and D.hd_prime[0] == 0


def test_dihedral_requires_two_invertible():
    A = K_X
    with pytest.raises(TwoNotInvertible):
        dihedral_homology(A, 2, weight=1)


# -- graded pieces of HR -------------------------------------------------------

def test_hr_graded_pieces_accepts_presentations():
    C = hkr_graded_piece(cotangent_module(presentation_of(K_X)), 0, 2)
    assert isomorphic(cx_homology(C, 0), zbar())
    C2 = hkr_graded_piece(cotangent_module(presentation_of(K_X_XS)), 1, 1)
    assert cx_homology(C2, 1).underlying.rank() == 2


def test_hr_graded_pieces_trivial_case():
    # gr^1 = Sigma^sigma k[x], gr^0 = k[x], gr^i = 0 else
    for w in range(0, 4):
        g0 = hr_graded_pieces("trivial", 0, w)
        H0 = cx_homology(g0, 0)
        assert isomorphic(H0, zbar()), w
        g2 = hr_graded_pieces("trivial", 2, w)
        assert not g2.terms
    for w in range(1, 4):
        g1 = hr_graded_pieces("trivial", 1, w)
        # Sigma^sigma zbar: homology zsign in degree 1, (Z/2, 0) in degree 0
        assert isomorphic(cx_homology(g1, 1), zsign())
        assert cx_homology(g1, 1).underlying.rank() == 1


def test_hr_graded_pieces_underlying_hkr_trivial():
    # underlying homology summed over i = bar-complex HH of k[x], degreewise
    A = K_X
    for w in range(0, 5):
        got = hr_underlying_dims_from_graded("trivial", w, range(0, 5))
        for n in range(0, 5):
            assert got[n] == hh_group(A, n, weight=w).rank(), (w, n)


def test_hr_graded_pieces_underlying_hkr_free():
    A = K_X_XS
    for w in range(0, 5):
        got = hr_underlying_dims_from_graded("free", w, range(0, 5))
        for n in range(0, 5):
            assert got[n] == hh_group(A, n, weight=w).rank(), (w, n)


def test_hr_graded_pieces_free_shapes():
    # gr^2 = Sigma^{sigma+1} k[x, x_s]: underlying homology concentrated in
    # degree 2 with rank = dim of the weight - 2 piece
    for w in (2, 3, 4):
        g2 = hr_graded_pieces("free", 2, w)
        H2 = cx_homology(g2, 2)
        assert H2.underlying.rank() == w - 1, w
        assert cx_homology(g2, 0).underlying.is_trivial()
    for w in (1, 2, 3):
        g1 = hr_graded_pieces("free", 1, w)
        H1 = cx_homology(g1, 1)
        assert H1.underlying.rank() == 2 * w, w
