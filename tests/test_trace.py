"""Dihedral bar complex: operator identities, HH with the +/- splitting,
cyclic/dihedral homology, and the graded pieces of real Hochschild homology
against bar-complex HH."""

from c2algebra.abelian import FgAbGroup, zeros
from c2algebra.chains import ChainComplex
from c2algebra.mackey import AbMap, mat_mul
from c2algebra.differentials import hkr_graded_piece
from c2algebra.polyring import BaseRing, PolyRing, RingInvolution, TwoNotInvertible
from c2algebra import trace
from c2algebra.trace import (
    DihedralComplex,
    DihedralHomology,
    InvolutiveAlgebra,
    TraceError,
    dihedral_homology,
    hochschild_blocks,
    hochschild_chains,
)
from c2algebra.complexes import homology as cx_homology
from c2algebra.mackey import zbar
from oracles import (
    EigenComplex,
    algebra_gaussian,
    algebra_ground,
    algebra_poly,
    algebra_q_dual_numbers,
    algebra_q_poly,
    chain_group,
    chain_homology,
    check_identities,
    columns,
    cyclic_class_eigenvalue,
    dense,
    free_rank,
    hh_groups,
    hh_omega_fixed_dimension,
    hh_plus_minus_dimensions,
    idempotent_is_idempotent,
    isomorphic,
    localized,
    reference_operators,
    zsign,
)

from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st


Z = BaseRing("Z")
K_X = algebra_poly(Z, ["x"])                                          # k[x]
K_X_XS = algebra_poly(Z, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])   # k[x, x_s]
SIGMA = {"trivial": K_X.omega, "free": K_X_XS.omega}


def hh(A, n_max, weight=None):
    """HH_0, ..., HH_{n_max} of A, by the blocked bar complex."""
    return hh_groups(hochschild_blocks(A, n_max + 1, weight), range(n_max + 1))


def hr_graded_pieces(kind, i, w):
    """gr^i HR of k[x] ("trivial") or k[x, x_s] ("free") at weight w."""
    return hkr_graded_piece(SIGMA[kind], i, w)


def hr_underlying_dims_from_graded(kind, weight, degrees):
    """Sum over i of the underlying homology ranks of gr^i in each degree."""
    out = {n: 0 for n in degrees}
    for i in range(0, 3):
        C = hr_graded_pieces(kind, i, weight)
        for n in degrees:
            if n in C.terms:
                out[n] += free_rank(cx_homology(C, n).underlying)
    return out


def test_identities_ground_field():
    C = DihedralComplex(algebra_ground(), 4)
    assert check_identities(C)
    assert idempotent_is_idempotent(C)


def test_identities_dual_numbers():
    C = DihedralComplex(algebra_q_dual_numbers(), 4)
    assert check_identities(C)
    assert idempotent_is_idempotent(C)


def test_identities_gaussian():
    assert check_identities(DihedralComplex(algebra_gaussian(), 4))


def test_identities_x_cubed():
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"], rules={0: (3, {})})
    A = InvolutiveAlgebra(RingInvolution.identity(ring))
    assert check_identities(DihedralComplex(A, 4))


def test_identities_poly_per_weight():
    A = algebra_q_poly()
    for w in range(0, 4):
        assert check_identities(DihedralComplex(A, 4, weight=w))


# over Q the rank of HH_n is its dimension

def test_hh_ground_field():
    assert [free_rank(G) for G in hh(algebra_ground(), 3)] == [1, 0, 0, 0]


def test_hh_polynomial_ring():
    # HH_0 = Q[x], HH_1 = Q[x]dx, HH_n = 0 for n >= 2, weight by weight
    A = algebra_q_poly()
    for w in range(0, 5):
        assert [free_rank(G) for G in hh(A, 3, w)] == [1, 1 if w >= 1 else 0, 0, 0], w


def test_hh_gaussian_etale():
    # R -> C is quadratic etale: HH_0 = C (dim 2 over Q), HH_n = 0 above
    assert [free_rank(G) for G in hh(algebra_gaussian(), 3)] == [2, 0, 0, 0]


def test_hh_dual_numbers_brute():
    # classical: HH_0(Q[x]/x^2) = Q[x]/x^2, HH_n = Q for n >= 1
    assert [free_rank(G) for G in hh(algebra_q_dual_numbers(), 4)] == [2, 1, 1, 1, 1]


def test_split_dims_add_up_dual_numbers():
    A = algebra_q_dual_numbers()
    for n, G in enumerate(hh(A, 4)):
        p, m = hh_plus_minus_dimensions(A, n)
        assert p + m == free_rank(G), n


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
    for n, G in enumerate(hh(A, 3)):
        p, m = hh_plus_minus_dimensions(A, n)
        assert p + m == free_rank(G), n


def test_hh_plus_minus_polynomial():
    # omega acts by -1 on C_1, so HH_1^+ = 0 and HH_1^- = Q[x]dx
    A = algebra_q_poly()
    for w in range(1, 4):
        p, m = hh_plus_minus_dimensions(A, 1, weight=w)
        assert (p, m) == (0, 1)


def test_hr_fixed_points_examples():
    # pi_n of HR^{C2} is HH_n^+ when 2 is invertible
    assert hh_plus_minus_dimensions(algebra_ground(), 0)[0] == 1
    for w in range(1, 4):
        assert hh_plus_minus_dimensions(algebra_q_poly(), 1, weight=w)[0] == 0


def test_hr_fixed_points_two_routes():
    for A, weights in ((algebra_q_dual_numbers(), [None]),
                       (algebra_gaussian(), [None]),
                       (algebra_q_poly(), [0, 1, 2, 3])):
        for w in weights:
            for n in range(0, 4):
                assert hh_plus_minus_dimensions(A, n, weight=w)[0] == \
                    hh_omega_fixed_dimension(A, n, weight=w), (A, n, w)


def test_hr_requires_two_invertible():
    base = BaseRing("Z")
    ring = PolyRing(base, ["x"])
    A = InvolutiveAlgebra(RingInvolution.identity(ring))
    with pytest.raises(TwoNotInvertible):
        hh_plus_minus_dimensions(A, 1, weight=1)


def test_hr_underlying_integral():
    # the underlying homotopy of real Hochschild homology is HH over Z
    assert [G.invariant_factors() for G in hh(K_X, 1, 2)] == [(0,), (0,)]


def test_hh_two_variable_closed_form():
    # HH of k[x, x_s] is the exterior algebra on dx, dx_s over k[x, x_s]:
    # per weight w, dims are (w + 1, 2w, w - 1, 0, ...)
    for w in range(0, 5):
        groups = hh(K_X_XS, 3, w)
        assert [free_rank(G) for G in groups] == [w + 1, 2 * w, max(w - 1, 0), 0], w
        # over Z the groups are torsion-free in the smooth case
        assert not any(d for G in groups[:3] for d in G.invariant_factors()), w


def test_cyclic_homology_ground_field():
    D = dihedral_homology(algebra_ground().omega, 4)
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
    D0 = dihedral_homology(A.omega, 4, weight=0)
    assert D0.hc == [1, 0, 1, 0, 1]
    # positive weights: reduced HC of Q[x] is x Q[x] in degree 0 only
    for w in (1, 2, 3):
        D = dihedral_homology(A.omega, 3, weight=w)
        assert D.hc == [1, 0, 0, 0], w
        assert D.hd[0] + D.hd_prime[0] == 1
        for n in range(0, 4):
            assert D.hd[n] + D.hd_prime[n] == D.hc[n]
    # HD_0 = Q[x]^+ = Q[x]: the degree-0 class is in the plus part
    for w in (0, 1, 2, 3):
        D = dihedral_homology(A.omega, 2, weight=w)
        assert D.hd[0] == 1 and D.hd_prime[0] == 0


def test_dihedral_requires_two_invertible():
    A = K_X
    with pytest.raises(TwoNotInvertible):
        dihedral_homology(A.omega, 2, weight=1)


# -- graded pieces of HR -------------------------------------------------------

def test_hr_graded_pieces_accepts_presentations():
    C = hkr_graded_piece(K_X.omega, 0, 2)
    assert isomorphic(cx_homology(C, 0), zbar())
    C2 = hkr_graded_piece(K_X_XS.omega, 1, 1)
    assert free_rank(cx_homology(C2, 1).underlying) == 2


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
        assert free_rank(cx_homology(g1, 1).underlying) == 1


def test_hr_graded_pieces_underlying_hkr_trivial():
    # underlying homology summed over i = bar-complex HH of k[x], degreewise
    for w in range(0, 5):
        got = hr_underlying_dims_from_graded("trivial", w, range(0, 5))
        for n, G in enumerate(hh(K_X, 4, w)):
            assert got[n] == free_rank(G), (w, n)


def test_hr_graded_pieces_underlying_hkr_free():
    for w in range(0, 5):
        got = hr_underlying_dims_from_graded("free", w, range(0, 5))
        for n, G in enumerate(hh(K_X_XS, 4, w)):
            assert got[n] == free_rank(G), (w, n)


def test_hr_graded_pieces_free_shapes():
    # gr^2 = Sigma^{sigma+1} k[x, x_s]: underlying homology concentrated in
    # degree 2 with rank = dim of the weight - 2 piece
    for w in (2, 3, 4):
        g2 = hr_graded_pieces("free", 2, w)
        H2 = cx_homology(g2, 2)
        assert free_rank(H2.underlying) == w - 1, w
        assert cx_homology(g2, 0).underlying.is_trivial()
    for w in (1, 2, 3):
        g1 = hr_graded_pieces("free", 1, w)
        H1 = cx_homology(g1, 1)
        assert free_rank(H1.underlying) == 2 * w, w


# -- blocks against the whole weight block -------------------------------------
#
# The whole-weight routes as they stood before the exponent-vector blocks,
# kept verbatim as the reference: one DihedralComplex per weight, one SNF per
# degree, the eigen-split on every chain group.

def plain_hh_group(A, n, weight=None):
    return chain_homology(hochschild_chains(DihedralComplex(A, n + 1, weight)), n).group


def plain_split_plus_minus(C):
    if not C.algebra.base.two_invertible:
        raise TwoNotInvertible("2 is not invertible in the base")
    chains = hochschild_chains(C)
    return EigenComplex(chains, C.omega, 1), EigenComplex(chains, C.omega, -1)


def plain_hh_plus_minus_dimensions(A, n, weight=None):
    C = DihedralComplex(A, n + 1, weight)
    return tuple(free_rank(chain_homology(P, n).group, A.base) for P in plain_split_plus_minus(C))


def plain_bicomplex(C, n_max):
    """(T, invol): the total complex of the (b, B)-bicomplex of C truncated
    at n_max columns, and its involution (-1)^i omega on column i, laid out
    as dense matrices and handed over as sparse columns."""
    # total complex T_n = sum over columns i of C_{n - 2i}
    layout = {}
    dims = {}
    for n in range(0, n_max + 2):
        cols = [(i, n - 2 * i) for i in range(0, n_max + 1) if 0 <= n - 2 * i <= C.n_max]
        layout[n] = cols
        dims[n] = sum(C.dim(q) for _, q in cols)
    offs = {}
    for n, cols in layout.items():
        off = 0
        offs[n] = {}
        for key in cols:
            offs[n][key] = off
            off += C.dim(key[1])
    mats = {}
    for n in range(1, n_max + 2):
        M = zeros(dims[n - 1], dims[n])
        for (i, q) in layout[n]:
            src_off = offs[n][(i, q)]
            if (i, q - 1) in offs[n - 1] and q >= 1:
                b = dense(C.b[q], C.dim(q - 1))
                t_off = offs[n - 1][(i, q - 1)]
                for r in range(C.dim(q - 1)):
                    for c in range(C.dim(q)):
                        M[t_off + r][src_off + c] += b[r][c]
            if (i - 1, q + 1) in offs[n - 1] and q <= C.n_max - 1:
                Bm = dense(C.B[q], C.dim(q + 1))
                t_off = offs[n - 1][(i - 1, q + 1)]
                for r in range(C.dim(q + 1)):
                    for c in range(C.dim(q)):
                        M[t_off + r][src_off + c] += Bm[r][c]
        mats[n] = M
    invol = {}
    for n in range(0, n_max + 2):
        M = zeros(dims[n], dims[n])
        for (i, q) in layout[n]:
            off = offs[n][(i, q)]
            sgn = -1 if i % 2 else 1
            om = dense(C.omega[q], C.dim(q))
            for r in range(C.dim(q)):
                for c in range(C.dim(q)):
                    M[off + r][off + c] = sgn * om[r][c]
        invol[n] = M
    return ChainComplex(dims, {n: columns(M) for n, M in mats.items()}, C.algebra.base), \
        {n: columns(M) for n, M in invol.items()}


def plain_dihedral_homology(A, n_max, weight=None):
    if not A.base.two_invertible:
        raise TwoNotInvertible("2 is not invertible in the base")
    T, invol = plain_bicomplex(DihedralComplex(A, n_max + 1, weight), n_max)
    # sanity: the involution commutes with the total differential (compared
    # in the chain groups, so mod m over Z/m)
    groups = {n: chain_group(d, A.base) for n, d in T.dims.items()}
    for n, cols in T.mats.items():
        d = dense(cols, T.dims[n - 1])
        lhs = AbMap(groups[n], groups[n - 1], mat_mul(dense(invol[n - 1], T.dims[n - 1]), d))
        if not lhs.equals(AbMap(groups[n], groups[n - 1], mat_mul(d, dense(invol[n], T.dims[n])))):
            raise TraceError("bicomplex involution does not commute with b + B")
    hc = [free_rank(chain_homology(T, n).group, A.base) for n in range(0, n_max + 1)]
    plus = EigenComplex(T, invol, 1)
    minus = EigenComplex(T, invol, -1)
    hd = [free_rank(chain_homology(plus, n).group, A.base) for n in range(0, n_max + 1)]
    hdp = [free_rank(chain_homology(minus, n).group, A.base) for n in range(0, n_max + 1)]
    return DihedralHomology(hc, hd, hdp)


@st.composite
def monomial_presentations(draw, finite=False, max_vars=3):
    """(names, sigma images, rules): up to max_vars variables; sigma a
    signed-permutation involution (pairs swapped with one sign, fixed points
    with a sign); relations x^p = 0, p in 2..3, one p per orbit, optional
    unless finite."""
    n = draw(st.integers(1, max_vars))
    order = draw(st.permutations(range(n)))
    orbits = []
    while order:
        if len(order) >= 2 and draw(st.booleans()):
            orbits.append(order[:2])
            order = order[2:]
        else:
            orbits.append(order[:1])
            order = order[1:]
    names = ["v%d" % i for i in range(n)]
    images, rules = [None] * n, {}
    for orbit in orbits:
        u = draw(st.sampled_from([1, -1]))
        p = draw(st.sampled_from([2, 3] if finite else [None, 2, 3]))
        for i, j in zip(orbit, orbit[::-1]):
            mono = tuple(1 if k == j else 0 for k in range(n))
            images[i] = {mono: u}
            if p is not None:
                rules[i] = (p, {})
    return names, images, rules


@st.composite
def monomial_algebras(draw, finite=False):
    """A monomial_presentations algebra over a base among Z, Q, Z[1/2], Z/4
    and F_3."""
    base = BaseRing.parse(draw(st.sampled_from(["Z", "Q", "Z[1/2]", "Z/4", "Z/3"])))
    return algebra_poly(base, *draw(monomial_presentations(finite)))


def assert_blocks_match_whole(A, weight, n_max):
    blocks = hochschild_blocks(A, n_max + 1, weight)
    got = [G.invariant_factors() for G in hh_groups(blocks, range(0, n_max + 1))]
    want = [localized(plain_hh_group(A, n, weight).invariant_factors(), A.base)
            for n in range(0, n_max + 1)]
    assert got == want, (A.ring.names, weight)
    if A.base.two_invertible:
        D = dihedral_homology(A.omega, n_max, weight)
        P = plain_dihedral_homology(A, n_max, weight)
        assert (D.hc, D.hd, D.hd_prime) == (P.hc, P.hd, P.hd_prime), (A.ring.names, weight)
        for n in range(0, n_max + 1):
            assert hh_plus_minus_dimensions(A, n, weight) == \
                plain_hh_plus_minus_dimensions(A, n, weight), (A.ring.names, weight, n)


def assert_eigen_parts_match_the_kernel_route(A, weight, n_max):
    """On every self-conjugate bicomplex block, eigen_invariants against the
    homology of the eigen kernels (oracles.EigenComplex): the same invariant
    factors over Z/m, the same ranks over Q and Z[1/2], where
    rk P_n - rk d_n P_n - rk d_{n+1} P_{n+1} reads only the free part."""
    blocks = [C for C in hochschild_blocks(A, n_max + 1, weight) if not C.paired]
    assert blocks
    degrees = range(0, n_max + 1)
    for C in blocks:
        T, invol = plain_bicomplex(C, n_max)
        for sign in (1, -1):
            got, part = T.eigen_invariants(invol, sign, degrees), EigenComplex(T, invol, sign)
            want = [chain_homology(part, n).group.invariant_factors() for n in degrees]
            if A.base.kind != "Z/m":
                assert all(set(h) <= {0} for h in got), (C.key, sign)
                got, want = [len(h) for h in got], [h.count(0) for h in want]
            assert got == want, (C.key, sign)


@settings(max_examples=30, deadline=None)
@given(monomial_presentations(finite=True, max_vars=2), st.sampled_from([2, 3, 4, 6, 9]))
def test_hh_over_z_mod_m_follows_from_hh_over_z_by_universal_coefficients(presentation, m):
    # HH_n(A/m) = HH_n(A) (x) Z/m + Tor(HH_{n-1}(A), Z/m), with
    # Z/d (x) Z/m = Tor(Z/d, Z/m) = Z/gcd(d, m) and gcd(0, m) = m
    n_max = 3 if len(presentation[0]) == 1 else 2

    def hh(base):
        A = algebra_poly(BaseRing.parse(base), *presentation)
        blocks = hochschild_blocks(A, n_max + 1)
        return [G.invariant_factors() for G in hh_groups(blocks, range(n_max + 1))]
    over_z, over_m = hh("Z"), hh("Z/%d" % m)
    for n in range(n_max + 1):
        tor = [gcd(d, m) for d in over_z[n - 1] if d] if n else []
        want = FgAbGroup.from_invariants([gcd(d, m) for d in over_z[n]] + tor)
        assert over_m[n] == want.invariant_factors(), (presentation, m, n)


@pytest.mark.parametrize("base", ["Q", "Z[1/2]", "Z/3", "Z/5", "Z/9", "Z/15"])
@pytest.mark.parametrize("names, images, rules, weight, n_max", [
    (["x"], [{(1,): 1}], {0: (3, {})}, None, 4),                     # k[x]/x^3
    (["x"], [{(1,): -1}], {0: (3, {})}, None, 4),                    # x -> -x
    (["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}], {0: (2, {}), 1: (2, {})}, None, 3),
    (["x", "x_s"], [{(0, 1): -1}, {(1, 0): -1}], {}, 4, 3),          # x -> -x_s
])
def test_eigen_ranks_match_the_eigen_homology(base, names, images, rules, weight, n_max):
    A = algebra_poly(BaseRing.parse(base), names, images, rules)
    assert_eigen_parts_match_the_kernel_route(A, weight, n_max)


def test_eigen_invariants_match_the_kernel_route_when_a_part_is_not_free():
    # Z/15[x]/x^2 with sigma(x) = 4x: the + part of H_0 is Z/15 + Z/3
    A = algebra_poly(BaseRing.parse("Z/15"), ["x"], [{(1,): 4}], {0: (2, {})})
    assert_eigen_parts_match_the_kernel_route(A, None, 2)


@settings(max_examples=25, deadline=None)
@given(A=monomial_algebras(), weight=st.integers(0, 4), n_max=st.integers(1, 3))
def test_blocks_match_the_whole_weight_block(A, weight, n_max):
    # three variables at weight 4 take 1-6 s each on the whole-weight route
    assume(A.ring.n < 3 or weight < 4)
    assert_blocks_match_whole(A, weight, n_max)


@pytest.mark.parametrize("rules,images", [
    ({0: (2, {}), 1: (2, {})}, [{(0, 1): 1}, {(1, 0): 1}]),   # Z[x, x_s]/(x^2, x_s^2)
    ({0: (2, {})}, [{(1,): -1}]),                              # Z[x]/x^2, x -> -x
    ({0: (3, {})}, [{(1,): 1}]),                               # Z[x]/x^3
])
@pytest.mark.parametrize("base", ["Z", "Z/4", "Q"])
def test_blocks_match_the_whole_finite_complex(rules, images, base):
    names = ["x", "x_s"][:len(images)]
    A = algebra_poly(BaseRing.parse(base), names, images, rules)
    assert_blocks_match_whole(A, None, 3)


def _partner(A, m):
    """The exponent vector m with sigma's permutation of the variables
    applied, signs dropped."""
    perm = [next(iter(img)).index(1) for img in A.omega.images]
    out = [0] * len(m)
    for i, k in enumerate(perm):
        out[k] = m[i]
    return tuple(out)


def assert_blocks_partition_the_whole_complex(A, weight, n_max):
    """The blocks of hochschild_blocks, with the partners of the paired ones,
    cut the basis of the whole DihedralComplex into exponent-vector classes,
    each block in the whole complex's order; HH and (b, B)-homology over the
    blocks are those of the whole complex taken as one block."""
    whole = DihedralComplex(A, n_max, weight)
    # the one-block route over Z/m reads dense Homology of the whole complex
    assume(sum(map(whole.dim, range(0, n_max + 1))) <= 400)
    blocks = hochschild_blocks(A, n_max, weight)
    for n in range(0, n_max + 1):
        got = []
        for C in blocks:
            assert all(tuple(map(sum, zip(*t))) == C.key for t in C.bases[n]), (C.key, n)
            assert C.bases[n] == [t for t in whole.bases[n] if tuple(map(sum, zip(*t))) == C.key]
            assert C.paired == (_partner(A, C.key) != C.key), C.key
            partners = [tuple(_partner(A, m) for m in t) for t in C.bases[n]]
            got += C.bases[n] + (partners if C.paired else [])
        assert sorted(got) == sorted(whole.bases[n]) and len(set(got)) == len(got), n
    degrees = range(0, n_max)
    assert hh_groups(blocks, degrees) == hh_groups([whole], degrees)
    if A.base.two_invertible:
        with patch.object(trace, "hochschild_blocks", lambda A, n, w: [DihedralComplex(A, n, w)]):
            one = dihedral_homology(A.omega, n_max - 1, weight)
        split = dihedral_homology(A.omega, n_max - 1, weight)
        assert (split.hc, split.hd, split.hd_prime) == (one.hc, one.hd, one.hd_prime)


@settings(max_examples=25, deadline=None)
@given(A=monomial_algebras(), weight=st.integers(0, 4), n_max=st.integers(1, 4))
def test_blocks_partition_the_weight_complex(A, weight, n_max):
    assert_blocks_partition_the_whole_complex(A, weight, n_max)


@settings(max_examples=25, deadline=None)
@given(A=monomial_algebras(finite=True), n_max=st.integers(1, 3))
def test_blocks_partition_the_finite_complex(A, n_max):
    k = len(A.ring.monomial_basis_all())   # the whole complex has k (k - 1)^n tensors
    assume(sum(k * (k - 1) ** n for n in range(0, n_max + 1)) <= 400)
    assert_blocks_partition_the_whole_complex(A, None, n_max)


def test_a_complex_reads_the_same_after_every_read():
    # elementary_divisors edits the rows it reduces; every read of a
    # complex must leave its columns as they were, so the answers of a
    # complex read in every way agree with those of fresh complexes
    A = algebra_poly(BaseRing("Q"), ["x"], [{(1,): -1}], {0: (3, {})})
    degrees = range(0, 4)

    def chains():
        C = DihedralComplex(A, 4)
        return hochschild_chains(C), C.omega

    T, omega = chains()
    frozen = repr(T.mats)
    hh = [T.invariants(n) for n in degrees]
    parts = [T.eigen_invariants(omega, s, degrees) for s in (1, -1)]
    assert T.check(omega, 1) is T and repr(T.mats) == frozen
    assert hh == [chains()[0].invariants(n) for n in degrees] == [(0,) * 3] + [(0,) * 2] * 3
    for s, part in zip((1, -1), parts):
        fresh, fresh_omega = chains()
        assert part == fresh.eigen_invariants(fresh_omega, s, degrees), s
    assert [T.invariants(n) for n in degrees] == hh


def test_a_relation_that_is_not_monomial_keeps_one_block():
    # Q(i) with i^2 = -1: b does not preserve exponent vectors, so the one
    # block is the whole finite complex, split along omega as before
    A = algebra_gaussian()
    blocks = hochschild_blocks(A, 4)
    assert len(blocks) == 1 and blocks[0].key is None and not blocks[0].paired
    assert_blocks_match_whole(A, None, 3)


def test_free_involutive_weight_5_has_three_paired_blocks():
    A = algebra_poly(BaseRing("Q"), ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])
    blocks = hochschild_blocks(A, 3, 5)
    assert [C.key for C in blocks] == [(0, 5), (1, 4), (2, 3)]
    assert all(C.paired for C in blocks)
    with pytest.raises(TraceError):
        blocks[0].omega   # omega carries the block onto its partner's


def test_a_term_outside_the_basis_is_an_error():
    C = DihedralComplex(algebra_q_poly(), 2, weight=2)
    with pytest.raises(TraceError, match="degree-1 basis"):
        # x (x) x^2 has weight 3, not 2
        C._matrix(1, 1, lambda t: [(1, [(((1,), 1),), (((2,), 1),)])])


def assert_operators_match_the_reference(C):
    """b, omega and B read from the algebra's memo tables against
    oracles.reference_operators, which calls ring.mul and omega per term:
    the same columns, each with the same entries in the same order."""
    for got, want in zip((C.b, C.omega, C.B), reference_operators(C)):
        assert {n: [list(col.items()) for col in M] for n, M in got.items()} == \
            {n: [list(col.items()) for col in M] for n, M in want.items()}


@settings(max_examples=25, deadline=None)
@given(A=monomial_algebras(), weight=st.integers(0, 4), n_max=st.integers(1, 3))
def test_operators_match_the_reference_on_a_weight_block(A, weight, n_max):
    assert_operators_match_the_reference(DihedralComplex(A, n_max, weight))


@settings(max_examples=25, deadline=None)
@given(A=monomial_algebras(finite=True), n_max=st.integers(1, 3))
def test_operators_match_the_reference_on_a_finite_algebra(A, n_max):
    k = len(A.ring.monomial_basis_all())   # the complex has k (k - 1)^n tensors
    assume(sum(k * (k - 1) ** n for n in range(0, n_max + 1)) <= 600)
    assert_operators_match_the_reference(DihedralComplex(A, n_max))


def _graded_algebra(base, names, images, rules, weights):
    ring = PolyRing(base, names, rules=rules, weights=weights)
    return InvolutiveAlgebra(RingInvolution(ring, images))


@pytest.mark.parametrize("base", ["Q", "Z", "Z/3", "Z/15"])
def test_operators_match_the_reference_beyond_monomial_rules(base):
    base = BaseRing.parse(base)
    cases = [
        # Q(i) with conjugation, i^2 = -1
        (algebra_poly(base, ["i"], [{(1,): -1}], {0: (2, {(0,): -1})}), None, 3),
        # y^2 = x^3, y -> -y, the weight blocks 6 and 7 of weights x: 2, y: 3
        (_graded_algebra(base, ["x", "y"], [{(1, 0): 1}, {(0, 1): -1}],
                         {1: (2, {(3, 0): 1})}, [2, 3]), 6, 3),
        (_graded_algebra(base, ["x", "y"], [{(1, 0): 1}, {(0, 1): -1}],
                         {1: (2, {(3, 0): 1})}, [2, 3]), 7, 3),
        # y^2 = x^3 + 1 has no weight block; its finite quotient by x^4
        (algebra_poly(base, ["x", "y"], [{(1, 0): 1}, {(0, 1): -1}],
                      {0: (4, {}), 1: (2, {(3, 0): 1, (0, 0): 1})}), None, 2),
        # x^2 = x with x -> 1 - x: sigma-images with a unit term
        (algebra_poly(base, ["x"], [{(0,): 1, (1,): -1}], {0: (2, {(1,): 1})}), None, 3),
        # k[x]/x^2 with x -> 4x over Z/3 and Z/15 (16 = 1 in both), x -> -x otherwise
        (algebra_poly(base, ["x"], [{(1,): 4 if base.kind == "Z/m" else -1}],
                      {0: (2, {})}), None, 3),
    ]
    for A, weight, n_max in cases:
        assert_operators_match_the_reference(DihedralComplex(A, n_max, weight))
