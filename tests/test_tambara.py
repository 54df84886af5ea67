"""Tambara presentations: axioms, the cohomological condition, fixed-point
Green functors, free involutive algebras and norm rings."""

from fractions import Fraction

from c2algebra.mackey import validate
from c2algebra.polyring import BaseRing, PolyRing, parse_poly
from c2algebra.tambara import (
    TambaraPresentation,
    free_involutive_free,
    free_involutive_trivial,
    free_relation_holds,
    is_cohomological,
    validate_tambara,
)
from oracles import (
    BurnsideTable,
    fixed_point_green,
    free_rank,
    gaussian_algebra,
    graded_norm,
    group_ring_involutive,
    koszul_norm_rule_holds,
    mackey_piece,
    norm_ring,
)

import pytest


Z = BaseRing("Z")


def test_polyring_basics():
    R = PolyRing(Z, ["x", "y"])
    p = parse_poly(R, "x^2 - 2*x*y + y^2")
    q = parse_poly(R, "(x - y)^2")
    assert R.equal(p, q)
    assert R.poly_string(parse_poly(R, "x + 0*y")) == "x"


def test_polyring_rules():
    R = PolyRing(Z, ["x"], rules={0: (2, {})})  # x^2 = 0
    p = parse_poly(R, "x^2 + x")
    assert R.poly_string(p) == "x"
    G = PolyRing(Z, ["g"], rules={0: (4, {(0,): Fraction(1)})})  # g^4 = 1
    assert G.equal(parse_poly(G, "g^5"), parse_poly(G, "g"))
    assert len(G.monomial_basis_all()) == 4


def test_polyring_truncation_and_weights():
    R = PolyRing(Z, ["x"])
    assert R.monomial_basis_weight(2) == [(2,)]


def test_free_trivial():
    T = free_involutive_trivial(Z, ["x"])
    assert validate_tambara(T) is None
    ring = T.ring
    x = T.res_gen("x")
    assert ring.equal(T.norm(x), ring.mul(x, x))
    assert is_cohomological(T)
    # empty set gives the constant functor
    T0 = free_involutive_trivial(Z, [])
    assert validate_tambara(T0) is None


def test_free_trivial_sum_rule_two_vars():
    T = free_involutive_trivial(Z, ["x", "y"])
    ring = T.ring
    x, y = T.res_gen("x"), T.res_gen("y")
    lhs = ring.sub(ring.sub(T.norm(ring.add(x, y)), T.norm(x)), T.norm(y))
    assert ring.equal(lhs, T.tr(ring.mul(x, y)))
    assert ring.equal(lhs, ring.scale(2, ring.mul(x, y)))


def test_free_involutive_free_res_images():
    T = free_involutive_free(Z)
    ring = T.ring
    assert ring.poly_string(T.res_gen("t_1")) in ("x + x_s", "x_s + x")
    # res(t_i) = x^i + x_s^i
    for i in range(1, 5):
        got = T.res_gen("t_%d" % i)
        want = parse_poly(ring, "x^%d + x_s^%d" % (i, i))
        assert ring.equal(got, want)


def test_free_involutive_free_relations():
    T = free_involutive_free(Z)
    # t1 * t1 = t2 + 2 x_N ; t2 * t1 = t3 + x_N t1 ; all i, j <= 4
    for i in range(1, 5):
        for j in range(1, i + 1):
            assert free_relation_holds(T, i, j), (i, j)


def test_free_involutive_free_validates():
    T = free_involutive_free(Z)
    assert validate_tambara(T) is None
    assert is_cohomological(T)


def test_mutated_norm_breaks_multiplicativity():
    # mutating N(x) to x + 1 in k[x^triv] violates N(1) = 1 via N(a b) = N(a) N(b)
    T = free_involutive_trivial(Z, ["x"])
    ring = T.ring

    class Mutated(TambaraPresentation):
        def norm(self, a):
            return ring.add(TambaraPresentation.norm(self, a), ring.one_poly())

    M = Mutated(T.base, T.ring, T.sigma, T.fixed_gens, T.truncation)
    v = validate_tambara(M)
    assert v is not None
    assert v.identity in ("norm_multiplicative", "norm_sum_rule")


def test_fixed_point_green_trivial_involution():
    # trivial involution gives the constant Tambara functor: res = id on
    # every generator, so the x-span of the invariants is everything
    from c2algebra.polyring import RingInvolution
    R = PolyRing(BaseRing("Q"), ["x"])
    T = fixed_point_green(R, RingInvolution.identity(R), truncation=4)
    assert validate_tambara(T) is None
    assert is_cohomological(T)
    labels = [name for name, _ in T.fixed_gens]
    for w in range(1, 5):
        assert any(l == "x^%d" % w or (w == 1 and l == "x") for l in labels), w


def test_gaussian_algebra():
    T = gaussian_algebra()
    assert validate_tambara(T) is None
    assert is_cohomological(T)
    # fixed level of Q(i) under conjugation is Q: no nontrivial invariant gens
    assert all(name == "1" or "i" not in name for name, _ in T.fixed_gens)


def test_group_ring_z4():
    T = group_ring_involutive(4)
    assert validate_tambara(T) is None
    assert is_cohomological(T)
    labels = sorted(name for name, _ in T.fixed_gens)
    # invariants of g -> g^3 on Z[Z/4]: the 2-torsion element g^2 and the
    # trace class g + g^3
    assert any("g^2" == l for l in labels)
    assert any(l in ("g + g^3", "g^3 + g") for l in labels)


def test_burnside_tambara_not_cohomological():
    T = BurnsideTable()
    assert T.validate() is None
    # not cohomological: some generator has N(res x) != x^2
    label, got, want = T.cohomological_witness()
    assert label == "[C2]"
    # N(res t) = N(2) = (2, 1) while t^2 = (0, 2)
    assert got == (2, 1)
    assert want == (0, 2)


def test_norm_ring_monogenic():
    R = PolyRing(Z, ["x"])
    T = norm_ring(R)
    assert T.ring.names == ["x", "x_s"]
    assert validate_tambara(T) is None
    assert is_cohomological(T)


def test_norm_ring_unit_and_two_vars():
    R0 = PolyRing(Z, [])
    T0 = norm_ring(R0)
    assert T0.ring.n == 0
    assert validate_tambara(T0) is None
    R2 = PolyRing(Z, ["x", "y"])
    T2 = norm_ring(R2)
    assert T2.ring.names == ["x", "y", "x_s", "y_s"]
    assert validate_tambara(T2) is None


def test_norm_ring_rejects_quotients():
    from c2algebra.polyring import UnsupportedPresentation
    R = PolyRing(Z, ["x"], rules={0: (2, {})})
    with pytest.raises(UnsupportedPresentation):
        norm_ring(R)


def test_mackey_pieces_validate():
    T = free_involutive_free(Z)
    for w in range(0, 5):
        assert validate(mackey_piece(T, w)) is None, w
    S = free_involutive_trivial(Z, ["x"])
    for w in range(0, 5):
        assert validate(mackey_piece(S, w)) is None, w


def test_mackey_piece_shapes():
    # weight w of k[x, x_s]: floor((w+1)/2) free orbits plus a diagonal when even
    T = free_involutive_free(Z)
    for w in range(1, 6):
        M = mackey_piece(T, w)
        assert free_rank(M.underlying) == w + 1
        assert free_rank(M.fixed) == (w + 2) // 2


def test_graded_green_koszul_rule():
    assert koszul_norm_rule_holds(graded_norm({1: (2, [[0, 1], [1, 0]])}))
    assert koszul_norm_rule_holds(graded_norm({1: (1, [[1]]), 3: (1, [[-1]])}))


def test_sum_rule_and_frobenius_all_monomials_degree_8():
    T = free_involutive_free(Z, truncation=8)
    assert validate_tambara(T, sample_weight=8, pair_bound=None) is None
    S = free_involutive_trivial(Z, ["x"], truncation=8)
    assert validate_tambara(S, sample_weight=8, pair_bound=None) is None


def test_norm_ring_of_kx_is_free_involutive():
    # N^{C2} k[x] = k[x, x_s]: same underlying ring, swap, and norm data
    R = PolyRing(Z, ["x"])
    N = norm_ring(R)
    F = free_involutive_free(Z)
    assert N.ring.names == F.ring.names
    assert N.ring.equal(N.res_gen("x_N"), F.res_gen("x_N"))
    assert N.ring.equal(N.res_gen("t_x"), F.res_gen("t_1"))
    x = N.ring.var(0)
    assert N.ring.equal(N.norm(x), N.res_gen("x_N"))
