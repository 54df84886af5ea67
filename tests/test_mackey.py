"""Lewis diagrams: axioms, constructors, box product, duals, Phi, P^0."""

from random import Random

from c2algebra.abelian import FgAbGroup
from c2algebra.mackey import AbMap, tensor_groups
from c2algebra.mackey import (
    AXIOM_DOUBLE_COSET,
    AXIOM_SIGMA_INVOLUTION,
    AXIOM_SIGMA_RES,
    AXIOM_TR_SIGMA,
    MackeyFunctor,
    MackeyMap,
    NotInvolution,
    box,
    box_map,
    constant_mackey,
    fixed_point_mackey,
    geometric_fixed_points,
    induced,
    validate,
    zbar,
    zbar_c2,
    zero_mackey,
)
from oracles import (
    TorsionNotSupported,
    burnside,
    direct_sum,
    dual,
    dual_map,
    fingerprint,
    free_rank,
    is_mackey_map,
    isomorphic,
    random_involution,
    reference_box,
    reference_tensor_groups,
    zeroth_slice,
    zsign,
)

import pytest
from hypothesis import given, settings, strategies as st


Z4 = FgAbGroup.from_invariants([4])
STANDARD = {
    "zbar": zbar,
    "zsign": zsign,
    "zbar_c2": zbar_c2,
    "burnside": burnside,
    "zero": zero_mackey,
}


def test_standard_diagrams_validate():
    for name, mk in STANDARD.items():
        assert validate(mk()) is None, name


def test_constant_torsion_validates():
    assert validate(constant_mackey(FgAbGroup.from_invariants([5]))) is None


def test_validate_rejects_tr_times_three():
    M = zbar()
    bad = MackeyFunctor(M.fixed, M.underlying, M.res,
                        AbMap(M.underlying, M.fixed, [[3]]), M.sigma)
    v = validate(bad)
    assert v is not None and v.axiom == AXIOM_DOUBLE_COSET


def test_validate_reports_first_broken_axiom():
    # sigma not an involution
    G = FgAbGroup.free(2)
    M = induced(FgAbGroup.free(1))
    bad = MackeyFunctor(M.fixed, M.underlying, M.res, M.tr,
                        AbMap(G, G, [[1, 1], [0, 1]]))
    assert validate(bad).axiom == AXIOM_SIGMA_INVOLUTION
    # sigma res != res
    fp = fixed_point_mackey(FgAbGroup.free(2), AbMap(G, G, [[0, 1], [1, 0]]))
    bad2 = MackeyFunctor(fp.fixed, fp.underlying,
                         AbMap(fp.fixed, fp.underlying, [[1], [-1]]),
                         fp.tr, fp.sigma)
    assert validate(bad2).axiom == AXIOM_SIGMA_RES
    # tr sigma != tr
    M3 = zbar_c2()
    bad3 = MackeyFunctor(M3.fixed, M3.underlying, M3.res,
                         AbMap(M3.underlying, M3.fixed, [[1, -1]]), M3.sigma)
    assert validate(bad3).axiom == AXIOM_TR_SIGMA


def test_fixed_point_mackey_examples():
    G = FgAbGroup.free(1)
    triv = fixed_point_mackey(G, AbMap.identity_map(G))
    assert isomorphic(triv, zbar())
    neg = fixed_point_mackey(G, AbMap(G, G, [[-1]]))
    assert isomorphic(neg, zsign())
    # Z[i] with conjugation: fixed = Z, res = (1,0)
    G2 = FgAbGroup.free(2)
    conj = AbMap(G2, G2, [[1, 0], [0, -1]])
    gauss = fixed_point_mackey(G2, conj)
    assert gauss.fixed.invariant_factors() == (0,)
    assert gauss.underlying.invariant_factors() == (0, 0)
    img = gauss.res([1])
    assert img in ([1, 0], [-1, 0])
    assert validate(gauss) is None


def test_fixed_point_rejects_non_involution():
    G = FgAbGroup.free(1)
    with pytest.raises(NotInvolution):
        fixed_point_mackey(G, AbMap(G, G, [[2]]))


def test_induced_examples():
    M = induced(FgAbGroup.free(1))
    assert validate(M) is None
    assert M.fixed.invariant_factors() == (0,)
    assert M.underlying.invariant_factors() == (0, 0)
    assert induced(FgAbGroup(0)).underlying.is_trivial()
    assert validate(induced(FgAbGroup.from_invariants([2]))) is None


def test_burnside():
    A = burnside()
    assert free_rank(A.fixed) == 2
    assert validate(A) is None
    assert geometric_fixed_points(A).invariant_factors() == (0,)


def test_phi_examples():
    assert geometric_fixed_points(zbar()) == FgAbGroup.from_invariants([2])
    assert geometric_fixed_points(zbar_c2()).is_trivial()


def test_box_zbar_unit_on_zbar_modules():
    for mk in (zbar, zsign, zbar_c2):
        M = mk()
        assert isomorphic(box(M, zbar()), M), mk.__name__


def test_box_burnside_is_unit():
    for name, mk in STANDARD.items():
        M = mk()
        assert isomorphic(box(burnside(), M), M), name
        assert isomorphic(box(M, burnside()), M), name


def test_box_induced_square():
    got = box(zbar_c2(), zbar_c2())
    want = induced(FgAbGroup.free(2))
    assert isomorphic(got, want)


def test_box_commutative_associative_on_sample():
    rng = Random(11)
    pool = [zbar(), zsign(), zbar_c2(), burnside(), constant_mackey(Z4),
            induced(FgAbGroup.from_invariants([6])), constant_mackey(FgAbGroup(2, [[0, 3]]))]
    for _ in range(10):
        M, N = rng.choice(pool), rng.choice(pool)
        assert fingerprint(box(M, N)) == fingerprint(box(N, M))
    for _ in range(4):
        M, N, P = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert fingerprint(box(box(M, N), P)) == fingerprint(box(M, box(N, P)))


def test_box_outputs_validate():
    pool = [zbar(), zsign(), zbar_c2(), burnside(), constant_mackey(Z4)]
    for M in pool:
        for N in pool:
            assert validate(box(M, N)) is None


def test_box_projection_formula():
    # M box Ind(G) = Ind(M^e (x) G): the Frobenius reciprocity of box,
    # an independent constraint on the fixed-level presentation
    pool = [zbar(), zsign(), burnside(), constant_mackey(Z4), zbar_c2()]
    coeffs = [FgAbGroup.free(1), FgAbGroup.from_invariants([2]), FgAbGroup.from_invariants([0, 3])]
    for M in pool:
        for G in coeffs:
            lhs = box(M, induced(G))
            rhs = induced(tensor_groups(M.underlying, G))
            assert fingerprint(lhs) == fingerprint(rhs), (M, G)


def test_box_constant_torsion():
    two = constant_mackey(FgAbGroup.from_invariants([2]))
    assert isomorphic(box(two, two), two)
    assert isomorphic(box(two, zbar()), two)


def test_box_map_identity():
    M = zbar_c2()
    B = box(M, zbar())
    f = box_map(MackeyMap.identity_map(M), MackeyMap.identity_map(zbar()), B, B)
    assert is_mackey_map(f)


def _matrices(rows, cols):
    return st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


_GROUPS = st.one_of(
    st.lists(st.sampled_from([0, 0, 2, 3, 4, 6]), max_size=3).map(FgAbGroup.from_invariants),
    st.integers(0, 3).flatmap(lambda n: st.integers(0, 2).flatmap(
        lambda k: _matrices(k, n)).map(lambda R: FgAbGroup(n, R))))


@st.composite
def _diagrams(draw):
    """A Lewis diagram of any shape: 0-3 generators per level, torsion
    invariants or any relation rows, and integer res, tr and sigma of the
    right shapes.  The layout of a box product asks for no Lewis axiom."""
    fixed, und = draw(_GROUPS), draw(_GROUPS)
    res = draw(_matrices(und.ngens, fixed.ngens))
    tr = draw(_matrices(fixed.ngens, und.ngens))
    sigma = draw(_matrices(und.ngens, und.ngens))
    return MackeyFunctor(fixed, und, AbMap(fixed, und, res), AbMap(und, fixed, tr),
                         AbMap(und, und, sigma))


# The references write their relation rows in the order of their index
# loops, and reference_box takes the Hermite form of its fixed-level tensor
# block on its own first: equal stored relations say the route does not matter.

@settings(max_examples=200, deadline=None)
@given(_diagrams(), _diagrams())
def test_box_matches_the_reference_layout(M, N):
    got, want = box(M, N), reference_box(M, N)
    assert got.fixed.relations == want.fixed.relations
    for level in ("res", "tr", "sigma"):
        assert getattr(got, level).matrix == getattr(want, level).matrix, level


@settings(max_examples=200, deadline=None)
@given(_GROUPS, _GROUPS)
def test_tensor_groups_matches_the_reference_layout(G, H):
    got, want = tensor_groups(G, H), reference_tensor_groups(G, H)
    assert (got.ngens, got.relations) == (want.ngens, want.relations)


def test_dual_self_duals():
    assert isomorphic(dual(zbar()), zbar())
    assert isomorphic(dual(zbar_c2()), zbar_c2())
    assert isomorphic(dual(zsign()), zsign())


def test_dual_double_dual_on_reflexive_sample():
    rng = Random(5)
    for _ in range(10):
        n = rng.randint(1, 3)
        sig = random_involution(rng, n)
        G = FgAbGroup.free(n)
        M = fixed_point_mackey(G, AbMap(G, G, sig))
        assert isomorphic(dual(dual(M)), M)


def test_dual_rejects_torsion():
    with pytest.raises(TorsionNotSupported):
        dual(constant_mackey(FgAbGroup.from_invariants([2])))


def test_dual_map_transpose():
    f = MackeyMap(zbar(), zbar(),
                  AbMap(zbar().fixed, zbar().fixed, [[3]]),
                  AbMap(zbar().underlying, zbar().underlying, [[3]]))
    M = zbar()
    f = MackeyMap(M, M, AbMap(M.fixed, M.fixed, [[3]]),
                  AbMap(M.underlying, M.underlying, [[3]]))
    g = dual_map(f)
    assert is_mackey_map(g)
    assert g.f_underlying.matrix == [[3]]


def test_zeroth_slice_examples():
    P, q = zeroth_slice(zbar())
    assert isomorphic(P, zbar())
    # fixed Z, underlying 0
    zero = FgAbGroup(0)
    z = FgAbGroup.free(1)
    M = MackeyFunctor(z, zero, AbMap.zero_map(z, zero), AbMap.zero_map(zero, z),
                      AbMap.zero_map(zero, zero))
    assert validate(M) is None
    P2, _ = zeroth_slice(M)
    assert isomorphic(P2, zero_mackey())
    P3, _ = zeroth_slice(burnside())
    assert isomorphic(P3, zbar())


def test_zeroth_slice_res_injective_and_idempotent():
    rng = Random(3)
    pool = [zbar(), zsign(), zbar_c2(), burnside(), constant_mackey(Z4)]
    for _ in range(12):
        M = box(rng.choice(pool), rng.choice(pool))
        P, q = zeroth_slice(M)
        assert validate(P) is None
        from c2algebra.mackey import kernel
        assert kernel(P.res)[0].is_trivial()
        PP, _ = zeroth_slice(P)
        assert fingerprint(PP) == fingerprint(P)
        assert is_mackey_map(q)


def test_phi_monoidal_on_sample():
    pool = [zbar(), zbar_c2(), burnside(), zsign()]
    for M in pool:
        for N in pool:
            lhs = geometric_fixed_points(box(M, N))
            rhs = tensor_groups(geometric_fixed_points(M), geometric_fixed_points(N))
            assert lhs.invariant_factors() == rhs.invariant_factors(), (M, N)


def test_fingerprint_separates_standard_family():
    zzero = zero_mackey()
    z2triv = constant_mackey(FgAbGroup.from_invariants([2]))
    fam = [zbar(), zsign(), zbar_c2(), burnside(), zzero, z2triv,
           direct_sum([zbar(), zsign()]),
           MackeyFunctor(zbar().fixed, zbar().underlying,
                         AbMap(zbar().fixed, zbar().underlying, [[2]]),
                         AbMap(zbar().underlying, zbar().fixed, [[1]]),
                         zbar().sigma)]
    # last entry: the transpose-of-zbar diagram; must be distinguished from zbar
    prints = [fingerprint(M) for M in fam]
    assert len(set(prints)) == len(prints)


def test_random_fixed_point_functors_validate():
    rng = Random(99)
    for _ in range(30):
        n = rng.randint(1, 4)
        sig = random_involution(rng, n)
        G = FgAbGroup.free(n)
        M = fixed_point_mackey(G, AbMap(G, G, sig))
        assert validate(M) is None
