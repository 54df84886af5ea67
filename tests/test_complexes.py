"""Complexes of Mackey functors: homology, sign-sphere shifts, box products,
graded norms, regular-slice checks."""

from random import Random

from c2algebra.abelian import FgAbGroup
from c2algebra.chains import free_rank
from c2algebra.mackey import AbMap, Homology
from c2algebra.mackey_json import mackey_to_json, parse_complex
from c2algebra.mackey import (
    MackeyFunctor,
    MackeyMap,
    fixed_point_mackey,
    geometric_fixed_points,
    validate,
    zbar,
    zbar_c2,
    zero_mackey,
)
from c2algebra.complexes import (
    MackeyComplex,
    homology,
    is_regular_slice_coconnective,
    is_regular_slice_connective,
    phi_complex,
    sign_sphere,
    single,
    suspend_sigma,
)

from c2algebra import complexes
from oracles import (
    box_complex,
    burnside,
    diag_swap,
    dual_circle_complex,
    dual_map,
    fingerprint,
    graded_norm,
    isomorphic,
    random_involution,
    shift,
    zsign,
)
from hypothesis import example, given, settings, strategies as st


def mk(fixed_invs, und_invs, res, tr, sigma):
    F = FgAbGroup.from_invariants(fixed_invs)
    U = FgAbGroup.from_invariants(und_invs)
    return MackeyFunctor(F, U, AbMap(F, U, res), AbMap(U, F, tr), AbMap(U, U, sigma))


H0_SIGMA_SPHERE = mk([2], [], [], [], [])  # fixed Z/2, underlying 0


def test_homology_of_single_term():
    C = single(zbar())
    assert isomorphic(homology(C, 0), zbar())
    assert isomorphic(homology(C, 1), zero_mackey())
    assert isomorphic(homology(C, -1), zero_mackey())


def test_sigma_sphere_homology():
    C = sign_sphere(1)
    C.check()
    assert isomorphic(homology(C, 1), zsign())
    assert isomorphic(homology(C, 0), H0_SIGMA_SPHERE)


def test_dual_sigma_sphere_homology():
    # Sigma^{-sigma} zbar = Sigma^{-1} zsign: homology is zsign in degree -1 only
    C = sign_sphere(-1)
    C.check()
    assert isomorphic(homology(C, 0), zero_mackey())
    assert isomorphic(homology(C, -1), zsign())


def test_suspend_sigma_of_zbar_matches_cell_complex():
    C = suspend_sigma(zbar(), 1)
    assert isomorphic(homology(C, 1), zsign())
    assert isomorphic(homology(C, 0), H0_SIGMA_SPHERE)


def test_suspend_then_desuspend():
    # in both orders: the homology is M in degree 0 and zero elsewhere
    for M, k in ((zbar(), 1), (zbar_c2(), 1), (zsign(), 1), (zbar(), -1), (zbar_c2(), -1)):
        C = box_complex(suspend_sigma(M, k), sign_sphere(-k))
        for n in range(min(C.degrees()), max(C.degrees()) + 1):
            assert isomorphic(homology(C, n), M if n == 0 else zero_mackey()), (k, n)


def test_suspend_sigma_of_zsign():
    # Sigma^sigma zsign = Sigma^1 zbar
    C = suspend_sigma(zsign(), 1)
    assert isomorphic(homology(C, 1), zbar())
    assert isomorphic(homology(C, 0), zero_mackey())


def test_box_complex_unit():
    C = sign_sphere(1)
    D = box_complex(C, single(zbar()))
    for n in (0, 1):
        assert isomorphic(homology(D, n), homology(C, n))


def test_box_complex_two_sigma_spheres():
    D = box_complex(sign_sphere(1), sign_sphere(1))
    E = box_complex(suspend_sigma(zbar(), 1), sign_sphere(1))
    for n in range(-1, 4):
        assert fingerprint(homology(D, n)) == fingerprint(homology(E, n)), n


def test_box_complex_d_squared_zero():
    rng = Random(17)
    cells = [sign_sphere(1), sign_sphere(-1), single(zbar_c2()),
             single(zbar(), 1)]
    for _ in range(6):
        C = box_complex(rng.choice(cells), rng.choice(cells))
        C.check()


def test_dual_circle_complex():
    C = dual_circle_complex()
    C.check()
    assert isomorphic(homology(C, 0), zbar())
    assert isomorphic(homology(C, -1), zsign())


def test_euler_characteristic_preserved():
    rng = Random(23)
    cells = [sign_sphere(1), sign_sphere(-1), single(zbar_c2())]
    def euler(pieces):
        # (fixed, underlying) alternating rank sums
        return tuple(sum((-1 if n % 2 else 1) * free_rank(getattr(M, level)) for n, M in pieces)
                     for level in ("fixed", "underlying"))
    for _ in range(5):
        C = box_complex(rng.choice(cells), rng.choice(cells))
        degrees = range(min(C.degrees()), max(C.degrees()) + 1)
        assert euler([(n, C.term(n)) for n in C.degrees()]) == \
            euler([(n, homology(C, n)) for n in degrees])


def test_homology_outputs_validate():
    for C in (sign_sphere(1), sign_sphere(-1), dual_circle_complex()):
        for n in range(-2, 3):
            assert validate(homology(C, n)) is None


# -- regular slice checks -----------------------------------------------------

def sigma_sphere_model(n):
    """S^{n sigma} smash zbar as a complex, n any integer."""
    return suspend_sigma(zbar(), n)


def test_slice_connectivity_of_sigma_spheres():
    for n in (0, -1, -2):
        C = sigma_sphere_model(n)
        assert is_regular_slice_connective(C, n) is True, n
        assert is_regular_slice_connective(C, n + 1) is False, n


def test_slice_connectivity_deeper_negative_sigma_spheres():
    # the regular n-slice statement is for n <= 0: positive sign spheres
    # have pi_0 Phi = Z/2 and are only 0-connective on geometric fixed points
    for n in (-3, -4):
        C = sigma_sphere_model(n)
        assert is_regular_slice_connective(C, n) is True, n
        assert is_regular_slice_connective(C, n + 1) is False, n
    C1 = sigma_sphere_model(1)
    assert is_regular_slice_connective(C1, 0) is True
    assert is_regular_slice_connective(C1, 1) is False


def test_slice_connectivity_dual_sphere_example():
    C = sign_sphere(-1)
    assert is_regular_slice_connective(C, -1) is True
    assert is_regular_slice_connective(C, 0) is False


def test_regular_rho_sphere_is_2m_slice():
    # S^{m rho} = S^{m(1 + sigma)} is regular slice 2m-connective but not
    # (2m + 1)-connective
    for m in (1, -1):
        C = box_complex(shift(single(zbar()), m), sign_sphere(m))
        assert is_regular_slice_connective(C, 2 * m) is True, m
        assert is_regular_slice_connective(C, 2 * m + 1) is False, m


def test_slice_connectivity_zero_complex():
    Z = MackeyComplex({}, {})
    for n in (-3, 0, 5):
        assert is_regular_slice_connective(Z, n) is True


def test_coconnectivity():
    assert is_regular_slice_coconnective(single(zbar()), 0) == "passes-necessary-conditions"
    up = single(zbar(), 1)
    assert is_regular_slice_coconnective(up, 0) == "fails"
    C = sign_sphere(-1)
    assert is_regular_slice_coconnective(C, -1) == "passes-necessary-conditions"


def test_coconnectivity_computes_each_homology_once(monkeypatch):
    # degrees n + 1 .. 1 of S^{-6 sigma} at n = -6: one underlying homology
    # per degree, and one fixed homology per degree above floor(n/2) = -3.
    # Every differential the check reads is stored, so each has one identity.
    C = sign_sphere(-6)
    for m in range(-6, 3):
        C.diffs[m] = C.diff(m)
    level = {id(getattr(d, name)): (name, m) for m, d in C.diffs.items()
             for name in ("f_underlying", "f_fixed")}
    builds = []

    def counted(d_in, d_out):
        (name, k), read_in = level[id(d_out)], level[id(d_in)]
        assert read_in == (name, k + 1), (read_in, name, k)
        builds.append((name[2:], k))
        return Homology(d_in, d_out)

    monkeypatch.setattr(complexes, "Homology", counted)
    assert is_regular_slice_coconnective(C, -6) == "passes-necessary-conditions"
    assert builds == [("underlying", k) for k in range(-5, -2)] + \
        [(name, k) for k in range(-2, 2) for name in ("underlying", "fixed")]


def test_slice_checks_read_homology_groups_not_mackey_functors(monkeypatch):
    # neither check builds the Mackey functor H_k: on sign spheres and on
    # S^sigma written out as Zbar and ZbarC2 cells, where H_0(Phi) = Z/2
    # decides the verdict at n = 1 (the underlying H_0 is 0)
    def refused(C, n):
        raise AssertionError("a slice check built the Mackey functor H_%d" % n)

    monkeypatch.setattr(complexes, "homology", refused)
    explicit = parse_complex({"kind": "complex", "terms": {"1": ["ZbarC2"], "0": ["Zbar"]},
                              "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]}}})
    for k in range(-3, 4):
        C, n = sign_sphere(k), min(k, 0)
        assert is_regular_slice_connective(C, n) is True, k
        assert is_regular_slice_connective(C, n + 1) is False, k
    assert is_regular_slice_coconnective(sign_sphere(-1), -1) == "passes-necessary-conditions"
    assert is_regular_slice_coconnective(sign_sphere(1), 0) == "fails"
    assert is_regular_slice_connective(explicit, 0) is True
    assert is_regular_slice_connective(explicit, 1) is False
    assert is_regular_slice_coconnective(explicit, 0) == "fails"
    assert is_regular_slice_coconnective(explicit, -1) == "fails"


def test_phi_complex_consistency():
    # chain-level Phi commutes with homology on these free-term complexes
    C = sign_sphere(1)
    Z2 = FgAbGroup.from_invariants([2])
    phi = phi_complex(C)
    assert Homology(phi[1], phi[0]).group == Z2
    assert Homology(phi[2], phi[1]).group.is_trivial()
    assert geometric_fixed_points(homology(C, 0)) == Z2
    assert geometric_fixed_points(homology(C, 1)).is_trivial()


# -- the (|k| + 1)-cell sign sphere against the iterated box -------------------
# The one-cell S^{+-sigma} complexes and the k-fold box that modelled S^{k sigma}
# before sign_sphere, kept verbatim as the reference.

def plain_sigma_cell_complex():
    """Reduced cellular complex of S^sigma smashed with zbar."""
    top = zbar_c2()
    bottom = zbar()
    d = MackeyMap(top, bottom,
                  AbMap(top.fixed, bottom.fixed, [[2]]),
                  AbMap(top.underlying, bottom.underlying, [[1, 1]]))
    return MackeyComplex({1: top, 0: bottom}, {1: d})


def plain_sigma_cell_complex_dual():
    """Levelwise dual of the S^sigma cell complex: the S^{-sigma} model.

    Dualizing [zbar_c2 -> zbar] gives [zbar -> zbar_c2] in degrees 0, -1
    with underlying differential the diagonal and fixed differential the
    identity (the transpose restricted to invariant functionals).
    """
    C = plain_sigma_cell_complex()
    dd = dual_map(C.diffs[1])
    # transplant onto zbar / zbar_c2 themselves (same presentations)
    src, tgt = zbar(), zbar_c2()
    assert dd.source.underlying.ngens == src.underlying.ngens
    assert dd.target.underlying.ngens == tgt.underlying.ngens
    d = MackeyMap(src, tgt,
                  AbMap(src.fixed, tgt.fixed, dd.f_fixed.matrix),
                  AbMap(src.underlying, tgt.underlying, dd.f_underlying.matrix))
    return MackeyComplex({0: src, -1: tgt}, {0: d})


def plain_suspend_sigma(C, k):
    """Smash with S^{k sigma}; k < 0 uses the dual cell complex."""
    out = C
    cell = plain_sigma_cell_complex() if k >= 0 else plain_sigma_cell_complex_dual()
    for _ in range(abs(k)):
        out = box_complex(out, cell)
    return out


def functor_entries(M):
    """Every number of a Mackey functor: its two presented levels, then the
    matrices of res, tr and sigma."""
    return ((M.fixed.ngens, M.fixed.relations), (M.underlying.ngens, M.underlying.relations),
            M.res.matrix, M.tr.matrix, M.sigma.matrix)


def entries(C):
    """Every number of a complex, in its stored order."""
    return ([(n, functor_entries(M)) for n, M in C.terms.items()],
            [(n, functor_entries(d.source), functor_entries(d.target), d.f_fixed.matrix,
              d.f_underlying.matrix) for n, d in C.diffs.items()])


SIGN_SPHERE_KS = range(-5, 6)
PLAIN_SPHERES = {k: plain_suspend_sigma(single(zbar()), k) for k in SIGN_SPHERE_KS}
_HOMOLOGY = {}


def cached_homology(C, n):
    """homology(C, n), computed once per complex and degree: the iterated
    box of S^{5 sigma} has 243 underlying generators."""
    key = (id(C), n)
    if key not in _HOMOLOGY:
        _HOMOLOGY[key] = (C, homology(C, n))  # holding C keeps its id unique
    return _HOMOLOGY[key][1]


def fingerprints(C, lo, hi):
    return [fingerprint(cached_homology(C, n)) for n in range(lo, hi + 1)]


def test_sign_sphere_one_cell_cases_are_the_plain_cells():
    assert entries(sign_sphere(1)) == entries(plain_sigma_cell_complex())
    assert entries(sign_sphere(-1)) == entries(plain_sigma_cell_complex_dual())
    assert entries(sign_sphere(0)) == entries(single(zbar()))


def test_sign_sphere_has_k_plus_one_cells_and_is_a_complex():
    for k in SIGN_SPHERE_KS:
        C = sign_sphere(k)
        C.check()
        assert C.degrees() == list(range(min(k, 0), max(k, 0) + 1)), k
        free = functor_entries(zbar_c2())
        assert [functor_entries(C.term(n)) for n in C.degrees()].count(free) == abs(k), k


def test_sign_sphere_homology_matches_iterated_box():
    for k, plain in PLAIN_SPHERES.items():
        lo, hi = -abs(k) - 1, abs(k) + 1
        assert fingerprints(sign_sphere(k), lo, hi) == fingerprints(plain, lo, hi), k


def test_sign_sphere_slice_verdicts_match_iterated_box():
    for k, plain in PLAIN_SPHERES.items():
        C = sign_sphere(k)
        for n in range(-abs(k) - 1, abs(k) + 2):
            assert is_regular_slice_connective(C, n) == \
                is_regular_slice_connective(plain, n), (k, n)
        # n far below the lowest degree reads only the degrees of C
        for n in [*range(-abs(k) - 1, 1), -10 ** 9]:
            assert is_regular_slice_coconnective(C, n) == \
                is_regular_slice_coconnective(plain, n), (k, n)


def test_suspend_sigma_matches_iterated_box():
    for M in (zbar(), zbar_c2(), zsign()):
        for k in range(-3, 4):
            lo, hi = -abs(k) - 1, abs(k) + 1
            assert fingerprints(suspend_sigma(M, k), lo, hi) == \
                fingerprints(plain_suspend_sigma(single(M), k), lo, hi), (M, k)


def _fixed_point_functor(sig):
    G = FgAbGroup.free(len(sig))
    return fixed_point_mackey(G, AbMap(G, G, sig))


@st.composite
def fixed_point_functors(draw):
    """fixed_point_mackey of Z^n, n = 0..6, under any integral involution:
    a signed permutation of order at most 2 conjugated by elementary
    matrices (oracles.random_involution).  hr-gr's sigma is always a signed
    permutation (see differentials.exterior_power); the others reach
    relations that the Hermite form must store the same way whatever the
    route."""
    return _fixed_point_functor(random_involution(draw(st.randoms()), draw(st.integers(0, 6))))


@settings(max_examples=60, deadline=None)
@given(M=fixed_point_functors(), k=st.integers(-4, 4))
# an involution that is not a signed permutation: unless every presentation
# stores the Hermite form of its relations, H_3 prints another basis through
# box_complex
@example(M=_fixed_point_functor([[-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [-4, -4, 1, 4, 0],
                                 [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]]), k=3)
def test_suspend_sigma_is_the_box_with_the_sign_sphere(M, k):
    # the cell-by-cell terms are single box pieces; the reference sums each
    # into a one-piece direct_sum, which takes the HNF of its relations again
    want = single(M) if k == 0 else box_complex(single(M), sign_sphere(k))
    got = suspend_sigma(M, k)
    assert entries(got) == entries(want)
    for n in range(min(k, 0) - 1, max(k, 0) + 2):
        assert mackey_to_json(homology(got, n)) == mackey_to_json(homology(want, n)), n


# -- graded norm ---------------------------------------------------------------

def test_graded_norm_rank_one():
    B = {1: (1, [[1]])}
    N = graded_norm(B)
    assert N.piece(2).underlying.invariant_factors() == (0,)
    assert geometric_fixed_points(N.piece(2)).invariant_factors() == (0,)
    assert validate(N.piece(2)) is None


def test_graded_norm_empty():
    assert graded_norm({}).pieces == {}


def test_graded_norm_rank_two_swap_sigma():
    B = {1: (2, [[1, 0], [0, 1]])}
    N = graded_norm(B)
    piece = N.piece(2)
    assert piece.underlying.invariant_factors() == (0, 0, 0, 0)
    # sigma is the plain swap (a, b) -> (b, a) on the 4 tensor coordinates
    swap = [[0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a][a * 2 + b] = 1
    assert piece.sigma.matrix == swap
    assert geometric_fixed_points(piece).invariant_factors() == (0, 0)
    assert validate(piece) is None


def test_graded_norm_of_unit_weight_zero():
    B = {0: (1, [[1]])}
    N = graded_norm(B)
    # the norm of Z is the Burnside Mackey functor on the nose
    assert fingerprint(N.piece(0)) == fingerprint(burnside())
    assert geometric_fixed_points(N.piece(0)).invariant_factors() == (0,)
    assert validate(N.piece(0)) is None


def test_graded_norm_phi_concentration():
    B = {1: (1, [[1]]), 2: (1, [[1]])}
    N = graded_norm(B)
    for w in N.weights():
        phi = geometric_fixed_points(N.piece(w))
        if w % 2 == 0 and (w // 2) in B:
            assert phi.invariant_factors() == (0,) * B[w // 2][0], w
        else:
            assert phi.is_trivial(), w


def test_graded_norm_koszul_table():
    # free swap orbit in odd weight: the table records n(sigma v) = -n(v)
    B = {1: (2, [[0, 1], [1, 0]])}
    N = graded_norm(B)
    entries = N.norm_table[2]
    assert len(entries) == 2
    piece = N.piece(2)
    for e in entries:
        # companion = -(quadratic norm of sigma v); check through res:
        # res(companion) must equal -(Koszul swap of res(norm class))
        rv = piece.res(e.norm_class)
        rc = piece.res(e.sigma_companion)
        # B is concentrated in one weight, so the diagonal block is the
        # whole underlying level
        assert rc == [-x for x in diag_swap(rv, e)]


def test_graded_norm_twist_is_necessary():
    # with the untwisted Koszul sign the diagonal norm class would not be
    # sigma-invariant: check that sigma fixes res n(v) as built
    B = {1: (1, [[1]])}
    piece = graded_norm(B).piece(2)
    entry = graded_norm(B).norm_table[2][0]
    rv = piece.res(entry.norm_class)
    assert piece.sigma(rv) == rv
    # pure Koszul swap on the diagonal of an odd weight acts by -1: it would
    # send res n(v) to its negative, violating sigma o res = res
    assert [-x for x in rv] != rv
