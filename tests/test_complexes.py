"""Complexes of Mackey functors: homology, sign-sphere shifts, box products,
graded norms, regular-slice checks."""

from random import Random

from c2algebra.abelian import FgAbGroup
from c2algebra.mackey import AbMap, Homology
from c2algebra.mackey_json import mackey_to_json
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
    sign_sphere,
    single,
    suspend_sigma,
)

from c2algebra import DomainError, EngineError, complexes, slices
from c2algebra.chains import ChainComplex
from c2algebra.slices import UNDERLYING, CellComplex, parse_complex
from oracles import (
    box_complex,
    burnside,
    check_complex,
    diag_swap,
    dual_circle_complex,
    dual_map,
    fingerprint,
    free_rank,
    graded_norm,
    is_regular_slice_coconnective,
    is_regular_slice_connective,
    isomorphic,
    mackey_complex,
    phi_complex,
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
    check_complex(C)
    assert isomorphic(homology(C, 1), zsign())
    assert isomorphic(homology(C, 0), H0_SIGMA_SPHERE)


def test_dual_sigma_sphere_homology():
    # Sigma^{-sigma} zbar = Sigma^{-1} zsign: homology is zsign in degree -1 only
    C = sign_sphere(-1)
    check_complex(C)
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
        check_complex(C)


def test_dual_circle_complex():
    C = dual_circle_complex()
    check_complex(C)
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
# slices reads complexes of cells; the Mackey route of oracles reads Mackey
# complexes such as the box products below, and is the reference of slices.

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
    C = slices.sign_sphere(-1)
    assert slices.is_regular_slice_connective(C, -1) is True
    assert slices.is_regular_slice_connective(C, 0) is False


def test_regular_rho_sphere_is_2m_slice():
    # S^{m rho} = S^{m(1 + sigma)} is regular slice 2m-connective but not
    # (2m + 1)-connective
    for m in (1, -1):
        C = box_complex(shift(single(zbar()), m), sign_sphere(m))
        assert is_regular_slice_connective(C, 2 * m) is True, m
        assert is_regular_slice_connective(C, 2 * m + 1) is False, m


def test_slice_connectivity_zero_complex():
    Z = CellComplex({}, {})
    for n in (-3, 0, 5):
        assert slices.is_regular_slice_connective(Z, n) is True


def test_coconnectivity():
    cocon = slices.is_regular_slice_coconnective
    assert cocon(CellComplex({0: ("Zbar",)}, {}), 0) == "passes-necessary-conditions"
    assert cocon(CellComplex({1: ("Zbar",)}, {}), 0) == "fails"
    assert cocon(slices.sign_sphere(-1), -1) == "passes-necessary-conditions"


def test_coconnectivity_computes_each_homology_once(monkeypatch):
    # degrees n + 1 .. 1 of S^{-6 sigma} at n = -6: one underlying homology
    # per degree, and one fixed homology per degree above floor(n/2) = -3.
    # The underlying level has rank 2 in degree -1, the fixed level rank 1.
    builds = []
    invariants = ChainComplex.invariants

    def counted(self, k):
        builds.append(("underlying" if self.dims[-1] == 2 else "fixed", k))
        return invariants(self, k)

    monkeypatch.setattr(ChainComplex, "invariants", counted)
    C = slices.sign_sphere(-6)
    assert slices.is_regular_slice_coconnective(C, -6) == "passes-necessary-conditions"
    assert builds == [("underlying", k) for k in range(-5, -2)] + \
        [(name, k) for k in range(-2, 2) for name in ("underlying", "fixed")]


def test_slice_checks_read_homology_groups_not_mackey_functors(monkeypatch):
    # neither check builds a Mackey functor: on sign spheres and on S^sigma
    # written out as Zbar and ZbarC2 cells, where H_0(Phi) = Z/2 decides the
    # verdict at n = 1 (the underlying H_0 is 0)
    from c2algebra import mackey

    def refused(*args):
        raise AssertionError("a slice check built a Mackey functor")

    monkeypatch.setattr(mackey.MackeyFunctor, "__init__", refused)
    explicit = parse_complex({"kind": "complex", "terms": {"1": ["ZbarC2"], "0": ["Zbar"]},
                              "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]}}})
    connective, coconnective = slices.is_regular_slice_connective, \
        slices.is_regular_slice_coconnective
    for k in range(-3, 4):
        C, n = slices.sign_sphere(k), min(k, 0)
        assert connective(C, n) is True, k
        assert connective(C, n + 1) is False, k
    assert coconnective(slices.sign_sphere(-1), -1) == "passes-necessary-conditions"
    assert coconnective(slices.sign_sphere(1), 0) == "fails"
    assert connective(explicit, 0) is True
    assert connective(explicit, 1) is False
    assert coconnective(explicit, 0) == "fails"
    assert coconnective(explicit, -1) == "fails"


def test_connective_check_reads_phi_only_in_the_degrees_it_checks(monkeypatch):
    # H_k(Phi C) is read for k < ceil(n/2) once the underlying degrees pass,
    # and the rank of each Phi boundary once: none for S^{40 sigma} at
    # n = 0, degrees -40..-21 for S^{-40 sigma} at n = -40
    read, ranked = [], []
    phi_homology, divisors = CellComplex.phi_homology, slices.elementary_divisors
    monkeypatch.setattr(CellComplex, "phi_homology",
                        lambda self, k: read.append(k) or phi_homology(self, k))
    monkeypatch.setattr(slices, "elementary_divisors",
                        lambda block: ranked.append(block) or divisors(block))
    assert slices.is_regular_slice_connective(slices.sign_sphere(40), 0) is True
    assert (read, ranked) == ([], [])
    assert slices.is_regular_slice_connective(slices.sign_sphere(-40), -40) is True
    assert read == list(range(-40, -20))
    assert len(ranked) == 21  # Phi d_k for k = -40..-20


def test_phi_complex_consistency():
    # chain-level Phi commutes with homology on these free-term complexes
    C = sign_sphere(1)
    Z2 = FgAbGroup.from_invariants([2])
    phi = phi_complex(C)
    assert Homology(phi[1], phi[0]).group == Z2
    assert Homology(phi[2], phi[1]).group.is_trivial()
    assert geometric_fixed_points(homology(C, 0)) == Z2
    assert geometric_fixed_points(homology(C, 1)).is_trivial()


# the maps between two cells, in the parameters a, b: (fixed entry,
# underlying block), the hom spaces of Mackey functors between the cells
CELL_MAPS = {
    ("Zbar", "Zbar"): lambda a, b: (a, [[a]]),
    ("ZbarC2", "Zbar"): lambda a, b: (2 * b, [[b, b]]),
    ("Zbar", "ZbarC2"): lambda a, b: (b, [[b], [b]]),
    ("ZbarC2", "ZbarC2"): lambda a, b: (a + b, [[a, b], [b, a]]),
}
CELL_NAMES = st.lists(st.sampled_from(["Zbar", "ZbarC2"]), max_size=3)


def _cell_map(source, target, blocks):
    """The (fixed, underlying) matrices of the map from the sum of cells
    source to target whose block from cell j to cell i is blocks[i, j], an
    (entry, block) pair; missing blocks are 0."""
    def offsets(cells):
        return [sum(UNDERLYING[c] for c in cells[:i]) for i in range(len(cells) + 1)]
    rows, cols = offsets(target), offsets(source)
    F = [[0] * len(source) for _ in target]
    U = [[0] * cols[-1] for _ in range(rows[-1])]
    for (i, j), (a, block) in blocks.items():
        F[i][j] = a
        for r, row in enumerate(block):
            U[rows[i] + r][cols[j]:cols[j] + len(row)] = row
    return F, U


PARAMETERS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _random_map(draw, source, target, rows=None, cols=None):
    """A Mackey map from the sum of cells source to target, its blocks drawn
    from CELL_MAPS, zero outside the target cells rows and source cells
    cols (all by default)."""
    rows = range(len(target)) if rows is None else rows
    cols = range(len(source)) if cols is None else cols
    return _cell_map(source, target, {(i, j): CELL_MAPS[source[j], target[i]](
        *draw(PARAMETERS)) for i in rows for j in cols})


def _matmul(A, B, ncols):
    return [[sum(a * row[j] for a, row in zip(r, B)) for j in range(ncols)] for r in A]


@st.composite
def cell_complexes(draw):
    """Complexes of 2 or 3 terms of Zbar and ZbarC2 cells, lowest degree
    -3..1, with valid differentials.  Three terms: d_top into the upper
    cells of the middle term and d_bottom out of its lower ones, so they
    compose to 0, then the middle term changed by automorphisms 1 + c E, E
    a map from one of its cells to another, so that E o E = 0."""
    lo = draw(st.integers(-3, 1))
    if draw(st.booleans()):
        top, bottom = draw(CELL_NAMES), draw(CELL_NAMES)
        return CellComplex({lo + 1: tuple(top), lo: tuple(bottom)},
                           {lo + 1: draw(_random_map(top, bottom))})
    top, upper, lower, bottom = (draw(CELL_NAMES) for _ in range(4))
    middle = upper + lower
    d_top = draw(_random_map(top, middle, rows=range(len(upper))))
    d_bottom = draw(_random_map(middle, bottom, cols=range(len(upper), len(middle))))
    for _ in range(draw(st.integers(0, 3)) if len(middle) > 1 else 0):
        i, j = draw(st.permutations(range(len(middle))))[:2]
        c, (a, block) = draw(st.integers(-2, 2)), CELL_MAPS[middle[j], middle[i]](
            *draw(PARAMETERS))
        one = {(m, m): CELL_MAPS[t, t](1, 0) for m, t in enumerate(middle)}
        g, g_inv = (_cell_map(middle, middle, {**one, (i, j): (
            s * a, [[s * x for x in r] for r in block])}) for s in (c, -c))
        d_top = tuple(_matmul(m, d, len(d[0])) for m, d in zip(g, d_top))
        d_bottom = tuple(_matmul(d, m, len(m)) for d, m in zip(d_bottom, g_inv))
    return CellComplex({lo + 2: tuple(top), lo + 1: tuple(middle), lo: tuple(bottom)},
                       {lo + 2: d_top, lo + 1: d_bottom})


def _verdicts(connective, coconnective, C):
    """Both checks at every n in -10..6: each verdict or the message refused."""
    out = []
    for n in range(-10, 7):
        out.append(connective(C, n))
        try:
            out.append(coconnective(C, n))
        except EngineError as e:
            out.append(str(e))
    return out


# three Zbar cells on three, joined by a matrix of determinant 2: Phi d has
# rank 2 over F_2, one less than its rank
DET_2 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-8, 8).map(slices.sign_sphere), cell_complexes()))
@example(parse_complex({"kind": "complex", "terms": {"1": ["ZbarC2"], "0": ["Zbar"]},
                        "diffs": {"1": {"fixed": [[2]], "underlying": [[1, 1]]}}}))
@example(CellComplex({1: ("Zbar",) * 3, 0: ("Zbar",) * 3}, {1: (DET_2, DET_2)}))
def test_slice_checks_match_the_mackey_route(C):
    # the verdicts, and the homology of each level read by slices against
    # the Homology of the Mackey complex of the same cells
    M = check_complex(mackey_complex(C))
    assert _verdicts(slices.is_regular_slice_connective, slices.is_regular_slice_coconnective,
                     C) == _verdicts(is_regular_slice_connective,
                                     is_regular_slice_coconnective, M)
    degs, phi = C.degrees(), phi_complex(M)
    for which, name in enumerate(("f_fixed", "f_underlying")):
        level = C.level(which)
        for k in range(degs[0] - 1, degs[-1] + 2):
            H = Homology(getattr(M.diff(k + 1), name), getattr(M.diff(k), name))
            assert level.invariants(k) == H.group.invariant_factors(), (name, k)
    for k in degs:
        assert C.phi_homology(k) == len(Homology(phi[k + 1], phi[k]).group.invariant_factors())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_complex_reader_refuses_as_the_mackey_route(data):
    # two differentials between three terms, each block a Mackey map or
    # random entries: the reader's refusal is the Mackey route's, message
    # and order of the degrees in "diffs" included
    cells = [data.draw(CELL_NAMES) for _ in range(3)]
    diffs = {}
    for n in data.draw(st.permutations([1, 2])):
        src, tgt = cells[n], cells[n - 1]
        F, U = data.draw(_random_map(src, tgt))
        if data.draw(st.booleans()):
            F = [[x + data.draw(st.integers(-1, 1)) for x in r] for r in F]
            U = [[x + data.draw(st.integers(-1, 1)) for x in r] for r in U]
        diffs[n] = (F, U)
    json_complex = {"kind": "complex", "terms": {str(n): c for n, c in enumerate(cells)},
                    "diffs": {str(n): {"fixed": F, "underlying": U}
                              for n, (F, U) in diffs.items()}}
    try:
        got = parse_complex(json_complex)
    except DomainError as e:
        got = str(e)
    try:
        want = check_complex(mackey_complex(CellComplex(
            {n: tuple(c) for n, c in enumerate(cells)}, diffs)))
    except complexes.NotAComplex as e:
        want = str(e)
    assert (got if isinstance(got, str) else None) == (want if isinstance(want, str) else None)


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
        check_complex(C)
        assert C.degrees() == list(range(min(k, 0), max(k, 0) + 1)), k
        free = functor_entries(zbar_c2())
        assert [functor_entries(C.term(n)) for n in C.degrees()].count(free) == abs(k), k


def test_sign_sphere_homology_matches_iterated_box():
    for k, plain in PLAIN_SPHERES.items():
        lo, hi = -abs(k) - 1, abs(k) + 1
        assert fingerprints(sign_sphere(k), lo, hi) == fingerprints(plain, lo, hi), k


def test_sign_sphere_slice_verdicts_match_iterated_box():
    # the cells of slices against the Mackey route on the iterated box
    for k, plain in PLAIN_SPHERES.items():
        C = slices.sign_sphere(k)
        for n in range(-abs(k) - 1, abs(k) + 2):
            assert slices.is_regular_slice_connective(C, n) == \
                is_regular_slice_connective(plain, n), (k, n)
        # n far below the lowest degree reads only the degrees of C
        for n in [*range(-abs(k) - 1, 1), -10 ** 9]:
            assert slices.is_regular_slice_coconnective(C, n) == \
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
