"""Cotangent modules, involutive de Rham complexes, and the HKR
graded pieces: against the closed-form table of the two monogenic cases, and
against the bar complex for signed permutations of up to three variables."""

import io
import json
from itertools import combinations

from c2algebra.polyring import BaseRing, parse_poly
from c2algebra.tambara import free_involutive_free, free_involutive_trivial
from c2algebra.abelian import FgAbGroup, NotAComplex, diagonal_of, smith_normal_form
from c2algebra.chains import ChainComplex
from c2algebra.algebra_json import parse_algebra
from c2algebra.cli import run
from c2algebra.mackey import AbMap, mat_mul
from c2algebra.mackey_json import mackey_to_json
from c2algebra import complexes as cx
from c2algebra.complexes import homology
from c2algebra.differentials import (
    CotangentPresentation,
    DifferentialError,
    NotSmoothPresentation,
    de_rham_complex,
    exterior_power,
    hkr_graded_piece,
    hyperelliptic_presentation,
    presentation_of,
)
from c2algebra.mackey import fixed_point_mackey, induced, validate, zbar, zbar_c2
from c2algebra.trace import (
    DihedralComplex,
    InvolutiveAlgebra,
    dihedral_homology,
    hochschild_chains,
)
from oracles import (
    algebra_poly,
    box_complex,
    chain_homology,
    dense,
    fingerprint,
    free_rank,
    isomorphic,
    mackey_piece,
    shift,
    split_plus_minus,
    zsign,
)

import pytest
from hypothesis import assume, example, given, settings, strategies as st


Z = BaseRing("Z")
Q = BaseRing("Q")


def k_x(base=Z, names=("x",)):
    """k[names] with the trivial involution, as its RingInvolution."""
    return algebra_poly(base, list(names)).omega


def k_x_xs(base=Z):
    """k[x, x_s] with the swap, as its RingInvolution."""
    return algebra_poly(base, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}]).omega


def cotangent_piece(sigma, w):
    """L_w as a Mackey functor: the fixed points of Lambda^1 L at weight w,
    L the cotangent module of sigma's ring."""
    basis, sig = exterior_power(sigma, 1, w)
    G = FgAbGroup.free(len(basis))
    return fixed_point_mackey(G, AbMap(G, G, dense(sig, len(basis))))


def test_cotangent_trivial_generator():
    # L(k[x]) = (k[x], k[x]{dx})
    L = CotangentPresentation(presentation_of(k_x()))
    assert L.gen_names == ["dx"]
    assert not L.relation_images
    # sigma(dx) = dx
    assert L.sigma_on_gens[0] == {"dx": L.algebra.one_poly()}
    for w in range(1, 4):
        piece = cotangent_piece(k_x(), w)
        assert validate(piece) is None
        assert isomorphic(piece, zbar()), w


def test_cotangent_free_orbit():
    # L(k[x, x_s]) = (k[x, x_s], k[x, x_s] (x) C2 {dx, dx_s})
    L = CotangentPresentation(presentation_of(k_x_xs()))
    assert L.gen_names == ["dx", "dx_s"]
    assert not L.relation_images
    assert L.sigma_on_gens[0] == {"dx_s": L.algebra.one_poly()}
    assert L.sigma_on_gens[1] == {"dx": L.algebra.one_poly()}
    piece = cotangent_piece(k_x_xs(), 1)
    assert isomorphic(piece, zbar_c2())


def test_presentation_of_a_parsed_algebra():
    # a rule-free algebra is its own free presentation
    A = algebra_poly(Z, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])
    P = presentation_of(A.omega)
    assert P.free_ring is A.ring and P.quotient is A.ring and P.relations == []
    assert P.to_quotient == [A.ring.var(0), A.ring.var(1)]
    # y^2 = x^3 + 1 with y -> -y is the hyperelliptic presentation
    H = parse_algebra({"base": "Q", "gens": [{"name": "x"}, {"name": "y", "sigma": "-y"}],
                       "rels": ["y^2 - x^3 - 1"]})
    assert [name for name, _ in presentation_of(H).relations] == ["z", "w"]
    # other quotients have no presentation here
    with pytest.raises(DifferentialError):
        presentation_of(parse_algebra({"base": "Q", "gens": [{"name": "x"}],
                                       "rels": ["x^3"]}))


def test_hyperelliptic_cotangent():
    # f(x) = x^3 + 1, say: dw -> -y dy_s - y_s dy - f'(x) dx
    P = hyperelliptic_presentation([1, 0, 0, 1], Q)
    L = CotangentPresentation(P)
    assert L.gen_names == ["dy", "dy_s", "dx"]
    names = [n for n, _ in L.relation_images]
    assert names == ["dz", "dw"]
    A = L.algebra
    dz = dict(L.relation_images[0][1])
    assert A.equal(dz["dy"], A.one_poly())
    assert A.equal(dz["dy_s"], A.one_poly())
    assert "dx" not in dz
    dw = dict(L.relation_images[1][1])
    # coefficients in A = C[x, y]/(y^2 - f): y_s = -y
    assert A.equal(dw["dy_s"], A.neg(parse_poly(A, "y")))   # -y dy_s
    assert A.equal(dw["dy"], parse_poly(A, "y"))            # -y_s dy = +y dy
    assert A.equal(dw["dx"], A.neg(parse_poly(A, "3x^2")))  # -f'(x) dx


def test_hyperelliptic_reduced_presentation():
    # eliminating dy_s via dz gives the displayed underlying diagram:
    # A{dx, dy} / (2y dy - f'(x) dx)
    P = hyperelliptic_presentation([1, 0, 0, 1], Q)
    L = CotangentPresentation(P)
    gens, rels = L.reduced_presentation()
    assert gens == ["dy", "dx"]
    assert len(rels) == 1
    _, img = rels[0]
    A = L.algebra
    assert A.equal(img["dy"], parse_poly(A, "2y"))
    assert A.equal(img["dx"], A.neg(parse_poly(A, "3x^2")))


def test_hyperelliptic_other_polynomials():
    from fractions import Fraction
    from c2algebra.polyring import parse_poly
    # f = x^5 + 2x + 3: dw -> -y dy_s - y_s dy - (5x^4 + 2) dx
    P = hyperelliptic_presentation([3, 2, 0, 0, 0, 1], Q)
    L = CotangentPresentation(P)
    A = L.algebra
    dw = dict(L.relation_images[1][1])
    assert A.equal(dw["dx"], A.neg(parse_poly(A, "5x^4 + 2")))
    gens, rels = L.reduced_presentation()
    assert gens == ["dy", "dx"]
    # rational coefficients: f = x/2
    P2 = hyperelliptic_presentation([0, Fraction(1, 2)], Q)
    L2 = CotangentPresentation(P2)
    A2 = L2.algebra
    dw2 = dict(L2.relation_images[1][1])
    assert dw2["dx"] == {(0, 0): Fraction(-1, 2)}


def test_hyperelliptic_fixed_level_facts():
    # dx is invariant; y dy is invariant and congruent to f'(x) dx / 2
    P = hyperelliptic_presentation([1, 0, 0, 1], Q)
    L = CotangentPresentation(P)
    A = L.algebra
    # sigma(dy) = dy_s which reduces to -dy after eliminating dy_s
    assert L.sigma_on_gens[0] == {"dy_s": A.one_poly()}
    assert L.sigma_on_gens[2] == {"dx": A.one_poly()}
    # sigma_quotient(y) = -y, so sigma(y dy) = (-y)(-dy) = y dy
    assert A.equal(P.sigma_quotient(parse_poly(A, "y")), A.neg(parse_poly(A, "y")))


# -- de Rham -------------------------------------------------------------------

def dims(C, k_max):
    return [C.dims[-k] for k in range(0, k_max + 1)]


def twisted_sigma(sigma, k_max, w, twist=True):
    """sigma on Omega^k_w in chain degree -k, times (-1)^k when twist."""
    out = {}
    for k in range(0, k_max + 1):
        sig = exterior_power(sigma, k, w)[1]
        out[-k] = [{i: -x for i, x in col.items()} for col in sig] if twist and k % 2 else sig
    return out


def test_de_rham_trivial_generator():
    M = de_rham_complex(k_x(), 1, 6)
    assert sorted(M) == list(range(0, 7))
    # Omega^0 weight w: one monomial; Omega^1 weight w: x^{w-1} dx; Omega^2 = 0
    for w in range(0, 5):
        assert dims(M[w], 2) == [1, 1 if w >= 1 else 0, 0]
    # the natural sigma(dx) is dx for x -> x and -dx for x -> -x; the
    # (-1)^1 twist of the de Rham term makes the first -dx too
    assert exterior_power(k_x(), 1, 1)[1] == [{0: 1}]
    sign = algebra_poly(Z, ["x"], [{(1,): -1}]).omega
    assert exterior_power(sign, 1, 1)[1] == [{0: -1}]


def test_de_rham_constant():
    M = de_rham_complex(k_x(names=()), 3, 2)
    for w in range(0, 3):
        assert dims(M[w], 4)[1:] == [0, 0, 0, 0]


def test_de_rham_underlying_is_classical():
    # Leibniz rule d(x^w) = w x^{w-1} dx, degreewise
    M = de_rham_complex(k_x(), 1, 6)
    for w in range(1, 6):
        assert dense(M[w].mats[0], M[w].dims[-1]) == [[w]]
    # two variables: matches the classical de Rham complex of k[x, x_s]
    N = de_rham_complex(k_x_xs(), 2, 4)
    # d on weight 1: dx, dx_s both hit with coefficient 1
    assert dims(N[1], 1) == [2, 2]
    assert sorted(sum(row) for row in dense(N[1].mats[0], N[1].dims[-1])) == [1, 1]
    # d(x dx_s) = dx dx_s = -d(x_s dx) at weight 2
    assert sorted(dense(N[2].mats[-1], N[2].dims[-2])[0]) == [-1, 0, 0, 1]


def test_de_rham_antilinearity_through_weight_8():
    # d^2 = 0 and d sigma = -sigma d on every monomial block up to weight 8
    # for sigma twisted by (-1)^k; the natural sigma commutes with d instead
    for sigma in (k_x(), k_x_xs()):
        M = de_rham_complex(sigma, 2, 8)
        for w, C in M.items():
            assert not any(any(row) for n, d in C.mats.items() if n - 1 in C.mats
                           for row in mat_mul(dense(C.mats[n - 1], C.dims[n - 2]),
                                              dense(d, C.dims[n - 1])))
            assert C.check(twisted_sigma(sigma, 3, w), -1) is C
            assert C.check(twisted_sigma(sigma, 3, w, twist=False), 1) is C
        with pytest.raises(NotAComplex):
            M[2].check(twisted_sigma(sigma, 3, 2, twist=False), -1)


def test_de_rham_cohomology_poincare():
    # de Rham of Q[x]: H^0 = Q, H^1 = 0 (per weight: only weight 0 survives)
    M = de_rham_complex(k_x(Q), 1, 5)
    assert M[0].invariants(0) == (0,)
    for w in range(1, 5):
        assert M[w].invariants(0) == (), w
        assert M[w].invariants(-1) == (), w


def test_de_rham_cohomology_two_variables():
    # de Rham of Q[x, x_s]: H^0 = Q, H^1 = H^2 = 0
    M = de_rham_complex(k_x_xs(Q), 2, 4)
    assert M[0].invariants(0) == (0,)
    for w in range(1, 4):
        for n in (0, 1, 2):
            assert M[w].invariants(-n) == (), (n, w)


def test_de_rham_cohomology_of_a_zero_complex():
    # k has no weight-1 forms: every term and every group is 0
    C = de_rham_complex(k_x(names=()), 1, 1)[1]
    assert dims(C, 2) == [0, 0, 0]
    assert chain_homology(C, 0).group.is_trivial()
    assert chain_homology(ChainComplex({}, {}).check({}, 1), 0).group.is_trivial()


def test_de_rham_failures_name_the_weight_and_degree(monkeypatch):
    # a sigma that is not antilinear fails the check, named in the error
    import c2algebra.differentials as df
    natural = df.exterior_power

    def flipped(sigma, k, w):
        basis, sig = natural(sigma, k, w)
        return basis, [{i: -x for i, x in col.items()} for col in sig] if k == 1 else sig

    monkeypatch.setattr(df, "exterior_power", flipped)
    with pytest.raises(DifferentialError, match="at degree 0 weight 1"):
        de_rham_complex(k_x(), 1, 2)


def test_de_rham_rejects_non_smooth():
    P = hyperelliptic_presentation([1, 0, 0, 1], Q)
    with pytest.raises(NotSmoothPresentation):
        de_rham_complex(P.sigma_quotient, 1, 2)


# -- the HKR graded pieces against the closed-form table ---------------------

def closed_form_graded_pieces(kind, i, weight, trunc=8):
    """The weight block of gr^i HR for the two monogenic cases over Z.

    kind "trivial": gr^0 = the algebra, gr^1 = Sigma^sigma(the algebra),
    0 otherwise.
    kind "free":
        gr^0 = the algebra, gr^1 = Sigma^1(algebra (x) C2),
        gr^2 = Sigma^{sigma + 1}(algebra), 0 otherwise.

    Products with the resolution differentials vanish after base change
    along the augmentation, so each graded piece is the stated suspension
    with zero differential; the suspensions are built through
    complexes.suspend_sigma and oracles.shift.
    """
    if kind == "trivial":
        T = free_involutive_trivial(BaseRing("Z"), ["x"], truncation=trunc)
        if weight > trunc or weight < 0:
            return cx.MackeyComplex({}, {})
        if i == 0:
            return cx.single(mackey_piece(T, weight))
        if i == 1:
            if weight < 1:
                return cx.MackeyComplex({}, {})
            piece = mackey_piece(T, weight - 1)
            return cx.suspend_sigma(piece, 1)
        return cx.MackeyComplex({}, {})
    if kind == "free":
        T = free_involutive_free(BaseRing("Z"), truncation=trunc)
        if weight > trunc or weight < 0:
            return cx.MackeyComplex({}, {})
        if i == 0:
            return cx.single(mackey_piece(T, weight))
        if i == 1:
            if weight < 1:
                return cx.MackeyComplex({}, {})
            rank = len(T.ring.monomial_basis_weight(weight - 1))
            return cx.single(induced(FgAbGroup.free(rank)), 1)
        if i == 2:
            if weight < 2:
                return cx.MackeyComplex({}, {})
            piece = mackey_piece(T, weight - 2)
            return box_complex(shift(cx.single(piece), 1), cx.sign_sphere(1))
        return cx.MackeyComplex({}, {})
    raise ValueError(kind)


def monogenic_sigma(kind):
    return k_x() if kind == "trivial" else k_x_xs()


def check_hkr(kind, i_values=(0, 1, 2, 3, 4), weights=(0, 1, 2, 3, 4), trunc=8):
    """Compare the closed-form table against the computed pieces levelwise.

    Returns a report: list of (i, weight, degree, bool); overall agreement
    is all(entry[-1] for entry in report)."""
    sigma = monogenic_sigma(kind)
    report = []
    for i in i_values:
        for w in weights:
            lhs = closed_form_graded_pieces(kind, i, w, trunc)
            rhs = hkr_graded_piece(sigma, i, w)
            degrees = set()
            for C in (lhs, rhs):
                if C.terms:
                    degrees.update(range(min(C.degrees()), max(C.degrees()) + 1))
            if not degrees:
                report.append((i, w, None, True))
                continue
            for n in sorted(degrees):
                hl = homology(lhs, n) if lhs.terms else None
                hr = homology(rhs, n) if rhs.terms else None
                fl = fingerprint(hl) if hl is not None else None
                fr = fingerprint(hr) if hr is not None else None
                if fl is None:
                    ok = hr is None or all(g.is_trivial() for g in (hr.fixed, hr.underlying))
                elif fr is None:
                    ok = all(g.is_trivial() for g in (hl.fixed, hl.underlying))
                else:
                    ok = fl == fr
                report.append((i, w, n, ok))
    return report


def test_check_hkr_trivial_case():
    report = check_hkr("trivial", i_values=(0, 1, 2, 3, 4), weights=(0, 1, 2, 3, 4))
    assert all(entry[-1] for entry in report)


def test_check_hkr_free_case():
    report = check_hkr("free", i_values=(0, 1, 2, 3, 4), weights=(0, 1, 2, 3, 4))
    assert all(entry[-1] for entry in report)


def test_lsym_weight_piece_shapes():
    # i = 1 trivial weight w: Sigma^sigma zbar
    C = hkr_graded_piece(monogenic_sigma("trivial"), 1, 2)
    assert isomorphic(homology(C, 1), zsign())


def test_computed_pieces_match_the_closed_form_table():
    # equal homology in every degree through weight 8, and equal Lewis bytes
    # in every degree with nonzero homology; the induced module of the free
    # i = 1 piece is written in another basis
    for kind in ("trivial", "free"):
        report = check_hkr(kind, i_values=range(0, 5), weights=range(0, 9))
        assert all(entry[-1] for entry in report), kind
        sigma = monogenic_sigma(kind)
        for i in range(0, 5):
            if (kind, i) == ("free", 1):
                continue
            for w in range(0, 9):
                computed = hkr_graded_piece(sigma, i, w)
                table = closed_form_graded_pieces(kind, i, w)
                for n in computed.degrees():
                    H = homology(computed, n)
                    if H.fixed.is_trivial() and H.underlying.is_trivial():
                        continue
                    assert mackey_to_json(H) == mackey_to_json(homology(table, n)), \
                        (kind, i, w, n)


# -- the HKR graded pieces against two routes through the bar complex --------

ORBITS = {"trivial": [("%s", "%s")], "sign": [("%s", "-%s")],
          "free": [("%s", "%s_s"), ("%s_s", "%s")],
          "free-sign": [("%s", "-%s_s"), ("%s_s", "-%s")]}


@st.composite
def signed_permutations(draw, kinds=("free", "sign", "trivial")):
    """Generators (name, sigma image) of a signed permutation of at most
    three variables: each orbit one of the kinds of ORBITS (fixed, negated, a
    swapped pair, a pair swapped with a sign), with the generators in any
    order."""
    gens = []
    for k, orbit in enumerate(draw(st.lists(st.sampled_from(kinds),
                                            min_size=1, max_size=3))):
        gens += [(a % ("v%d" % k), b % ("v%d" % k)) for a, b in ORBITS[orbit]]
    assume(len(gens) <= 3)
    return draw(st.permutations(gens))


def assert_hkr_two_oracles(gens, w, degrees=range(0, 4)):
    """Over Z, the underlying ranks of H_n(gr^i) summed over i are the
    bar-complex HH_n; their fixed ranks are HH_n^+ over Z[1/2]."""
    names = [n for n, _ in gens]
    A = {b: InvolutiveAlgebra(parse_algebra({"base": b, "gens": [{"name": n, "sigma": s}
                                                                 for n, s in gens]}))
         for b in ("Z", "Z[1/2]")}
    underlying = {n: 0 for n in degrees}
    fixed = {n: 0 for n in degrees}
    for i in range(0, len(names) + 1):
        C = hkr_graded_piece(A["Z"].omega, i, w)
        for n in degrees:
            if n in C.terms:
                H = homology(C, n)
                underlying[n] += free_rank(H.underlying)
                fixed[n] += free_rank(H.fixed)
    bar = DihedralComplex(A["Z"], max(degrees) + 1, w)
    hh = hochschild_chains(bar)
    plus, _minus = split_plus_minus(DihedralComplex(A["Z[1/2]"], max(degrees) + 1, w))
    for n in degrees:
        assert underlying[n] == free_rank(chain_homology(hh, n).group), (gens, w, n)
        assert fixed[n] == free_rank(chain_homology(plus, n).group), (gens, w, n)


@settings(max_examples=25, deadline=None)
@given(gens=signed_permutations(), w=st.integers(0, 3))
def test_hkr_pieces_match_hh_and_hh_plus(gens, w):
    assert_hkr_two_oracles(gens, w)


def test_hkr_pieces_match_hh_and_hh_plus_three_generators_weight_4():
    assert_hkr_two_oracles([("y", "-y"), ("x", "x_s"), ("x_s", "x")], 4)


# -- dihedral homology against the de Rham complex ------------------------------

def _rank(M):
    """The rank of a dense integer matrix, from the diagonal of its Smith form."""
    return sum(1 for d in diagonal_of(smith_normal_form(M)[1]) if d)


@settings(max_examples=25, deadline=None)
@given(gens=signed_permutations(sorted(ORBITS)), w=st.integers(0, 4))
@example(gens=[("x", "x_s"), ("x_s", "x")], w=0)
def test_dihedral_homology_is_the_de_rham_cokernel_split_by_sigma(gens, w):
    # For a polynomial algebra over Q at weight w, HC_n is
    # coker(d: Omega^{n-1}_w -> Omega^n_w); HD_n is the part of it where the
    # natural sigma of exterior_power acts by (-1)^n, HD'_n the part where it
    # acts by -(-1)^n.  At weight 0, HC_n also carries H^0_dR = Q for each
    # even n >= 2, in HD_n when n = 0 mod 4 and in HD'_n when n = 2 mod 4:
    # the dihedral homology of the ground ring (Loday, Cyclic Homology,
    # ch. 5).  The bar complex (trace) against the de Rham builder
    # (differentials); degrees above w are empty.
    sigma = parse_algebra({"base": "Q", "gens": [{"name": n, "sigma": s} for n, s in gens]})
    C = de_rham_complex(sigma, 6, w)[w]
    D = dihedral_homology(sigma, 6, w)
    for n in range(0, 7):
        dim = C.dims[-n]
        S = dense(exterior_power(sigma, n, w)[1], dim)
        d = dense(C.mats[1 - n], dim) if n else []   # Omega^{n-1} -> Omega^n
        parts = []
        for eps in ((-1) ** n, -(-1) ** n):
            proj = [[(i == j) + eps * x for j, x in enumerate(row)] for i, row in enumerate(S)]
            parts.append(_rank(proj) - _rank(mat_mul(proj, d)))
        h0 = int(w == 0 and n >= 2 and n % 2 == 0)
        want = (dim - _rank(d) + h0, parts[0] + h0 * (n % 4 == 0), parts[1] + h0 * (n % 4 == 2))
        assert (D.hc[n], D.hd[n], D.hd_prime[n]) == want, (gens, w, n)


# -- derham over F_p against the Cartier isomorphism --------------------------

def _monomials(weights, w):
    """The number of monomials of weight w in generators of these weights."""
    if not weights:
        return int(w == 0)
    return sum(_monomials(weights[1:], w - k * weights[0]) for k in range(w // weights[0] + 1))


def _omega_dim(weights, i, w):
    """dim Omega^i at weight w of the polynomial ring on generators of these
    weights: the m dv_S with |S| = i and weight(m) + weight(S) = w."""
    return sum(_monomials(weights, w - sum(S)) for S in combinations(weights, i) if sum(S) <= w)


@settings(max_examples=50, deadline=None)
@given(gens=signed_permutations(sorted(ORBITS)),
       orbit_weights=st.tuples(*[st.integers(1, 3)] * 3),
       p=st.sampled_from([3, 5, 7]), imax=st.integers(0, 4))
def test_derham_over_f_p_is_the_cartier_count(gens, orbit_weights, p, imax):
    # Cartier: over F_p, H^i of the de Rham complex of F_p[x_1, ..., x_n] is
    # Omega^i of F_p[x_1^p, ..., x_n^p], whose weights are p times those of
    # the x_j; sigma does not change the cohomology.  The generators v<k>
    # and v<k>_s of orbit k share its weight, so sigma preserves weights.
    weights = [orbit_weights[int(n[1])] for n, _ in gens]
    algebra = {"base": "Z/%d" % p, "gens": [{"name": n, "sigma": s} for n, s in gens],
               "weights": {n: w for (n, _), w in zip(gens, weights)}}
    buf = io.StringIO()
    assert run(["derham", "--algebra", json.dumps(algebra), "--imax", str(imax),
                "--maxweight", "9", "--format", "json"], stdout=buf) == 0
    table = json.loads(buf.getvalue())["table"]
    assert sorted(table, key=int) == [str(w) for w in range(10)]
    for w in range(10):
        assert sorted(table[str(w)], key=int) == [str(i) for i in range(imax + 1)]
        for i in range(imax + 1):
            cartier = _omega_dim(weights, i, w // p) if w % p == 0 else 0
            assert table[str(w)][str(i)] == {"dim": _omega_dim(weights, i, w),
                                             "h": [p] * cartier}, (gens, p, w, i)
