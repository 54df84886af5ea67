"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with -s to see the lines; every criterion is exact (no tolerances:
all arithmetic is integer/rational)."""

import io
import time
from random import Random

from c2algebra.abelian import FgAbGroup
from c2algebra.mackey import AbMap
from c2algebra import mackey as mk
from c2algebra import complexes as cx
from c2algebra import slices
from c2algebra import tambara as tb
from c2algebra import trace as tr
from c2algebra import differentials as df
from c2algebra.cli import run as cli_run
from c2algebra.polyring import BaseRing
from oracles import (
    _norm_of_vector,
    algebra_gaussian,
    algebra_ground,
    algebra_poly,
    algebra_q_dual_numbers,
    algebra_q_poly,
    box_complex,
    burnside,
    dense,
    diag_swap,
    direct_sum,
    dual_circle_complex,
    fingerprint,
    free_rank,
    graded_norm,
    hh_groups,
    hh_omega_fixed_dimension,
    hh_plus_minus_dimensions,
    is_regular_slice_connective,
    isomorphic,
    mackey_piece,
    random_involution,
    zsign,
)


def conclude(num, label, ok):
    print("criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


# -- criterion 1: Lewis axiom property suite ---------------------------------

def _random_valid_mackey(rng):
    kind = rng.randrange(5)
    if kind == 0:
        blocks = [mk.zbar, zsign, mk.zbar_c2, burnside]
        parts = [rng.choice(blocks)() for _ in range(rng.randint(1, 3))]
        return direct_sum(parts)
    if kind == 1:
        return mk.constant_mackey(FgAbGroup.from_invariants([rng.choice([2, 3, 4, 5, 6])]))
    if kind == 2:
        return mk.induced(FgAbGroup.from_invariants(
            [rng.choice([0, 2, 4, 6]) for _ in range(rng.randint(1, 2))]))
    if kind == 3:
        n = rng.randint(1, 3)
        sig = random_involution(rng, n)
        G = FgAbGroup.free(n)
        return mk.fixed_point_mackey(G, AbMap(G, G, sig))
    return mk.box(mk.zbar() if rng.random() < 0.5 else zsign(),
                  rng.choice([mk.zbar, mk.zbar_c2, burnside])())


def _mutate_sigma_squared(M):
    und = M.underlying
    if all(d in (1, 3) for d in und.invariant_factors()):
        return None
    bad = AbMap(und, und, [[2 * x for x in row] for row in M.sigma.matrix])
    return mk.MackeyFunctor(M.fixed, und, M.res, M.tr, bad)


def _mutate_sigma_res(M):
    if M.fixed.ngens == 0 or M.underlying.ngens == 0:
        return None
    und = M.underlying
    one = AbMap.identity_map(und)
    delta = one - M.sigma
    target = None
    for j in range(und.ngens):
        v = [0] * und.ngens
        v[j] = 1
        u = delta(v)
        if not und.contains_zero([2 * x for x in u]):
            target = u
            break
    if target is None:
        return None
    E = [[0] * M.fixed.ngens for _ in range(und.ngens)]
    for i in range(und.ngens):
        E[i][0] = target[i]
    bad = M.res + AbMap(M.fixed, und, E)
    if not bad.is_well_defined():
        return None
    return mk.MackeyFunctor(M.fixed, und, bad, M.tr, M.sigma)


def _mutate_tr_sigma(M):
    if M.fixed.ngens == 0 or M.underlying.ngens == 0:
        return None
    und, fx = M.underlying, M.fixed
    # F(u) = u_0 * f_0; mutation fails when (sigma u - u)_0 f_0 != 0 for some u
    ok = False
    for j in range(und.ngens):
        v = [0] * und.ngens
        v[j] = 1
        c = M.sigma(v)[0] - v[0]
        probe = [0] * fx.ngens
        probe[0] = c
        if not fx.contains_zero(probe):
            ok = True
            break
    if not ok:
        return None
    F = [[0] * und.ngens for _ in range(fx.ngens)]
    for j in range(und.ngens):
        F[0][j] = 1 if j == 0 else 0
    bad = M.tr + AbMap(und, fx, F)
    if not bad.is_well_defined():
        return None
    # adding u -> u_0 f_0 breaks tr o sigma = tr unless sigma fixes coordinate 0
    return mk.MackeyFunctor(M.fixed, und, M.res, bad, M.sigma)


def _mutate_double_coset(M):
    und = M.underlying
    one = AbMap.identity_map(und)
    two_plus = (one + M.sigma).scale(2)
    if two_plus.is_zero():
        return None
    bad = M.tr.scale(3)
    return mk.MackeyFunctor(M.fixed, und, M.res, bad, M.sigma)


MUTATIONS = [
    (_mutate_sigma_squared, mk.AXIOM_SIGMA_INVOLUTION),
    (_mutate_sigma_res, mk.AXIOM_SIGMA_RES),
    (_mutate_tr_sigma, mk.AXIOM_TR_SIGMA),
    (_mutate_double_coset, mk.AXIOM_DOUBLE_COSET),
]


def test_criterion_1_lewis_axiom_suite():
    t0 = time.monotonic()
    rng = Random(20260809)
    pool = [_random_valid_mackey(rng) for _ in range(500)]
    ok = all(mk.validate(M) is None for M in pool)
    hits = {axiom: 0 for _, axiom in MUTATIONS}
    want = 25
    for M in pool:
        for mutate, axiom in MUTATIONS:
            if hits[axiom] >= want:
                continue
            bad = mutate(M)
            if bad is None:
                continue
            v = mk.validate(bad)
            if v is None or v.axiom != axiom:
                ok = False
            hits[axiom] += 1
        if all(h >= want for h in hits.values()):
            break
    ok = ok and all(h >= want for h in hits.values())
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    conclude(1, "500 random Lewis diagrams validate; single-axiom mutations "
                "fail (%.2fs)" % elapsed, ok)


# -- criterion 2: Sigma^{-sigma} zbar = Sigma^{-1} zsign ----------------------

def test_criterion_2_negative_sign_sphere():
    C = box_complex(cx.sign_sphere(-1), cx.single(mk.zbar()))
    ok = isomorphic(cx.homology(C, -1), zsign())
    for n in (-3, -2, 0, 1):
        ok = ok and isomorphic(cx.homology(C, n), mk.zero_mackey())
    conclude(2, "homology of the dual sign-sphere complex is zsign in "
                "degree -1 exactly", ok)


# -- criterion 3: graded pieces of the dual filtered circle -------------------

def test_criterion_3_dual_circle():
    C = dual_circle_complex()
    ok = isomorphic(cx.homology(C, 0), mk.zbar())
    ok = ok and isomorphic(cx.homology(C, -1), zsign())
    conclude(3, "pi_0 = zbar and pi_-1 = zsign for the dual involutive "
                "circle complex", ok)


# -- criterion 4: regular slice checks ----------------------------------------

def test_criterion_4_regular_slices():
    # the checks of slices on the cells of S^{n sigma}, and the Mackey route
    # of the oracles on its model as a suspension of zbar
    ok = True
    for n in (0, -1, -2):
        for connective, C in ((slices.is_regular_slice_connective, slices.sign_sphere(n)),
                              (is_regular_slice_connective, cx.suspend_sigma(mk.zbar(), n))):
            ok = ok and connective(C, n) is True
            ok = ok and connective(C, n + 1) is False
    conclude(4, "S^{n sigma} models are regular slice n-connective, not "
                "(n+1)-connective, n in {0,-1,-2}", ok)


# -- criterion 5: free involutive algebra relations ---------------------------

def test_criterion_5_free_involutive_relations():
    T = tb.free_involutive_free(BaseRing("Z"), truncation=8)
    ring = T.ring
    ok = tb.validate_tambara(T) is None
    from c2algebra.polyring import parse_poly
    for i in range(1, 5):
        want = parse_poly(ring, "x^%d + x_s^%d" % (i, i))
        ok = ok and ring.equal(T.res_gen("t_%d" % i), want)
        for j in range(1, 5):
            ok = ok and tb.free_relation_holds(T, i, j)
    conclude(5, "t_i t_j = t_{i+j} + x_N^j t_{i-j} and res(t_i) = x^i + x_s^i "
                "for i, j <= 4 over Z", ok)


# -- criterion 6: cotangent tables --------------------------------------------

def _cotangent_piece(sigma, w):
    """L_w as a Mackey functor: the fixed points of Lambda^1 L at weight w,
    L the cotangent module of sigma's ring."""
    basis, sig = df.exterior_power(sigma, 1, w)
    G = FgAbGroup.free(len(basis))
    return mk.fixed_point_mackey(G, AbMap(G, G, dense(sig, len(basis))))


def test_criterion_6_cotangent_tables():
    ok = True
    Z = BaseRing("Z")
    # L(k[x]) = (k[x], k[x]{dx})
    X = algebra_poly(Z, ["x"]).omega
    L = df.CotangentPresentation(df.presentation_of(X))
    ok = ok and L.gen_names == ["dx"] and not L.relation_images
    ok = ok and L.sigma_on_gens[0] == {"dx": L.algebra.one_poly()}
    for w in range(1, 5):
        ok = ok and isomorphic(_cotangent_piece(X, w), mk.zbar())
    # L(k[x, x_s]) = (k[x, x_s], k[x, x_s] (x) C2)
    F = algebra_poly(Z, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])
    LF = df.CotangentPresentation(df.presentation_of(F.omega))
    ok = ok and LF.gen_names == ["dx", "dx_s"] and not LF.relation_images
    ok = ok and LF.sigma_on_gens[0] == {"dx_s": LF.algebra.one_poly()}
    for w in range(1, 5):
        want = mk.induced(FgAbGroup.free(w))
        ok = ok and isomorphic(_cotangent_piece(F.omega, w), want)
    # hyperelliptic: dw -> -y dy_s - y_s dy - f'(x) dx, underlying diagram
    # A{dx, dy}/(2y dy - f'(x) dx)
    P = df.hyperelliptic_presentation([1, 0, 0, 1], BaseRing("Q"))  # f = x^3 + 1
    LH = df.CotangentPresentation(P)
    A = LH.algebra
    from c2algebra.polyring import parse_poly
    dw = dict(LH.relation_images[1][1])
    ok = ok and A.equal(dw["dy_s"], A.neg(parse_poly(A, "y")))
    ok = ok and A.equal(dw["dy"], parse_poly(A, "y"))
    ok = ok and A.equal(dw["dx"], A.neg(parse_poly(A, "3x^2")))
    gens, rels = LH.reduced_presentation()
    ok = ok and gens == ["dy", "dx"] and len(rels) == 1
    img = rels[0][1]
    ok = ok and A.equal(img["dy"], parse_poly(A, "2y"))
    ok = ok and A.equal(img["dx"], A.neg(parse_poly(A, "3x^2")))
    conclude(6, "cotangent Lewis tables for k[x], k[x,x_s] and the "
                "hyperelliptic algebra (dw image exact)", ok)


# -- criterion 7: HR graded pieces --------------------------------------------

def _expected_trivial(i, w):
    if i == 0:
        return {0: fingerprint(mk.zbar())}
    if i == 1 and w >= 1:
        return {1: fingerprint(zsign()),
                0: fingerprint(_half_fixed())}
    return {}


def _half_fixed():
    # fixed Z/2, underlying 0
    F = FgAbGroup.from_invariants([2])
    U = FgAbGroup(0)
    return mk.MackeyFunctor(F, U, AbMap.zero_map(F, U), AbMap.zero_map(U, F),
                            AbMap.zero_map(U, U))


def _expected_free(i, w):
    T = tb.free_involutive_free(BaseRing("Z"))
    if i == 0:
        return {0: fingerprint(mackey_piece(T, w))}
    if i == 1 and w >= 1:
        return {1: fingerprint(mk.induced(FgAbGroup.free(w)))}
    if i == 2 and w >= 2:
        # Sigma^{sigma+1} of the weight (w-2) piece: the piece is a sum of
        # (w-1)//2 induced blocks plus one trivial block when w is even
        free_orbits = (w - 1) // 2
        trivials = 1 if w % 2 == 0 else 0
        out = {}
        parts2 = [mk.induced(FgAbGroup.free(1)) for _ in range(free_orbits)]
        parts2 += [zsign() for _ in range(trivials)]
        out[2] = fingerprint(direct_sum(parts2) if parts2 else mk.zero_mackey())
        if trivials:
            out[1] = fingerprint(direct_sum([_half_fixed()] * trivials))
        return out
    return {}


def test_criterion_7_hr_graded_pieces():
    t0 = time.monotonic()
    ok = True
    Z = BaseRing("Z")
    algebras = {"trivial": algebra_poly(Z, ["x"]),
                "free": algebra_poly(Z, ["x", "x_s"], [{(0, 1): 1}, {(1, 0): 1}])}
    for kind, expected_fn in (("trivial", _expected_trivial), ("free", _expected_free)):
        for i in range(0, 5):
            for w in range(0, 5):
                C = df.hkr_graded_piece(algebras[kind].omega, i, w)
                expected = expected_fn(i, w)
                degrees = set(expected)
                if C.terms:
                    degrees.update(range(min(C.degrees()), max(C.degrees()) + 1))
                for n in degrees:
                    H = cx.homology(C, n) if C.terms else None
                    got = fingerprint(H) if H is not None else None
                    want = expected.get(n)
                    if want is None:
                        ok = ok and (H is None or
                                     (H.fixed.is_trivial() and H.underlying.is_trivial()))
                    else:
                        ok = ok and got == want
    # underlying HKR consistency against the bar complex, degrees <= 4
    for kind in ("trivial", "free"):
        A = algebras[kind]
        for w in range(0, 5):
            got = {n: 0 for n in range(0, 5)}
            for i in range(0, 3):
                C = df.hkr_graded_piece(algebras[kind].omega, i, w)
                for n in range(0, 5):
                    if n in C.terms:
                        got[n] += free_rank(cx.homology(C, n).underlying)
            hh = hh_groups(tr.hochschild_blocks(A, 5, w), range(0, 5))
            for n in range(0, 5):
                ok = ok and got[n] == free_rank(hh[n])
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    conclude(7, "gr^i HR = Sigma^{i sigma} Lambda^i L matches the resolution tables "
                "and bar-complex HH at the underlying level (%.1fs)" % elapsed, ok)


# -- criterion 8: splitting when 2 is invertible -------------------------------

def test_criterion_8_half_splitting():
    ok = True
    cases = [
        (algebra_q_poly(), [0, 1, 2, 3]),
        (algebra_q_dual_numbers(), [None]),
        (algebra_gaussian(), [None]),
    ]
    for A, weights in cases:
        for w in weights:
            hh = hh_groups(tr.hochschild_blocks(A, 5, w), range(0, 5))
            for n in range(0, 5):
                # over Q the rank of HH_n is its dimension; pi_n HR^{C2} = HH_n^+
                p, m = hh_plus_minus_dimensions(A, n, weight=w)
                ok = ok and p + m == free_rank(hh[n])
                ok = ok and p == hh_omega_fixed_dimension(A, n, weight=w)
    conclude(8, "dim HH = dim HH^+ + dim HH^- and the two fixed-point routes "
                "agree for Q[x], Q[x]/x^2, C/R", ok)


# -- criterion 9: dihedral homology ---------------------------------------------

def test_criterion_9_dihedral():
    ok = True
    D = tr.dihedral_homology(algebra_ground().omega, 4)
    ok = ok and D.hc == [1, 0, 1, 0, 1]  # truncated-bicomplex oracle for Q
    for n in range(0, 5):
        ok = ok and D.hd[n] + D.hd_prime[n] == D.hc[n]
    A = algebra_q_poly()
    for w in range(0, 4):
        Dw = tr.dihedral_homology(A.omega, 4, weight=w)
        for n in range(0, 5):
            ok = ok and Dw.hd[n] + Dw.hd_prime[n] == Dw.hc[n]
    conclude(9, "HD + HD' = HC for Q and Q[x] up to degree 4; HC(Q) matches "
                "the bicomplex oracle", ok)


# -- criterion 10: Koszul norm sign ---------------------------------------------

def test_criterion_10_koszul_norm_sign():
    ok = True
    samples = [
        {1: (1, [[1]])},
        {1: (2, [[0, 1], [1, 0]])},
        {1: (1, [[-1]]), 3: (1, [[1]])},
        {1: (2, [[1, 0], [0, -1]]), 2: (1, [[1]])},
    ]
    checked = 0
    for B in samples:
        N = graded_norm(B)
        for w2, entries in N.norm_table.items():
            piece = N.piece(w2)
            for e in entries:
                if e.weight % 2 == 0:
                    continue
                rv = piece.res(e.norm_class)
                rc = piece.res(e.sigma_companion)
                ok = ok and rc == [-x for x in diag_swap(rv, e)]
                # the stored companion is minus the quadratic norm of sigma v
                raw = _quadratic_norm_of_sigma(B, e)
                ok = ok and e.sigma_companion == [-x for x in raw]
                checked += 1
    ok = ok and checked >= 6
    conclude(10, "n(a) = -n(sigma a) holds on all %d odd-weight norm entries"
                 % checked, ok)


def _quadratic_norm_of_sigma(B, entry):
    h = entry.weight
    rh, sh = B[h]
    offs = {(h, h): entry.block_offset}
    n_fixed = len(entry.norm_class)
    coeffs = [sh[b][entry.index] for b in range(rh)]
    return _norm_of_vector(B, h, coeffs, n_fixed, rh, offs)


# -- criterion 11: determinism ----------------------------------------------------

GOLDEN = [
    (["mackey-show", "--input",
      '{"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[2]], "sigma": [[1]]}',
      "--format", "json"],
     '{"fixed":[0],"res":[[1]],"sigma":[[1]],"tr":[[2]],"underlying":[0]}\n'),
    (["dihedral", "--algebra", '{"base": "Q", "gens": [], "rels": []}',
      "--nmax", "4", "--format", "json"],
     '{"hc":[1,0,1,0,1],"hd":[1,0,0,0,1],"hd_prime":[0,0,1,0,0]}\n'),
    (["slice-check", "--complex", '{"kind": "sigma-sphere", "k": -1}',
      "--n", "-1", "--format", "json"],
     '{"connective":true,"n":-1}\n'),
    (["phi", "--input",
      '{"fixed": [0], "underlying": [0], "res": [[1]], "tr": [[2]], "sigma": [[1]]}',
      "--format", "json"],
     '{"phi":[2]}\n'),
]


def test_criterion_11_determinism():
    ok = True
    for argv, want in GOLDEN:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli_run(argv, stdout=buf)
            ok = ok and code == 0
            outs.append(buf.getvalue())
        ok = ok and outs[0] == outs[1] == want
    conclude(11, "CLI golden outputs byte-stable across runs", ok)
