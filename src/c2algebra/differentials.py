"""Involutive cotangent modules and de Rham complexes.

A presented involutive algebra (free involutive polynomial generators plus
sigma-stable relations) has a cotangent module

    L = coker( A{dr per relation} -> A{dv per generator} )

with the universal derivation acting by Leibniz expansion and sigma acting
semilinearly (sigma(dv) = d(sigma v)).  The cotangent command reads it
through presentation_of, its one route from a parsed algebra, the
RingInvolution of algebra_json.parse_algebra, to such a presentation: a
rule-free algebra presents itself, y^2 = f(x) with y -> -y is
hyperelliptic_presentation.  For a ring with involution the fixed-point
Tambara functor is always cohomological (N(res x) = x sigma(x) = x^2), so
nothing here needs Tambara data.

The associated de Rham complex is one chains.ChainComplex per weight: the
ranks of the free base-modules Omega^k, in chain degree -k, and the sparse
integer columns of d.  H^k is its homology at -k, whose invariant factors
over the base derham reads (ChainComplex.invariants).  The differential is
sigma-antilinear, d(sigma m) = -sigma(d m), which ChainComplex.check
verifies; cohomology does not depend on sigma.

derham and hr-gr read sigma itself and build no presentation: the
cotangent module L of a rule-free ring is free on the dv.  When sigma
permutes the generators up to sign (signed_permutation, which refuses a
ring with rules), exterior_power(sigma, i, w) builds Lambda^i L at one
weight with its natural sigma, as sparse columns.  It is the one builder of
both the de Rham terms (sigma twisted by (-1)^i) and the graded pieces of
real Hochschild homology, gr^i HR = Sigma^{i sigma} Lambda^i L
(hkr_graded_piece, the involutive HKR identification), whose fixed-point
Mackey functor takes sigma as a dense AbMap.

Only polyring loads with this module: de_rham_complex imports chains, and
hkr_graded_piece the Mackey layer, where they run (derham, hr-gr).
"""

from itertools import combinations

from . import EngineError, NotAComplex
from .polyring import PolyRing, RingInvolution, integer_lift


class DifferentialError(EngineError):
    pass


class NotSmoothPresentation(DifferentialError):
    pass


class InvolutivePresentation:
    """Free involutive polynomial ring with sigma-stable relations and an
    explicit rewrite-rule model of the quotient.

    free_ring: PolyRing without rules (the free involutive algebra),
    sigma_free: involution on it,
    relations: list of (name, polynomial) generating the ideal,
    quotient: PolyRing with rewrite rules presenting the quotient algebra,
    to_quotient: images of the free variables in the quotient,
    sigma_quotient: the induced involution on the quotient.

    The caller checks that sigma_free is an involution; parse_algebra
    does, and hyperelliptic_presentation builds one.  The relations are
    checked to be sigma-stable here.
    """

    def __init__(self, free_ring, sigma_free, relations, quotient, to_quotient,
                 sigma_quotient):
        self.free_ring = free_ring
        self.sigma = sigma_free
        self.relations = list(relations)
        self.quotient = quotient
        self.to_quotient = list(to_quotient)
        self._to_quotient = [[quotient.one_poly(), img] for img in self.to_quotient]
        self.sigma_quotient = sigma_quotient
        for rname, r in self.relations:
            img = sigma_free(r)
            if not any(free_ring.equal(img, r2) or free_ring.equal(img, free_ring.neg(r2))
                       for _, r2 in self.relations):
                raise DifferentialError("relation %s is not sigma-stable" % rname)

    def project(self, poly):
        """Image of a free-ring polynomial in the quotient."""
        return self.quotient.apply_map(poly, self._to_quotient)


def partial_derivative(ring, poly, j):
    out = {}
    for mono, c in poly.items():
        e = mono[j]
        if not e:
            continue
        m2 = list(mono)
        m2[j] -= 1
        m2 = tuple(m2)
        cc = ring.base.mul(c, e)
        out[m2] = ring.base.add(out.get(m2, ring.base.zero()), cc)
    return ring.normal_form(out)


class CotangentPresentation:
    """L = coker(A{d(relations)} -> A{d(generators)}) with semilinear sigma."""

    def __init__(self, presentation):
        P = presentation
        self.presentation = P
        A = P.quotient
        self.algebra = A
        self.gen_names = ["d" + n for n in P.free_ring.names]
        # relation differentials, Leibniz-expanded, coefficients pushed to A
        self.relation_images = []
        for rname, r in P.relations:
            img = {}
            for j in range(P.free_ring.n):
                coeff = P.project(partial_derivative(P.free_ring, r, j))
                if coeff:
                    img[self.gen_names[j]] = coeff
            self.relation_images.append(("d" + rname, img))
        # sigma on generators: sigma(dv) = d(sigma v)
        self.sigma_on_gens = []
        for i in range(P.free_ring.n):
            img = {}
            sv = P.sigma.images[i]
            for j in range(P.free_ring.n):
                coeff = P.project(partial_derivative(P.free_ring, sv, j))
                if coeff:
                    img[self.gen_names[j]] = coeff
            self.sigma_on_gens.append(img)

    def reduced_presentation(self):
        """Eliminate generators with a unit coefficient in some relation;
        returns (remaining generator names, remaining relation images)."""
        A = self.algebra
        gens = list(self.gen_names)
        rels = [(n, dict(img)) for n, img in self.relation_images]
        changed = True
        while changed:
            changed = False
            for k, (rname, img) in enumerate(rels):
                unit = None
                # prefer eliminating sigma-partner generators (d<v>_s)
                for g in sorted(img, key=lambda g: (not g.endswith("_s"), g)):
                    cc = A.normal_form(img[g])
                    if _is_unit_const(A, cc):
                        unit = (g, cc)
                        break
                if unit is None:
                    continue
                g, c = unit
                inv = _unit_inverse(A, c)
                # g = -inv * (img - c g): substitute into the other relations
                sub = {}
                for g2, c2 in img.items():
                    if g2 != g:
                        sub[g2] = A.scale(-1, A.mul(inv, c2))
                rels.pop(k)
                gens.remove(g)
                new_rels = []
                for rn, other in rels:
                    if g in other:
                        cg = other.pop(g)
                        for g2, c2 in sub.items():
                            add = A.mul(cg, c2)
                            other[g2] = A.add(other.get(g2, A.zero_poly()), add)
                    other = {k2: v for k2, v in other.items() if not A.is_zero(v)}
                    new_rels.append((rn, other))
                rels = new_rels
                changed = True
                break
        return gens, rels

    def sigma_string(self):
        A = self.algebra
        out = {}
        for name, img in zip(self.gen_names, self.sigma_on_gens):
            out[name] = " + ".join(
                "(%s)%s" % (A.poly_string(c), g) for g, c in sorted(img.items())) or "0"
        return out


def _is_unit_const(A, poly):
    if len(poly) != 1:
        return False
    (mono, c), = poly.items()
    return not any(mono) and A.base.is_unit(c)


def _unit_inverse(A, poly):
    (_mono, c), = poly.items()
    return A.const(A.base.inverse(c))


def hyperelliptic_presentation(f_coeffs, base):
    """k[x, y]/(y^2 - f(x)) over the BaseRing k = base, with y -> -y,
    presented involutively as k[y, y_s, x] / (y + y_s, -y y_s - f(x)); f
    given by its coefficient list [c0, c1, ...]."""
    free = PolyRing(base, ["y", "y_s", "x"])
    y, ys, x = free.var(0), free.var(1), free.var(2)
    sigma = RingInvolution(free, [ys, y, x])
    f_free = {}
    for k, c in enumerate(f_coeffs):
        if c:
            f_free[(0, 0, k)] = base.coerce(c)
    r_z = free.add(y, ys)
    r_w = free.sub(free.neg(free.mul(y, ys)), f_free)
    fq = {(0, k): base.coerce(c) for k, c in enumerate(f_coeffs) if c}
    quotient = PolyRing(base, ["y", "x"], rules={0: (2, fq)})
    to_q = [quotient.var(0), quotient.neg(quotient.var(0)), quotient.var(1)]
    sigma_q = RingInvolution(quotient, [quotient.neg(quotient.var(0)), quotient.var(1)])
    return InvolutivePresentation(free, sigma, [("z", r_z), ("w", r_w)],
                                  quotient, to_q, sigma_q)


def presentation_of(sigma):
    """The InvolutivePresentation of a parsed algebra, the RingInvolution
    sigma on its ring: a rule-free algebra is its own free presentation,
    y^2 = f(x) with y -> -y and x -> x is hyperelliptic_presentation;
    anything else raises DifferentialError."""
    ring = sigma.ring
    if not ring.rules:
        ident = [ring.var(i) for i in range(ring.n)]
        return InvolutivePresentation(ring, sigma, [], ring, ident, sigma)
    if ring.n == 2 and len(ring.rules) == 1:
        (iy, (p, repl)), = ring.rules.items()
        ix = 1 - iy
        if p == 2 and ring.equal(sigma.images[iy], ring.neg(ring.var(iy))) and \
                ring.equal(sigma.images[ix], ring.var(ix)) and \
                all(m[iy] == 0 for m in repl):
            coeffs = [0] * (max((m[ix] for m in repl), default=0) + 1)
            for m, c in repl.items():
                coeffs[m[ix]] = c
            return hyperelliptic_presentation(coeffs, ring.base)
    raise DifferentialError("cotangent supports free involutive presentations and "
                            "hyperelliptic quotients")


# ---------------------------------------------------------------------------
# exterior powers and de Rham complexes

def signed_permutation(sigma):
    """sigma on the variables of a rule-free ring as a signed permutation,
    read from RingInvolution.signed_permutation: perm[j] = (k, s) when
    sigma(v_j) = s v_k, s a unit, so that sigma(dv_j) = s dv_k on its free
    cotangent module.  Rules (the cotangent module has relations), or a
    sigma that is not such a permutation of variables of equal weights,
    raise NotSmoothPresentation."""
    ring = sigma.ring
    if ring.rules:
        raise NotSmoothPresentation("cotangent module has relations")
    perm = sigma.signed_permutation()
    for j, p in enumerate(perm):
        if p is None or ring.weights[p[0]] != ring.weights[j]:
            raise NotSmoothPresentation(
                "sigma(%s) = %s is not a signed permutation of the generators "
                "of equal weight" % (ring.names[j], ring.poly_string(sigma.images[j])))
    return perm


def exterior_power(sigma, i, w):
    """Lambda^i of the free cotangent module of sigma's ring at weight w:
    the basis of pairs (monomial m, increasing generator tuple S) standing
    for m dv_S, and the sparse columns of the natural semilinear sigma on it
    (sigma must be a signed permutation of the generators, see
    signed_permutation)."""
    perm = signed_permutation(sigma)
    A = sigma.ring
    basis = []
    for S in combinations(range(A.n), i) if i >= 0 else ():
        sw = sum(A.weights[k] for k in S)
        if sw <= w:
            basis.extend((m, S) for m in A.monomial_basis_weight(w - sw))
    index = {b: k for k, b in enumerate(basis)}
    sig = []
    for m, S in basis:
        S2, sgn = _sort_wedge(tuple(perm[v][0] for v in S))
        for v in S:
            sgn *= perm[v][1]
        # sigma(m) is a unit times one monomial
        sig.append({index[(m2, S2)]: sgn * integer_lift(c2)
                    for m2, c2 in sigma({m: A.base.one()}).items()})
    return basis, sig


def de_rham_complex(sigma, i_max, max_weight):
    """Involutive de Rham complex of sigma's rule-free ring, as one
    chains.ChainComplex over the base per weight w <= max_weight: the
    exterior power Omega^k_w of the cotangent module sits in chain degree -k
    for 0 <= k <= i_max + 1, so H^k = homology(-k) for k <= i_max.  The
    exterior derivative is sigma-antilinear for sigma on Omega^k twisted by
    (-1)^k, which is checked."""
    from .chains import ChainComplex
    A = sigma.ring
    complexes = {}
    for w in range(0, max_weight + 1):
        powers = [exterior_power(sigma, k, w) for k in range(0, i_max + 2)]
        mats = {}
        for k, (basis, _sig) in enumerate(powers[:-1]):
            tgt_index = {b: j for j, b in enumerate(powers[k + 1][0])}
            mats[-k] = []
            for m, S in basis:
                col = {}  # one term per j, each at its own wedge S + j
                for j in range(A.n):
                    if j in S:
                        continue
                    S2, sgn = _wedge_insert(S, j)
                    for m2, c2 in partial_derivative(A, {m: A.base.one()}, j).items():
                        col[tgt_index[(m2, S2)]] = sgn * integer_lift(c2)
                mats[-k].append(col)
        C = ChainComplex({-k: len(basis) for k, (basis, _) in enumerate(powers)}, mats,
                         A.base)
        twisted = {-k: [{r: -x for r, x in col.items()} for col in sig] if k % 2 else sig
                   for k, (_basis, sig) in enumerate(powers)}
        try:
            complexes[w] = C.check(twisted, -1)
        except NotAComplex as e:
            what, n = e.args
            raise DifferentialError("de Rham complex: %s at degree %d weight %d"
                                    % (what, -n, w))
    return complexes


def _wedge_insert(S, j):
    out = sorted(S + (j,))
    pos = out.index(j)
    return tuple(out), (-1 if pos % 2 else 1)


def _sort_wedge(S):
    """S sorted increasingly and the sign of the sorting permutation; S has
    no repeated entry (a permutation image of an increasing tuple)."""
    s = list(S)
    sign = 1
    for i in range(len(s)):
        for j in range(len(s) - 1 - i):
            if s[j] > s[j + 1]:
                s[j], s[j + 1] = s[j + 1], s[j]
                sign = -sign
    return tuple(s), sign


# ---------------------------------------------------------------------------
# the HKR graded pieces

def hkr_graded_piece(sigma, i, w):
    """gr^i of real Hochschild homology at weight w, through the involutive
    HKR identification: Sigma^{i sigma} of Lambda^i L_w with its natural
    sigma, for L the free cotangent module of sigma's rule-free ring (an
    empty complex when Lambda^i L_w is 0)."""
    from .abelian import FgAbGroup
    from .chains import dense_matrix
    from . import complexes as cx, mackey as mk
    basis, sig = exterior_power(sigma, i, w)
    if not basis:
        return cx.MackeyComplex({}, {})
    G = FgAbGroup.free(len(basis))
    sigma = mk.AbMap(G, G, dense_matrix(sig, len(basis)))
    return cx.suspend_sigma(mk.fixed_point_mackey(G, sigma), i)
