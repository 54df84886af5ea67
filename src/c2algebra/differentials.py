"""Involutive cotangent modules and de Rham complexes.

A presented involutive algebra (free involutive polynomial generators plus
sigma-stable relations) has a cotangent module

    L = coker( A{dr per relation} -> A{dv per generator} )

with the universal derivation acting by Leibniz expansion and sigma acting
semilinearly (sigma(dv) = d(sigma v)).  The associated de Rham complex is an
involutive cochain complex: the differential raises degree and is
sigma-antilinear, d(sigma m) = -sigma(d m).  sign_fix flips the involution
on odd degrees, making the differential strictly equivariant; cohomology of
an involutive complex is computed through sign_fix.
"""

from fractions import Fraction
from itertools import combinations

from .abelian import AbMap, FgAbGroup, Homology, chain_group, identity, mat_mul, zeros
from . import complexes as cx
from .mackey import fixed_point_mackey
from .polyring import (
    BaseRing,
    PolyRing,
    RingInvolution,
    UnsupportedPresentation,
    integer_lift,
)
from .tambara import TambaraPresentation
from .trace import hr_graded_pieces


class DifferentialError(Exception):
    pass


class NotCohomological(DifferentialError):
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
    """

    def __init__(self, free_ring, sigma_free, relations, quotient, to_quotient,
                 sigma_quotient, name=""):
        self.free_ring = free_ring
        self.sigma = sigma_free
        self.relations = list(relations)
        self.quotient = quotient
        self.to_quotient = list(to_quotient)
        self.sigma_quotient = sigma_quotient
        self.name = name
        if not sigma_free.is_involution():
            raise DifferentialError("sigma is not an involution")
        for rname, r in self.relations:
            img = sigma_free(r)
            if not any(free_ring.equal(img, r2) or free_ring.equal(img, free_ring.neg(r2))
                       for _, r2 in self.relations):
                raise DifferentialError("relation %s is not sigma-stable" % rname)

    def project(self, poly):
        """Image of a free-ring polynomial in the quotient."""
        out = self.quotient.zero_poly()
        for mono, c in poly.items():
            term = self.quotient.const(c)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = self.quotient.mul(term, self.to_quotient[i])
            out = self.quotient.add(out, term)
        return self.quotient.normal_form(out)

    @classmethod
    def from_tambara(cls, T):
        """Free involutive algebras (no ring rules) as presentations."""
        from .tambara import is_cohomological
        if T.mode != "subring" or not is_cohomological(T):
            raise NotCohomological("cotangent module needs a cohomological presentation")
        if T.ring.rules:
            raise UnsupportedPresentation(
                "wrap ruled rings in an explicit InvolutivePresentation")
        ring = T.ring
        free = PolyRing(ring.base, list(ring.names), weights=list(ring.weights))
        sigma = RingInvolution(free, [dict(img) for img in T.sigma.images])
        ident = [free.var(i) for i in range(free.n)]
        return cls(free, sigma, [], free, ident, sigma, name=T.name)


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

    def is_free(self):
        return not self.relation_images

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

    def mackey_piece(self, w):
        """Weight-w piece of L as a Mackey functor (graded presentations,
        integral structure constants): underlying = monomial x generator
        span modulo relation multiples, fixed = sigma-invariants."""
        A = self.algebra
        P = self.presentation
        gw = [P.free_ring.monomial_weight(
            tuple(1 if k == i else 0 for k in range(P.free_ring.n)))
            for i in range(P.free_ring.n)]
        basis = []
        for i, name in enumerate(self.gen_names):
            need = w - gw[i]
            if need < 0:
                continue
            for m in A.monomial_basis_weight(need):
                basis.append((m, i))
        index = {b: k for k, b in enumerate(basis)}
        n = len(basis)
        rels = []
        for rname, img in self.relation_images:
            # weight of the relation: uniform for homogeneous presentations
            for mw in range(0, w + 1):
                for m in A.monomial_basis_weight(mw):
                    row = [0] * n
                    hit = False
                    for g, c in img.items():
                        i = self.gen_names.index(g)
                        prod = A.mul({m: A.base.one()}, c)
                        for m2, c2 in prod.items():
                            key = (m2, i)
                            if key in index:
                                row[index[key]] += integer_lift(c2)
                                hit = True
                    if hit and any(row):
                        rels.append(row)
        sig = zeros(n, n)
        for (m, i), k in index.items():
            img_m = P.sigma_quotient({m: A.base.one()})
            for g, c in self.sigma_on_gens[i].items():
                j = self.gen_names.index(g)
                prod = A.mul(img_m, c)
                for m2, c2 in prod.items():
                    key = (m2, j)
                    if key in index:
                        sig[index[key]][k] += integer_lift(c2)
        G = FgAbGroup(n, rels)
        # fixed level = invariants: reuse the fixed-point construction when
        # the piece is relation-free, else quotient then invariants
        return fixed_point_mackey(G, AbMap(G, G, sig))


def _is_unit_const(A, poly):
    if len(poly) != 1:
        return False
    (mono, c), = poly.items()
    if any(mono):
        return False
    if isinstance(c, Fraction):
        return c != 0
    return c in (1, A.base.modulus - 1 if A.base.modulus else -1)


def _unit_inverse(A, poly):
    (mono, c), = poly.items()
    if isinstance(c, Fraction):
        return A.const(1 / c)
    return A.const(c)  # +-1 mod m is its own inverse only for +-1; fine here


def cotangent_module(B):
    """Cotangent module of a TambaraPresentation or InvolutivePresentation."""
    if isinstance(B, TambaraPresentation):
        B = InvolutivePresentation.from_tambara(B)
    return CotangentPresentation(B)


def hyperelliptic_presentation(f_coeffs):
    """C[x, y]/(y^2 - f(x)) with y -> -y, presented involutively as
    k[y, y_s, x] / (y + y_s, -y y_s - f(x)); f given by its coefficient list
    [c0, c1, ...]."""
    base = BaseRing("Q")
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
                                  quotient, to_q, sigma_q, name="hyperelliptic")


# ---------------------------------------------------------------------------
# involutive cochain complexes

class InvolutiveCochainComplex:
    """Weight-blocked cochain complex with involution: for each (degree n,
    weight w), a dimension, a sigma matrix, and d to (n+1, w).  The
    differential must be sigma-antilinear: d sigma = -sigma d.

    The terms are free modules over base (a BaseRing; None means Z), whose
    elements the integer matrices lift; cohomology is taken over that base."""

    def __init__(self, dims, sigmas, diffs, sign_fixed=False, base=None):
        self.dims = dict(dims)          # (n, w) -> int
        self.sigmas = dict(sigmas)      # (n, w) -> matrix
        self.diffs = dict(diffs)        # (n, w) -> matrix to (n+1, w)
        self.sign_fixed = sign_fixed
        self.base = base

    def degrees(self):
        return sorted({n for (n, _w) in self.dims})

    def weights(self):
        return sorted({w for (_n, w) in self.dims})

    def dim(self, n, w):
        return self.dims.get((n, w), 0)

    def check(self):
        """d^2 = 0 and d sigma = -/+ sigma d, compared in the base's chain
        groups (mod m over Z/m, where -1 is lifted as m - 1)."""
        for (n, w), d in self.diffs.items():
            if not d:
                continue
            C = {k: chain_group(self.dim(k, w), self.base) for k in (n, n + 1, n + 2)}
            d2 = self.diffs.get((n + 1, w))
            if d2 and not AbMap(C[n], C[n + 2], mat_mul(d2, d)).is_zero():
                raise DifferentialError("d^2 != 0 at degree %d weight %d" % (n, w))
            sig_src = self.sigmas.get((n, w))
            sig_tgt = self.sigmas.get((n + 1, w))
            if sig_src is None or sig_tgt is None:
                continue
            lhs = AbMap(C[n], C[n + 1], mat_mul(d, sig_src))
            rhs = AbMap(C[n], C[n + 1], mat_mul(sig_tgt, d))
            if not lhs.equals(rhs if self.sign_fixed else -rhs):
                kind = "equivariance" if self.sign_fixed else "antilinearity"
                raise DifferentialError("sigma %s fails at degree %d weight %d"
                                        % (kind, n, w))
        return self


def sign_fix(M):
    """Flip sigma on odd degrees; the differential becomes equivariant."""
    sigmas = {}
    for (n, w), s in M.sigmas.items():
        sigmas[(n, w)] = [[-x for x in row] for row in s] if n % 2 else s
    out = InvolutiveCochainComplex(M.dims, sigmas, M.diffs,
                                   sign_fixed=not M.sign_fixed, base=M.base)
    return out.check()


def inv_cochain_cohomology(M, n, w=0):
    """H^n of sign_fix(M) at weight w over the base of M, with the residual
    sigma action: returns (FgAbGroup, sigma matrix on its generators)."""
    F = sign_fix(M) if not M.sign_fixed else M
    Cm, Cn, Cp = (chain_group(F.dim(k, w), M.base) for k in (n - 1, n, n + 1))
    H = Homology(AbMap(Cm, Cn, F.diffs.get((n - 1, w)) or ()),
                 AbMap(Cn, Cp, F.diffs.get((n, w)) or ()), M.base)
    sig = AbMap(Cn, Cn, F.sigmas.get((n, w)) or identity(Cn.ngens))
    return H.group, H.induced(sig, H).matrix


# ---------------------------------------------------------------------------
# de Rham complexes

def de_rham_complex(B, i_max, max_weight=8):
    """Involutive de Rham complex of a smooth presentation: terms are the
    exterior powers of the cotangent module over the underlying algebra,
    sigma on Omega^i is (-1)^i times the natural semilinear action (so the
    exterior derivative is sigma-antilinear)."""
    L = cotangent_module(B)
    if not L.is_free():
        raise NotSmoothPresentation("cotangent module has relations")
    P = L.presentation
    A = L.algebra
    nvars = P.free_ring.n
    # sigma permutes the generators up to sign in the smooth cases we accept
    perm = []
    for i, img in enumerate(L.sigma_on_gens):
        if len(img) != 1:
            raise NotSmoothPresentation("sigma mixes cotangent generators")
        (gname, coeff), = img.items()
        c = A.normal_form(coeff)
        if not _is_unit_const(A, c):
            raise NotSmoothPresentation("sigma coefficient is not a unit")
        (mono, cval), = c.items()
        perm.append((L.gen_names.index(gname), integer_lift(cval)))
    gweights = [P.free_ring.monomial_weight(
        tuple(1 if k == i else 0 for k in range(nvars))) for i in range(nvars)]

    dims, sigmas, diffs = {}, {}, {}
    bases = {}
    for w in range(0, max_weight + 1):
        for n in range(0, i_max + 1):
            basis = []
            for S in combinations(range(nvars), n):
                sw = sum(gweights[i] for i in S)
                if sw > w:
                    continue
                for m in A.monomial_basis_weight(w - sw):
                    basis.append((m, S))
            bases[(n, w)] = basis
            dims[(n, w)] = len(basis)
    for w in range(0, max_weight + 1):
        for n in range(0, i_max + 1):
            basis = bases[(n, w)]
            index = {b: k for k, b in enumerate(basis)}
            d_mat = zeros(dims.get((n + 1, w), 0), len(basis))
            if n + 1 <= i_max:
                tgt_index = {b: k for k, b in enumerate(bases[(n + 1, w)])}
                for (m, S), k in index.items():
                    for j in range(nvars):
                        if j in S:
                            continue
                        dm = partial_derivative(A, {m: A.base.one()}, j)
                        if not dm:
                            continue
                        S2, sgn = _wedge_insert(S, j)
                        for m2, c2 in dm.items():
                            key = (m2, S2)
                            if key in tgt_index:
                                d_mat[tgt_index[key]][k] += sgn * integer_lift(c2)
                diffs[(n, w)] = d_mat
            sig = zeros(len(basis), len(basis))
            twist = -1 if n % 2 else 1
            for (m, S), k in index.items():
                img_m = P.sigma_quotient({m: A.base.one()})
                S2 = []
                sgn = twist
                for i in S:
                    S2.append(perm[i][0])
                    sgn *= perm[i][1]
                S2_sorted, order_sign = _sort_wedge(tuple(S2))
                if S2_sorted is None:
                    continue
                sgn *= order_sign
                for m2, c2 in img_m.items():
                    key = (m2, S2_sorted)
                    if key in index:
                        sig[index[key]][k] += sgn * integer_lift(c2)
            sigmas[(n, w)] = sig
    return InvolutiveCochainComplex(dims, sigmas, diffs, base=A.base).check()


def _wedge_insert(S, j):
    out = sorted(S + (j,))
    pos = out.index(j)
    return tuple(out), (-1 if pos % 2 else 1)


def _sort_wedge(S):
    s = list(S)
    sign = 1
    for i in range(len(s)):
        for j in range(len(s) - 1 - i):
            if s[j] > s[j + 1]:
                s[j], s[j + 1] = s[j + 1], s[j]
                sign = -sign
            elif s[j] == s[j + 1]:
                return None, 0
    return tuple(s), sign


# ---------------------------------------------------------------------------
# the HKR comparison

def lsym_weight_piece(kind, i, w, trunc=8):
    """Weight block of LSym^sigma(Sigma^sigma L(1)) in chain-level form:
    Sigma^{i sigma} applied to the i-th exterior power of the cotangent
    module with its semilinear signs."""
    from .tambara import free_involutive_free, free_involutive_trivial
    base = BaseRing("Z")
    if kind == "trivial":
        T = free_involutive_trivial(base, ["x"], truncation=trunc)
    elif kind == "free":
        T = free_involutive_free(base, truncation=trunc)
    else:
        raise DifferentialError("unknown monogenic case %r" % kind)
    L = cotangent_module(T)
    piece = _exterior_power_piece(L, i, w)
    if piece is None:
        return cx.MackeyComplex({}, {})
    C = cx.single(piece)
    for _ in range(i):
        C = cx.suspend_sigma(C, 1)
    return C


def _exterior_power_piece(L, i, w):
    """Lambda^i of the cotangent module, weight w, as a Mackey functor."""
    A = L.algebra
    P = L.presentation
    nvars = P.free_ring.n
    if i > nvars or w < i:
        return None
    gweights = [1] * nvars
    basis = []
    for S in combinations(range(nvars), i):
        sw = sum(gweights[k] for k in S)
        if sw > w:
            continue
        for m in A.monomial_basis_weight(w - sw):
            basis.append((m, S))
    if not basis:
        return None
    index = {b: k for k, b in enumerate(basis)}
    sig = zeros(len(basis), len(basis))
    for (m, S), k in index.items():
        img_m = P.sigma_quotient({m: A.base.one()})
        # sigma(dv) is a signed generator in the free cases
        S2 = []
        sgn = 1
        for v in S:
            img = L.sigma_on_gens[v]
            (gname, coeff), = img.items()
            S2.append(L.gen_names.index(gname))
            sgn *= integer_lift(A.normal_form(coeff)[(0,) * A.n])
        S2_sorted, order_sign = _sort_wedge(tuple(S2))
        if S2_sorted is None:
            continue
        sgn *= order_sign
        for m2, c2 in img_m.items():
            key = (m2, S2_sorted)
            if key in index:
                sig[index[key]][k] += sgn * integer_lift(c2)
    G = FgAbGroup.free(len(basis))
    return fixed_point_mackey(G, AbMap(G, G, sig))


def check_hkr(kind, i_values=(0, 1, 2, 3, 4), weights=(0, 1, 2, 3, 4), trunc=8):
    """Compare hr_graded_pieces against the de Rham side levelwise.

    Returns a report: list of (i, weight, degree, bool); overall agreement
    is all(entry[-1] for entry in report)."""
    from .mackey import fingerprint
    report = []
    for i in i_values:
        for w in weights:
            lhs = hr_graded_pieces(kind, i, w, trunc)
            rhs = lsym_weight_piece(kind, i, w, trunc)
            degrees = set()
            for C in (lhs, rhs):
                if C.terms:
                    degrees.update(range(min(C.degrees()), max(C.degrees()) + 1))
            if not degrees:
                report.append((i, w, None, True))
                continue
            for n in sorted(degrees):
                hl = cx.homology(lhs, n) if lhs.terms else None
                hr = cx.homology(rhs, n) if rhs.terms else None
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
