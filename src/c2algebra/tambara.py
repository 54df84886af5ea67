"""Green and Tambara structure on Mackey functors.

A TambaraPresentation is a presented commutative ring with involution
together with its fixed level and norm data.  Two storage modes:

  * "subring": the fixed level is the strict invariant subring of the
    underlying level, res is the inclusion, tr = 1 + sigma and
    N(a) = a * sigma(a).  All cohomological examples live here and all
    computation happens in the underlying polynomial ring (res-injective
    normal forms).

  * "table": an explicit finite fixed-level algebra with res and norm
    tables.  Used for the Burnside Tambara functor, whose restriction is
    not injective and whose norm is not squaring.
"""

from .abelian import AbMap, FgAbGroup
from .polyring import (
    BaseRing,
    PolyRing,
    RingInvolution,
    UnsupportedPresentation,
    integer_lift,
)


DEFAULT_TRUNCATION = 8


class TambaraError(Exception):
    pass


class TambaraViolation:
    def __init__(self, identity, witness=""):
        self.identity = identity
        self.witness = witness

    def __repr__(self):
        return "TambaraViolation(%s%s)" % (self.identity,
                                           ": " + self.witness if self.witness else "")


class TambaraPresentation:
    def __init__(self, base, ring, sigma, fixed_gens, truncation, mode="subring",
                 table=None, name=""):
        self.base = base
        self.ring = ring
        self.sigma = sigma
        self.fixed_gens = list(fixed_gens)  # (name, res-image polynomial)
        self.truncation = truncation
        self.mode = mode
        self.table = table
        self.name = name

    # underlying-level structure maps
    def tr(self, a):
        return self.ring.add(a, self.sigma(a))

    def norm(self, a):
        return self.ring.mul(a, self.sigma(a))

    def res_gen(self, name):
        for gname, img in self.fixed_gens:
            if gname == name:
                return img
        raise TambaraError("no fixed generator named %r" % name)

    def __repr__(self):
        return "TambaraPresentation(%s)" % (self.name or self.ring.names)


class BurnsideTable:
    """Fixed level Z{1, t}, t = [C2]: t^2 = 2t, res(1) = 1, res(t) = 2,
    tr(m) = m t, N(m) = m + (m^2 - m)/2 t."""

    basis = ("[C2/C2]", "[C2]")

    def mult(self, u, v):
        a0, a1 = u
        b0, b1 = v
        return (a0 * b0, a0 * b1 + a1 * b0 + 2 * a1 * b1)

    def res(self, u):
        return u[0] + 2 * u[1]

    def tr(self, m):
        return (0, m)

    def norm(self, m):
        return (m, (m * m - m) // 2)


def burnside_tambara():
    base = BaseRing("Z")
    ring = PolyRing(base, [])
    sigma = RingInvolution.identity(ring)
    return TambaraPresentation(base, ring, sigma,
                               [("[C2/C2]", None), ("[C2]", None)],
                               DEFAULT_TRUNCATION, mode="table",
                               table=BurnsideTable(), name="Burnside")


# ---------------------------------------------------------------------------
# validation

def _sample_elements(T, max_weight):
    """Monomials of the underlying ring up to the sampling bound."""
    ring = T.ring
    out = []
    if ring.n == 0:
        return [ring.one_poly()]
    if ring.is_finite_dimensional():
        for m in ring.monomial_basis_all():
            out.append(ring.normal_form({m: ring.base.one()}))
        return [p for p in out if p]
    for w in range(0, max_weight + 1):
        for m in ring.monomial_basis_weight(w):
            out.append({m: ring.base.one()})
    return out


def validate_tambara(T, sample_weight=None, pair_bound=12):
    """None if all Tambara identities hold on generators up to truncation,
    else the first TambaraViolation.  pair_bound caps the monomial pairs
    sampled for the bilinear identities (None = exhaustive)."""
    if T.mode == "table":
        return _validate_table(T)
    ring = T.ring
    sig = T.sigma
    if not sig.is_involution():
        return TambaraViolation("sigma_involution")
    if not sig.preserves_rules():
        return TambaraViolation("sigma_stable_relations")
    # res images of fixed generators must be sigma-invariant (this is
    # Frobenius reciprocity in res-faithful form)
    for name, img in T.fixed_gens:
        if img is not None and not ring.equal(sig(img), img):
            return TambaraViolation("frobenius", "res(%s) is not sigma-invariant" % name)
    bound = sample_weight if sample_weight is not None else min(T.truncation, 4)
    sample = _sample_elements(T, bound)
    small = sample if pair_bound is None else sample[:pair_bound]
    for a in small:
        for b in small:
            # Tambara sum rule N(a+b) = N(a) + N(b) + tr(a sigma(b))
            lhs = T.norm(ring.add(a, b))
            rhs = ring.add(ring.add(T.norm(a), T.norm(b)), T.tr(ring.mul(a, sig(b))))
            if not ring.equal(lhs, rhs):
                return TambaraViolation("norm_sum_rule",
                                        "a=%s b=%s" % (ring.poly_string(a), ring.poly_string(b)))
            # multiplicativity
            if not ring.equal(T.norm(ring.mul(a, b)), ring.mul(T.norm(a), T.norm(b))):
                return TambaraViolation("norm_multiplicative",
                                        "a=%s b=%s" % (ring.poly_string(a), ring.poly_string(b)))
            # Frobenius: tr(a) x = tr(a res(x)) for x in the res image
            x = sig(b) if not ring.equal(sig(b), b) else b
            x = ring.add(x, sig(x))  # any invariant element is a res image here
            if not ring.equal(ring.mul(T.tr(a), x), T.tr(ring.mul(a, x))):
                return TambaraViolation("frobenius",
                                        "a=%s x=%s" % (ring.poly_string(a), ring.poly_string(x)))
        # Weyl invariance of the norm
        if not ring.equal(T.norm(sig(a)), T.norm(a)):
            return TambaraViolation("norm_weyl_invariance", ring.poly_string(a))
    return None


def _validate_table(T):
    tab = T.table
    for m in range(-3, 4):
        for k in range(-3, 4):
            if tab.norm(m * k) != tab.mult(tab.norm(m), tab.norm(k)):
                return TambaraViolation("norm_multiplicative", "m=%d k=%d" % (m, k))
            lhs = tab.norm(m + k)
            s = tab.norm(m)
            t = tab.norm(k)
            tr_part = tab.tr(m * k)
            rhs = (s[0] + t[0] + tr_part[0], s[1] + t[1] + tr_part[1])
            if lhs != rhs:
                return TambaraViolation("norm_sum_rule", "m=%d k=%d" % (m, k))
    return None


def is_cohomological(T):
    """N(res x) = x^2 for all fixed-level generators.

    Assumes validate_tambara(T) is None: the generator check suffices by
    multiplicativity and the sum rule, which that validation samples."""
    if T.mode == "table":
        tab = T.table
        # generators 1 = (1,0) and t = (0,1)
        for x in ((1, 0), (0, 1)):
            if tab.norm(tab.res(x)) != tab.mult(x, x):
                return False
        return True
    ring = T.ring
    for name, img in T.fixed_gens:
        if img is None:
            continue
        if not ring.equal(T.norm(img), ring.mul(img, img)):
            return False
    return True


def cohomological_witness(T):
    """For table mode: the first generator where N(res x) != x^2."""
    if T.mode != "table":
        return None
    tab = T.table
    for label, x in zip(tab.basis, ((1, 0), (0, 1))):
        if tab.norm(tab.res(x)) != tab.mult(x, x):
            return (label, tab.norm(tab.res(x)), tab.mult(x, x))
    return None


# ---------------------------------------------------------------------------
# constructors

def fixed_point_green(ring, sigma, truncation=DEFAULT_TRUNCATION, name=""):
    """Strict fixed points of the involution: res = inclusion, tr = 1 + sigma,
    N(a) = a sigma(a).  Fixed generators are an invariant basis computed
    degreewise (finite rings) or weightwise up to the truncation."""
    if not sigma.is_involution():
        raise TambaraError("sigma is not an involution")
    if not sigma.preserves_rules():
        raise TambaraError("relations are not sigma-stable")
    gens = []
    for label, img in _invariant_basis(ring, sigma, truncation):
        gens.append((label, img))
    return TambaraPresentation(ring.base, ring, sigma, gens, truncation, name=name)


def _invariant_basis(ring, sigma, truncation):
    """Basis of the invariant subring as (label, polynomial), skipping 1."""
    if ring.n == 0:
        return []
    if ring.is_finite_dimensional():
        monos = ring.monomial_basis_all()
        return _invariants_of_span(ring, sigma, monos)
    out = []
    for w in range(1, truncation + 1):
        monos = ring.monomial_basis_weight(w)
        out.extend(_invariants_of_span(ring, sigma, monos))
    return out


def _invariants_of_span(ring, sigma, monos):
    if not monos:
        return []
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    rows = []
    for j, m in enumerate(monos):
        img = sigma({m: ring.base.one()})
        col = [0] * n
        for m2, c in img.items():
            if m2 not in index:
                continue  # truncated away
            col[index[m2]] = c
        rows.append(col)
    # matrix of sigma - 1 acting on the span (columns indexed by monos)
    mat = [[integer_lift(rows[j][i]) - (1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    from .abelian import integer_kernel
    basis = integer_kernel(mat, n)
    out = []
    for vec in basis:
        poly = {}
        for j, c in enumerate(vec):
            if c:
                poly[monos[j]] = ring.base.coerce(c)
        label = ring.poly_string(poly)
        if label == "1":
            continue
        out.append((label, ring.normal_form(poly)))
    return out


def free_involutive_trivial(base, names, truncation=DEFAULT_TRUNCATION):
    """Free involutive algebra on a trivial C2-set: both levels k[names],
    res = id, tr = x2, N(res x) = x^2."""
    ring = PolyRing(base, list(names), trunc=truncation)
    sigma = RingInvolution.identity(ring)
    gens = [(n, ring.var_named(n)) for n in names]
    return TambaraPresentation(base, ring, sigma, gens, truncation,
                               name="free-trivial")


def free_involutive_free(base, truncation=DEFAULT_TRUNCATION):
    """Free involutive algebra on the free C2-orbit: underlying k[x, x_s]
    with the swap, fixed level generated by t_i = tr(x^i) and x_N = N(x)."""
    ring = PolyRing(base, ["x", "x_s"], trunc=truncation)
    x, xs = ring.var(0), ring.var(1)
    sigma = RingInvolution(ring, [xs, x])
    gens = [("x_N", ring.mul(x, xs))]
    for i in range(1, truncation + 1):
        xi = ring.one_poly()
        xsi = ring.one_poly()
        for _ in range(i):
            xi = ring.mul(xi, x)
            xsi = ring.mul(xsi, xs)
        gens.append(("t_%d" % i, ring.add(xi, xsi)))
    return TambaraPresentation(base, ring, sigma, gens, truncation,
                               name="free-involutive")


def free_relation_holds(T, i, j):
    """t_i t_j = t_{i+j} + x_N^j t_{i-j} for i > j, and
    t_i t_i = t_{2i} + 2 x_N^i, read through res."""
    ring = T.ring
    t = lambda k: T.res_gen("t_%d" % k)
    xN = T.res_gen("x_N")
    if i == j:
        lhs = ring.mul(t(i), t(i))
        rhs = _pow(ring, xN, i)
        rhs = ring.scale(2, rhs)
        rhs = ring.add(t(2 * i) if 2 * i <= T.truncation else ring.zero_poly(), rhs)
        return ring.equal(lhs, rhs)
    if i < j:
        i, j = j, i
    lhs = ring.mul(t(i), t(j))
    rhs = t(i + j) if i + j <= T.truncation else ring.zero_poly()
    rhs = ring.add(rhs, ring.mul(_pow(ring, xN, j), t(i - j)))
    return ring.equal(lhs, rhs)


def _pow(ring, p, k):
    out = ring.one_poly()
    for _ in range(k):
        out = ring.mul(out, p)
    return out


def norm_ring(R, sigma=None, truncation=DEFAULT_TRUNCATION):
    """Relative norm of a presented commutative algebra: on polynomial rings
    this duplicates the variables with the swap involution."""
    if R.rules:
        raise UnsupportedPresentation("norm_ring supports polynomial rings only")
    names = list(R.names) + [n + "_s" for n in R.names]
    weights = list(R.weights) * 2
    ring = PolyRing(R.base, names, weights=weights, trunc=truncation)
    n = R.n
    images = [ring.var(i + n) for i in range(n)] + [ring.var(i) for i in range(n)]
    sig = RingInvolution(ring, images)
    gens = []
    for i in range(n):
        gens.append(("%s_N" % R.names[i], ring.mul(ring.var(i), ring.var(i + n))))
    for i in range(n):
        gens.append(("t_%s" % R.names[i], ring.add(ring.var(i), ring.var(i + n))))
    return TambaraPresentation(R.base, ring, sig, gens, truncation, name="norm")


# ---------------------------------------------------------------------------
# complex conjugation and group rings

def gaussian_algebra(truncation=DEFAULT_TRUNCATION):
    """Q(i) over Q with complex conjugation: the desk-scale model of C/R."""
    base = BaseRing("Q")
    ring = PolyRing(base, ["i"], rules={0: (2, {(0,): -1})},
                    weights=[1])
    sigma = RingInvolution(ring, [ring.neg(ring.var(0))])
    return fixed_point_green(ring, sigma, truncation, name="C/R")


def group_ring_involutive(order, truncation=DEFAULT_TRUNCATION):
    """Z[Z/order] with g -> g^{-1}."""
    base = BaseRing("Z")
    ring = PolyRing(base, ["g"], rules={0: (order, {(0,): 1})})
    inv = _pow(ring, ring.var(0), order - 1)
    sigma = RingInvolution(ring, [inv])
    return fixed_point_green(ring, sigma, truncation, name="Z[Z/%d]" % order)


# ---------------------------------------------------------------------------
# weightwise Mackey pieces

def mackey_piece(T, w):
    """The weight-w piece of the underlying Mackey functor of a subring-mode
    presentation over Z or Z/m: underlying = monomial span, fixed = invariants,
    res = inclusion, tr = 1 + sigma."""
    if T.mode != "subring":
        raise TambaraError("mackey_piece needs a subring-mode presentation")
    ring = T.ring
    monos = ring.monomial_basis_weight(w)
    n = len(monos)
    index = {m: i for i, m in enumerate(monos)}
    sig = [[0] * n for _ in range(n)]
    for j, m in enumerate(monos):
        img = T.sigma({m: ring.base.one()})
        for m2, c in img.items():
            if m2 in index:
                sig[index[m2]][j] = integer_lift(c)
    G = FgAbGroup.free(n)
    from .mackey import fixed_point_mackey
    return fixed_point_mackey(G, AbMap(G, G, sig))


class GradedGreenFunctor:
    """Weightwise Mackey pieces with multiplication data.

    Norm entries obey n(a) = -n(sigma a) in odd weights (the Koszul sign);
    assert_koszul_norm_rule checks the convention through res.
    """

    def __init__(self, pieces, norm_table=None):
        self.pieces = dict(pieces)
        self.norm_table = norm_table or {}

    def assert_koszul_norm_rule(self):
        """Every odd-weight norm entry satisfies the twisted Weyl rule:
        res of the sigma-companion is minus the Koszul swap of res n(v)."""
        for w2, entries in self.norm_table.items():
            for e in entries:
                if e.weight % 2 == 0:
                    continue
                piece = self.pieces[w2]
                rv = piece.res(e.norm_class)
                rc = piece.res(e.sigma_companion)
                swapped = _diag_swap(rv, e)
                if rc != [-x for x in swapped]:
                    return False
        return True


def _diag_swap(vec, entry):
    # the diagonal block B_h (x) B_h spans the whole underlying level only
    # when B is concentrated in one weight; entries record the block rank
    rank = entry.block_rank
    off = entry.block_offset
    out = list(vec)
    for a in range(rank):
        for b in range(rank):
            out[off + b * rank + a] = vec[off + a * rank + b]
    return out


def graded_green_from_norm(B):
    from .complexes import graded_norm
    N = graded_norm(B)
    return GradedGreenFunctor(N.pieces, N.norm_table)
