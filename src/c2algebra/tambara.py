"""Green and Tambara structure on Mackey functors.

A TambaraPresentation is a presented commutative ring with involution
together with its fixed level and norm data: the fixed level is the strict
invariant subring of the underlying level, res is the inclusion,
tr = 1 + sigma and N(a) = a * sigma(a).  All computation happens in the
underlying polynomial ring (res-injective normal forms).  The free
involutive algebras of tambara-free are built here.
"""

from . import DEFAULT_TRUNCATION, EngineError
from .polyring import PolyRing, RingInvolution


class TambaraError(EngineError):
    pass


class TambaraViolation:
    def __init__(self, identity, witness=""):
        self.identity = identity
        self.witness = witness

    def __repr__(self):
        return "TambaraViolation(%s%s)" % (self.identity,
                                           ": " + self.witness if self.witness else "")


class TambaraPresentation:
    def __init__(self, base, ring, sigma, fixed_gens, truncation):
        self.base = base
        self.ring = ring
        self.sigma = sigma
        self.fixed_gens = list(fixed_gens)  # (name, res-image polynomial)
        self.truncation = truncation  # bounds the generators listed and the sample

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
        return "TambaraPresentation(%s)" % self.ring.names


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
    """None if all Tambara identities hold on the sampled monomials, else
    the first TambaraViolation.  The sample is the monomials of weight up to
    sample_weight (by default min(T.truncation, 4)), or the whole basis of a
    finite ring; pair_bound caps the pairs of them sampled for the bilinear
    identities (None = exhaustive)."""
    ring = T.ring
    sig = T.sigma
    if not sig.is_involution():
        return TambaraViolation("sigma_involution")
    if sig.broken_rule() is not None:
        return TambaraViolation("sigma_stable_relations")
    # res images of fixed generators must be sigma-invariant (this is
    # Frobenius reciprocity in res-faithful form)
    for name, img in T.fixed_gens:
        if not ring.equal(sig(img), img):
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


def is_cohomological(T):
    """N(res x) = x^2 for all fixed-level generators.

    Assumes validate_tambara(T) is None: the generator check suffices by
    multiplicativity and the sum rule, which that validation samples."""
    ring = T.ring
    return all(ring.equal(T.norm(img), ring.mul(img, img)) for _name, img in T.fixed_gens)


# ---------------------------------------------------------------------------
# constructors

def free_involutive_trivial(base, names, truncation=DEFAULT_TRUNCATION):
    """Free involutive algebra on a trivial C2-set: both levels k[names],
    res = id, tr = x2, N(res x) = x^2."""
    ring = PolyRing(base, list(names))
    sigma = RingInvolution.identity(ring)
    gens = [(n, ring.var_named(n)) for n in names]
    return TambaraPresentation(base, ring, sigma, gens, truncation)


def free_involutive_free(base, truncation=DEFAULT_TRUNCATION):
    """Free involutive algebra on the free C2-orbit: underlying k[x, x_s]
    with the swap, fixed level generated by t_i = tr(x^i) and x_N = N(x)."""
    ring = PolyRing(base, ["x", "x_s"])
    x, xs = ring.var(0), ring.var(1)
    sigma = RingInvolution(ring, [xs, x])
    gens = [("x_N", ring.mul(x, xs))]
    xi, xsi = ring.one_poly(), ring.one_poly()
    for i in range(1, truncation + 1):
        xi, xsi = ring.mul(xi, x), ring.mul(xsi, xs)
        gens.append(("t_%d" % i, ring.add(xi, xsi)))
    return TambaraPresentation(base, ring, sigma, gens, truncation)


def free_relation_holds(T, i, j):
    """t_i t_j = t_{i+j} + x_N^j t_{i-j} for i > j, and
    t_i t_i = t_{2i} + 2 x_N^i, read through res."""
    ring = T.ring
    t = lambda k: T.res_gen("t_%d" % k)
    xN = T.res_gen("x_N")
    if i < j:
        i, j = j, i
    lhs = ring.mul(t(i), t(j))
    if i == j:
        rhs = ring.scale(2, ring.pow(xN, i))
    else:
        rhs = ring.mul(ring.pow(xN, j), t(i - j))
    return ring.equal(lhs, ring.add(t(i + j), rhs))
