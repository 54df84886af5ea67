"""C2-Mackey functors as validated Lewis diagrams.

A Mackey functor M is a pair of f.g. abelian groups M^{C2} (fixed level)
and M^e (underlying level) together with restriction, transfer and the
Weyl action sigma on M^e, subject to

    sigma o sigma = id,   sigma o res = res,   tr o sigma = tr,
    res o tr = 1 + sigma.

Standard diagrams: zbar() is the constant functor at Z (res = 1, tr = 2),
zbar_c2() = induced(Z), the two cells of sign-sphere complexes.  A functor
is its Lewis diagram alone and keeps no record of the cells it was built
from; complexes of sums of cells are read without Mackey functors
(slices).

Its levels are abelian.FgAbGroups and its maps AbMaps, dense integer
matrices; kernel, cokernel and Homology solve with integer_kernel and
echelon_coords alone.
"""

from itertools import compress

from . import EngineError
from .abelian import (
    FgAbGroup,
    IllFormedMap,
    NotAComplex,
    block_matrix,
    direct_sum_groups,
    echelon_coords,
    identity,
    integer_kernel,
    mat_vec,
    transpose,
    zeros,
)


# ---------------------------------------------------------------------------
# matrices and maps between presented groups

def mat_mul(A, B):
    """A*B, accumulating a * b over the nonzero entries a = A[i][k] and
    b = B[k][j]."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    n = len(B[0]) if B else 0
    sparse = [dict(compress(enumerate(Bk), Bk)).items() for Bk in B]
    out = []
    for row in A:
        acc = [0] * n
        for a, Bk in zip(row, sparse):
            if a:
                for j, b in Bk:
                    acc[j] += a * b
        out.append(acc)
    return out


def kronecker(A, B, arows, acols, brows, bcols):
    """Kronecker product; index (i, j) of the tensor is i * bdim + j.  The
    shapes are given, so a factor without rows or columns keeps the other
    dimension."""
    out = zeros(arows * brows, acols * bcols)
    for i in range(arows):
        for j in range(acols):
            a = A[i][j]
            if not a:
                continue
            for k in range(brows):
                for l in range(bcols):
                    out[i * brows + k][j * bcols + l] = a * B[k][l]
    return out


class AbMap:
    """Homomorphism source -> target given by a matrix on ambient generators."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        M = [list(r) for r in matrix]
        if not M:
            M = [[0] * source.ngens for _ in range(target.ngens)]
        if len(M) != target.ngens:
            raise IllFormedMap("matrix has %d rows, target has %d generators"
                               % (len(M), target.ngens))
        if any(len(r) != source.ngens for r in M):
            raise IllFormedMap("matrix column count != source generators")
        self.matrix = M

    def is_well_defined(self):
        images = (mat_vec(self.matrix, r) for r in self.source.relations)
        return self.target.contains_zero(*images)

    def check(self):
        if not self.is_well_defined():
            raise IllFormedMap("matrix does not carry source relations into target relations")
        return self

    def __call__(self, v):
        return mat_vec(self.matrix, list(v))

    def compose(self, other):
        """self after other."""
        if self.source.ngens == 0:
            return AbMap.zero_map(other.source, self.target)
        return AbMap(other.source, self.target, mat_mul(self.matrix, other.matrix))

    def __add__(self, other):
        M = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)]
        return AbMap(self.source, self.target, M)

    def __sub__(self, other):
        M = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)]
        return AbMap(self.source, self.target, M)

    def scale(self, c):
        return AbMap(self.source, self.target, [[c * a for a in r] for r in self.matrix])

    def equals(self, other):
        """Equality as maps, i.e. matrix equality modulo target relations."""
        return self.source.ngens == other.source.ngens and (self - other).is_zero()

    def is_zero(self):
        return self.target.contains_zero(*transpose(self.matrix))

    def __repr__(self):
        return "AbMap(%r -> %r)" % (self.source, self.target)

    @classmethod
    def identity_map(cls, G):
        return cls(G, G, identity(G.ngens))

    @classmethod
    def zero_map(cls, source, target):
        return cls(source, target, zeros(target.ngens, source.ngens))


# ---------------------------------------------------------------------------
# kernels, cokernels, homology

def kernel(f):
    """(K, inclusion) with K = ker(f) as a subgroup of the source.

    Its generators, the x with f(x) in the lattice of the target relations
    Rt, are the x parts of integer_kernel([M | -Rt^T]), already in Hermite
    form since the rows of Rt are independent.  Its relations are the
    coordinates of the source's; a relation outside K raises IllFormedMap.

    >>> f = AbMap(FgAbGroup.free(2), FgAbGroup.free(1), [[1, 1]])
    >>> kernel(f)[0].invariant_factors()
    (0,)
    """
    n, Rt = f.source.ngens, f.target.relations
    A = [row + [-r[i] for r in Rt] for i, row in enumerate(f.matrix)]
    gens = [v[:n] for v in integer_kernel(A, n + len(Rt))]
    rels = echelon_coords(gens, f.source.relations)
    if None in rels:
        raise IllFormedMap("matrix does not carry source relations into target relations")
    K = FgAbGroup(len(gens), rels)
    return K, AbMap(K, f.source, transpose(gens))


def cokernel(f):
    """(C, projection) with C = target/im(f)."""
    f.check()
    C = FgAbGroup(f.target.ngens, f.target.relations + transpose(f.matrix))
    proj = AbMap(f.target, C, identity(f.target.ngens))
    return C, proj


class Homology:
    """ker(d_out) / im(d_in) for AbMaps d_in and d_out between presented
    groups, with the relations of kernel(d_out) and the coordinates of the
    columns of d_in in its Hermite basis; a column with none is not a cycle
    and raises NotAComplex.

    group: the homology, presented on the kernel generators;
    cycles: the inclusion of ker(d_out) into the chain group;
    induced(phi, target): the map on homology of a chain map phi.

    >>> Z = FgAbGroup.free(1)
    >>> Homology(AbMap(Z, Z, [[2]]), AbMap(Z, Z, [[0]])).group.invariant_factors()
    (2,)
    """

    def __init__(self, d_in, d_out):
        if not d_out.source.ngens:  # the zero group; d_out o d_in = 0 by shape
            self.group = d_out.source
            self.cycles = AbMap.identity_map(self.group)
            return
        K, self.cycles = kernel(d_out)
        boundaries = echelon_coords(transpose(self.cycles.matrix), transpose(d_in.matrix))
        if None in boundaries:
            raise NotAComplex("d_out o d_in != 0")
        self.group = FgAbGroup(K.ngens, K.relations + boundaries)

    def induced(self, phi, target):
        """H(phi): self.group -> target.group for a chain map phi from this
        homology's chain group to target's.  The cycles contain the relations
        of their chain group, so coordinates need no relations."""
        images = [phi(c) for c in transpose(self.cycles.matrix)]
        ys = echelon_coords(transpose(target.cycles.matrix), images)
        if None in ys:
            raise IllFormedMap("the map does not carry cycles to cycles")
        return AbMap(self.group, target.group, transpose(ys))


def tensor_groups(G, H):
    """G (x) H presented on generator pairs (i, j) -> i * H.ngens + j.

    >>> tensor_groups(FgAbGroup.from_invariants([4]), FgAbGroup.from_invariants([6]))
    FgAbGroup(2,)
    """
    return FgAbGroup(G.ngens * H.ngens, tensor_relations(G, H))


def tensor_relations(G, H):
    """The relation rows of G (x) H in the generator order of tensor_groups:
    those of R (x) 1, then of 1 (x) S.

    >>> tensor_relations(FgAbGroup.from_invariants([2]), FgAbGroup.free(2))
    [[2, 0], [0, 2]]
    """
    m, n = G.ngens, H.ngens
    R, S = G.relations, H.relations
    return kronecker(R, identity(n), len(R), m, n, n) + kronecker(identity(m), S, m, m, len(S), n)


def tensor_maps(f, g, source, target):
    return AbMap(source, target, kronecker(f.matrix, g.matrix, f.target.ngens,
                                           f.source.ngens, g.target.ngens, g.source.ngens))


class MackeyError(EngineError):
    pass


class NotInvolution(MackeyError):
    pass


class Violation:
    """First failed Lewis axiom, with a witness generator."""

    def __init__(self, axiom, detail=""):
        self.axiom = axiom
        self.detail = detail

    def __repr__(self):
        return "Violation(%s%s)" % (self.axiom, ": " + self.detail if self.detail else "")


AXIOM_WELL_DEFINED = "well_defined"
AXIOM_SIGMA_INVOLUTION = "sigma_squared"
AXIOM_SIGMA_RES = "sigma_res"
AXIOM_TR_SIGMA = "tr_sigma"
AXIOM_DOUBLE_COSET = "res_tr"


class MackeyFunctor:
    def __init__(self, fixed, underlying, res, tr, sigma):
        self.fixed = fixed
        self.underlying = underlying
        self.res = res
        self.tr = tr
        self.sigma = sigma

    def __repr__(self):
        return "MackeyFunctor(%s / %s)" % (self.fixed, self.underlying)


class MackeyMap:
    def __init__(self, source, target, f_fixed, f_underlying):
        self.source = source
        self.target = target
        self.f_fixed = f_fixed
        self.f_underlying = f_underlying

    @classmethod
    def identity_map(cls, M):
        return cls(M, M, AbMap.identity_map(M.fixed), AbMap.identity_map(M.underlying))

    @classmethod
    def zero_map(cls, source, target):
        return cls(source, target,
                   AbMap.zero_map(source.fixed, target.fixed),
                   AbMap.zero_map(source.underlying, target.underlying))


def validate(M):
    """None if M satisfies the Lewis axioms, else the first Violation."""
    for f, name in ((M.res, "res"), (M.tr, "tr"), (M.sigma, "sigma")):
        if not f.is_well_defined():
            return Violation(AXIOM_WELL_DEFINED, "%s is not well defined" % name)
    ident_u = AbMap.identity_map(M.underlying)
    for axiom, lhs, rhs in ((AXIOM_SIGMA_INVOLUTION, M.sigma.compose(M.sigma), ident_u),
                            (AXIOM_SIGMA_RES, M.sigma.compose(M.res), M.res),
                            (AXIOM_TR_SIGMA, M.tr.compose(M.sigma), M.tr),
                            (AXIOM_DOUBLE_COSET, M.res.compose(M.tr), ident_u + M.sigma)):
        # the one membership call of is_zero, read for the first generator
        # on which the two sides differ
        diff = lhs - rhs
        ys = echelon_coords(diff.target.relations, transpose(diff.matrix))
        if None in ys:
            return Violation(axiom, "generator %d" % ys.index(None))
    return None


# ---------------------------------------------------------------------------
# constructors

def constant_mackey(G):
    """Constant Mackey functor: both levels G, res = id, tr = x2, sigma = id."""
    return MackeyFunctor(G, G,
                         AbMap.identity_map(G),
                         AbMap(G, G, [[2 * x for x in row] for row in identity(G.ngens)]),
                         AbMap.identity_map(G))


def zbar():
    return constant_mackey(FgAbGroup.free(1))


def induced(G):
    """Free on the C2-orbit: fixed = G, underlying = G + G, res diagonal."""
    n = G.ngens
    GG = direct_sum_groups([G, G])
    one, halves = identity(n), {0: n, 1: n}
    res = AbMap(G, GG, block_matrix(halves, {0: n}, {(0, 0): one, (1, 0): one}))
    tr = AbMap(GG, G, block_matrix({0: n}, halves, {(0, 0): one, (0, 1): one}))
    swap = AbMap(GG, GG, block_matrix(halves, halves, {(0, 1): one, (1, 0): one}))
    return MackeyFunctor(G, GG, res, tr, swap)


def zbar_c2():
    return induced(FgAbGroup.free(1))


def fixed_point_mackey(G, sigma):
    """Strict fixed points: fixed level G^sigma, res = inclusion, tr = 1 + sigma."""
    if not sigma.compose(sigma).equals(AbMap.identity_map(G)):
        raise NotInvolution("sigma squared is not the identity")
    K, incl = kernel(sigma - AbMap.identity_map(G))
    # the fixed subgroup contains the relations of G: 1 + sigma lands in it
    # modulo them exactly when its columns have coordinates in its basis
    one_plus = AbMap.identity_map(G) + sigma
    cols = echelon_coords(transpose(incl.matrix), transpose(one_plus.matrix))
    if None in cols:
        raise MackeyError("1 + sigma does not land in the fixed subgroup")
    tr = AbMap(G, K, transpose(cols))
    return MackeyFunctor(K, G, AbMap(K, G, incl.matrix), tr, sigma)


def zero_mackey():
    zero = FgAbGroup(0)
    return MackeyFunctor(zero, zero, AbMap.zero_map(zero, zero),
                         AbMap.zero_map(zero, zero), AbMap.zero_map(zero, zero))


# ---------------------------------------------------------------------------
# box product

def box(M, N):
    """Lewis box product.

    Underlying level M^e (x) N^e with diagonal sigma; fixed level
    (M^{C2} (x) N^{C2}  +  M^e (x) N^e) modulo Frobenius and Weyl relations

        tr(x) (x) b  =  i(x (x) res b)
        a (x) tr(y)  =  i(res a (x) y)
        i(x (x) y)   =  i(sigma x (x) sigma y),

    with tr = i and res = (res (x) res, 1 + sigma).

    The fixed level is generated by the block u_i (x) v_j of the fixed
    levels, then the block i(x_a (x) y_b) of the underlying ones, each in
    the pair order of tensor_groups: the layout box_map shares.  Its
    relations are, as Kronecker blocks over the two generator blocks, those
    of the two tensor products, the rows [tr^T (x) 1 | -1 (x) res^T], the
    rows [1 (x) tr^T | -res^T (x) 1] and the rows [0 | 1 - (sigma (x) sigma)^T];
    res = [res (x) res | 1 + sigma (x) sigma] and tr = [0; 1].
    """
    und = tensor_groups(M.underlying, N.underlying)
    ff = tensor_relations(M.fixed, N.fixed)
    nf_m, nf_n = M.fixed.ngens, N.fixed.ngens
    ne_m, ne_n = M.underlying.ngens, N.underlying.ngens
    cols = {"ff": nf_m * nf_n, "und": und.ngens}
    sig = tensor_maps(M.sigma, N.sigma, und, und)
    one = AbMap.identity_map(und)
    # kronecker is given every shape: transpose loses the column count of
    # a matrix without rows
    rels = block_matrix(
        {"ff": len(ff), "und": len(und.relations), "left": ne_m * nf_n,
         "right": ne_n * nf_m, "weyl": und.ngens}, cols,
        {("ff", "ff"): ff,
         ("und", "und"): und.relations,
         ("left", "ff"): kronecker(transpose(M.tr.matrix), identity(nf_n),
                                   ne_m, nf_m, nf_n, nf_n),
         ("left", "und"): kronecker(identity(ne_m), transpose(N.res.scale(-1).matrix),
                                    ne_m, ne_m, nf_n, ne_n),
         ("right", "ff"): kronecker(identity(nf_m), transpose(N.tr.matrix),
                                    nf_m, nf_m, ne_n, nf_n),
         ("right", "und"): kronecker(transpose(M.res.scale(-1).matrix), identity(ne_n),
                                     nf_m, ne_m, ne_n, ne_n),
         ("weyl", "und"): transpose((one - sig).matrix)})
    fixed = FgAbGroup(sum(cols.values()), rels)
    res = AbMap(fixed, und, block_matrix(
        {0: und.ngens}, cols,
        {(0, "ff"): kronecker(M.res.matrix, N.res.matrix, ne_m, nf_m, ne_n, nf_n),
         (0, "und"): (one + sig).matrix}))
    tr = AbMap(und, fixed, block_matrix(cols, {0: und.ngens},
                                        {("und", 0): identity(und.ngens)}))
    return MackeyFunctor(fixed, und, res, tr, sig)


def box_map(f, g, source, target):
    """Box product of Mackey maps, from source = box(f.source, g.source) to
    target = box(f.target, g.target) in box()'s generator layout."""
    ff = f.f_fixed.matrix
    gf = g.f_fixed.matrix
    fu = f.f_underlying.matrix
    gu = g.f_underlying.matrix
    nf_m, nf_n = f.source.fixed.ngens, g.source.fixed.ngens
    ne_m, ne_n = f.source.underlying.ngens, g.source.underlying.ngens
    tf_m, tf_n = f.target.fixed.ngens, g.target.fixed.ngens
    te_m, te_n = f.target.underlying.ngens, g.target.underlying.ngens
    und = kronecker(fu, gu, te_m, ne_m, te_n, ne_n)
    # fixed level: the u_i (x) v_j block, then the i(x_a (x) y_b) block
    Mx = block_matrix({0: tf_m * tf_n, 1: te_m * te_n}, {0: nf_m * nf_n, 1: ne_m * ne_n},
                      {(0, 0): kronecker(ff, gf, tf_m, nf_m, tf_n, nf_n), (1, 1): und})
    f_fixed = AbMap(source.fixed, target.fixed, Mx)
    f_und = AbMap(source.underlying, target.underlying, und)
    return MackeyMap(source, target, f_fixed, f_und)


# ---------------------------------------------------------------------------
# geometric fixed points

def geometric_fixed_points(M):
    """coker(tr : M^e -> M^{C2}); pi_0-level geometric fixed points."""
    return cokernel(M.tr)[0]
