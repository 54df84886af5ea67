"""Reference routes and fixtures the tests compare the engine against.

No CLI command runs any of this: fixture algebras, Mackey functors and
random integral involutions, the Mackey comparator (fingerprint, duals, the
zeroth slice), the graded norm with its Koszul sign, the Tambara examples (the Burnside table, norm rings,
fixed-point Green functors, weightwise Mackey pieces) and the trace oracles
(the homology of a ChainComplex as a Homology of presented chain groups,
the +-parts of an involution as eigen kernels, the omega-eigen splitting
of HH, localization of integral homology, the operator identities of the
dihedral bar complex), which compute with dense matrices: dense and columns
convert between them and the sparse columns of abelian.ChainComplex.  The
reference builder of b, omega and B expands them through ring.mul and omega
term by term; the reference tensor and box products write their relation
rows, res and tr one entry at a time."""

from fractions import Fraction

from c2algebra import complexes as cx
from c2algebra import mackey as mk
from c2algebra import tambara as tb
from c2algebra.abelian import (
    AbMap,
    _unimodular_inverse,
    FgAbGroup,
    Homology,
    _modulus,
    cokernel,
    free_rank,
    identity,
    integer_kernel,
    kernel,
    mat_mul,
    subgroup_coords,
    tensor_maps,
    transpose,
    trivial_group,
    zeros,
)
from c2algebra.polyring import (
    BaseRing,
    PolyRing,
    RingInvolution,
    UnsupportedPresentation,
    integer_lift,
)
from c2algebra.trace import (
    DihedralComplex,
    InvolutiveAlgebra,
    _direct_sum,
    _require_two_invertible,
    hochschild_blocks,
    hochschild_chains,
)


# ---------------------------------------------------------------------------
# fixtures

def algebra_poly(base, names, omega_images=None, rules=None):
    ring = PolyRing(base, names, rules=rules or {})
    om = RingInvolution.identity(ring) if omega_images is None else \
        RingInvolution(ring, omega_images)
    return InvolutiveAlgebra(base, ring, om)


def algebra_q_poly():
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"])
    return InvolutiveAlgebra(base, ring, RingInvolution.identity(ring))


def algebra_q_dual_numbers():
    """Q[x]/x^2 with w(x) = -x."""
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"], rules={0: (2, {})})
    return InvolutiveAlgebra(base, ring, RingInvolution(ring, [ring.neg(ring.var(0))]))


def algebra_gaussian():
    """Q(i) over Q with conjugation: the desk model of C over R."""
    base = BaseRing("Q")
    ring = PolyRing(base, ["i"], rules={0: (2, {(0,): -1})})
    return InvolutiveAlgebra(base, ring, RingInvolution(ring, [ring.neg(ring.var(0))]))


def algebra_ground(base=None):
    base = base or BaseRing("Q")
    ring = PolyRing(base, [])
    return InvolutiveAlgebra(base, ring, RingInvolution.identity(ring))


def zsign():
    """Fixed level 0, underlying Z with sigma = -1 (a regular (-1)-slice)."""
    zero = FgAbGroup(0)
    z = FgAbGroup.free(1)
    return mk.MackeyFunctor(zero, z, AbMap.zero_map(zero, z), AbMap.zero_map(z, zero),
                            AbMap(z, z, [[-1]]))


def burnside():
    """The C2-Burnside Mackey functor: fixed = Z{[C2/C2], [C2]}."""
    fixed = FgAbGroup.free(2, labels=["[C2/C2]", "[C2]"])
    und = FgAbGroup.free(1)
    return mk.MackeyFunctor(fixed, und, AbMap(fixed, und, [[1, 2]]),
                            AbMap(und, fixed, [[0], [1]]), AbMap.identity_map(und))


def random_involution(rng, n):
    """A random integral involution of Z^n: a signed permutation of order at
    most 2 conjugated by a product of n elementary unimodular matrices.  The
    coin flips reach every partial pairing of the basis; the elementary
    multipliers range over -2..2."""
    left = list(range(n))
    rng.shuffle(left)
    sig = zeros(n, n)
    while left:
        i = left.pop()
        j = left.pop() if left and rng.random() < 0.5 else i
        if i == j:
            sig[i][i] = rng.choice([1, -1])
        else:
            sig[i][j] = sig[j][i] = 1
    T = identity(n)
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            c = rng.randint(-2, 2)
            T[a] = [x + c * y for x, y in zip(T[a], T[b])]
    return mat_mul(mat_mul(T, sig), _unimodular_inverse(T))


def shift(C, k):
    """Suspension by S^k: degrees move up by k, differentials keep sign
    (-1)^k per the Koszul convention."""
    sign = -1 if k % 2 else 1
    return cx.MackeyComplex({n + k: M for n, M in C.terms.items()},
                            {n + k: d.scale(sign) if sign < 0 else d
                             for n, d in C.diffs.items()})


def dual_circle_complex():
    """The two-term complex from the dual filtered involutive circle.

    zbar + zbar --((1,0),(0,1) both to e + sigma)--> zbar_c2, in degrees
    0 and -1; its homology is zbar in degree 0 and zsign in degree -1.
    """
    src = mk.direct_sum([mk.zbar(), mk.zbar()])
    tgt = mk.zbar_c2()
    d = mk.MackeyMap(src, tgt, AbMap(src.fixed, tgt.fixed, [[1, 1]]),
                     AbMap(src.underlying, tgt.underlying, [[1, 1], [1, 1]]))
    return cx.MackeyComplex({0: src, -1: tgt}, {0: d})


# ---------------------------------------------------------------------------
# the Mackey comparator: duals, zeroth slice, isomorphism fingerprint

class TorsionNotSupported(mk.MackeyError):
    pass


def _free_basis(G):
    """Ambient vectors whose classes form a basis (G torsion-free)."""
    if any(G.invariant_factors()):
        raise TorsionNotSupported("group has torsion")
    return G.canonical_basis()


def _map_on_bases(f, basis_src, G_tgt, basis_tgt):
    cols = subgroup_coords(basis_tgt, G_tgt.relations, [f(b) for b in basis_src],
                           G_tgt.ngens)
    if None in cols:
        raise mk.MackeyError("image leaves the free basis span")
    return transpose(cols) if cols else []


def dual(M):
    """Hom(M, zbar): the monoidal dual for levelwise torsion-free functors.

    Concretely: dual(M)^e = Hom(M^e, Z) with sigma-transpose action, fixed
    level the sigma-invariant functionals, res the inclusion, tr = 1 + sigma.
    Under this dual zbar, zbar_c2 and zsign are self-dual.
    """
    if any(M.fixed.invariant_factors() + M.underlying.invariant_factors()):
        raise TorsionNotSupported("dual requires torsion-free levels")
    basis = _free_basis(M.underlying)
    k = len(basis)
    sig = _map_on_bases(M.sigma, basis, M.underlying, basis)
    free = FgAbGroup.free(k)
    return mk.fixed_point_mackey(free, AbMap(free, free, transpose(sig) if k else []))


def dual_map(f, dual_source=None, dual_target=None):
    """dual(f): dual(target) -> dual(source), transpose on basis coordinates."""
    Mt = dual_target if dual_target is not None else dual(f.target)
    Ms = dual_source if dual_source is not None else dual(f.source)
    bs = _free_basis(f.source.underlying)
    bt = _free_basis(f.target.underlying)
    fu = _map_on_bases(f.f_underlying, bs, f.target.underlying, bt)
    fu_t = transpose(fu) if fu else []
    und = AbMap(Mt.underlying, Ms.underlying,
                fu_t if fu_t else zeros(Ms.underlying.ngens, Mt.underlying.ngens))
    # fixed level: restrict the transpose to invariant functionals
    gens_s = transpose(Ms.res.matrix) if Ms.fixed.ngens else []
    cols = subgroup_coords(gens_s, Ms.underlying.relations,
                           [und(Mt.res(e)) for e in identity(Mt.fixed.ngens)],
                           Ms.underlying.ngens)
    if None in cols:
        raise mk.MackeyError("dual map does not preserve invariant functionals")
    fx = AbMap(Mt.fixed, Ms.fixed,
               transpose(cols) if cols else zeros(Ms.fixed.ngens, Mt.fixed.ngens))
    return mk.MackeyMap(Mt, Ms, fx, und)


def zeroth_slice(M):
    """Largest quotient with injective restriction, plus the quotient map."""
    K, incl = kernel(M.res)
    # sub-Mackey functor generated by ker(res): underlying part = span res(K),
    # fixed part = K + tr(res K); here res K = 0 in the quotient's bookkeeping
    kgens = transpose(incl.matrix) if K.ngens else []
    und_extra = [M.res(list(g)) for g in kgens]
    new_und = FgAbGroup(M.underlying.ngens, list(M.underlying.relations) + und_extra)
    fixed_extra = [list(g) for g in kgens] + [M.tr(v) for v in und_extra]
    new_fixed = FgAbGroup(M.fixed.ngens, list(M.fixed.relations) + fixed_extra)
    P = mk.MackeyFunctor(new_fixed, new_und, AbMap(new_fixed, new_und, M.res.matrix),
                         AbMap(new_und, new_fixed, M.tr.matrix),
                         AbMap(new_und, new_und, M.sigma.matrix))
    q = mk.MackeyMap(M, P, AbMap(M.fixed, new_fixed, identity(M.fixed.ngens)),
                     AbMap(M.underlying, new_und, identity(M.underlying.ngens)))
    return P, q


def fingerprint(M):
    """Tuple of isomorphism invariants.

    Levelwise invariant factors plus invariant factors of kernels and
    cokernels of res, tr, sigma -+ 1, and of the zeroth slice.  Complete on
    the standard family (asserted in test_mackey), used for "exact match"
    assertions in place of a module-isomorphism search.
    """
    one = AbMap.identity_map(M.underlying)
    parts = [M.fixed.invariant_factors(), M.underlying.invariant_factors()]
    for f in (M.res, M.tr, M.sigma - one, M.sigma + one):
        parts += [kernel(f)[0].invariant_factors(), cokernel(f)[0].invariant_factors()]
    P, _ = zeroth_slice(M)
    return tuple(parts + [P.fixed.invariant_factors(), P.underlying.invariant_factors()])


def isomorphic(M, N):
    return fingerprint(M) == fingerprint(N)


# ---------------------------------------------------------------------------
# the box product, laid out entry by entry

def reference_tensor_groups(G, H):
    """G (x) H presented on generator pairs (i, j) -> i * H.ngens + j, its
    relation rows written one entry at a time."""
    n = G.ngens * H.ngens
    rels = []
    for r in G.relations:
        for j in range(H.ngens):
            row = [0] * n
            for i, c in enumerate(r):
                row[i * H.ngens + j] = c
            rels.append(row)
    for s in H.relations:
        for i in range(G.ngens):
            row = [0] * n
            for j, c in enumerate(s):
                row[i * H.ngens + j] = c
            rels.append(row)
    return FgAbGroup(n, rels)


def reference_box(M, N):
    """The Lewis box product of mackey.box, its relations, res and tr
    written one entry at a time by index loops."""
    und = reference_tensor_groups(M.underlying, N.underlying)
    nf_m, nf_n = M.fixed.ngens, N.fixed.ngens
    ne_m, ne_n = M.underlying.ngens, N.underlying.ngens
    top = nf_m * nf_n        # generators u_i (x) v_j
    bot = ne_m * ne_n        # generators i(x_a (x) y_b)
    n = top + bot

    def top_idx(i, j):
        return i * nf_n + j

    def bot_idx(a, b):
        return top + a * ne_n + b

    rels = []
    # ambient relations of the two tensor blocks
    ff = reference_tensor_groups(M.fixed, N.fixed)
    for r in ff.relations:
        rels.append(list(r) + [0] * bot)
    for r in und.relations:
        rels.append([0] * top + list(r))
    # tr(x) (x) v_j - i(x (x) res v_j)
    for a in range(ne_m):
        trx = M.tr.matrix  # nf_m x ne_m
        for j in range(nf_n):
            row = [0] * n
            for i in range(nf_m):
                row[top_idx(i, j)] += trx[i][a]
            resv = [N.res.matrix[b][j] for b in range(ne_n)]
            for b in range(ne_n):
                row[bot_idx(a, b)] -= resv[b]
            rels.append(row)
    # u_i (x) tr(y) - i(res u_i (x) y)
    for b in range(ne_n):
        for i in range(nf_m):
            row = [0] * n
            for j in range(nf_n):
                row[top_idx(i, j)] += N.tr.matrix[j][b]
            resu = [M.res.matrix[a][i] for a in range(ne_m)]
            for a in range(ne_m):
                row[bot_idx(a, b)] -= resu[a]
            rels.append(row)
    # i(x (x) y) - i(sigma x (x) sigma y)
    sm, sn = M.sigma.matrix, N.sigma.matrix
    for a in range(ne_m):
        for b in range(ne_n):
            row = [0] * n
            row[bot_idx(a, b)] += 1
            for a2 in range(ne_m):
                for b2 in range(ne_n):
                    row[bot_idx(a2, b2)] -= sm[a2][a] * sn[b2][b]
            rels.append(row)
    fixed = FgAbGroup(n, rels)

    # res: top part res (x) res, bottom part 1 + sigma
    res_rows = zeros(und.ngens, n)
    for i in range(nf_m):
        for j in range(nf_n):
            col = top_idx(i, j)
            for a in range(ne_m):
                for b in range(ne_n):
                    res_rows[a * ne_n + b][col] = M.res.matrix[a][i] * N.res.matrix[b][j]
    for a in range(ne_m):
        for b in range(ne_n):
            col = bot_idx(a, b)
            res_rows[a * ne_n + b][col] += 1
            for a2 in range(ne_m):
                for b2 in range(ne_n):
                    res_rows[a2 * ne_n + b2][col] += sm[a2][a] * sn[b2][b]
    res = AbMap(fixed, und, res_rows)

    tr = zeros(n, und.ngens)
    for a in range(ne_m):
        for b in range(ne_n):
            tr[bot_idx(a, b)][a * ne_n + b] = 1

    sig = tensor_maps(M.sigma, N.sigma, und, und)

    cells = None
    if M.cells is not None and N.cells is not None:
        cells = []
        for cm in M.cells:
            for cn in N.cells:
                cells.append("free" if "free" in (cm, cn) else "triv")
    return mk.MackeyFunctor(fixed, und, res, AbMap(und, fixed, tr), sig,
                            cells=tuple(cells) if cells is not None else None)


# ---------------------------------------------------------------------------
# graded norms

class NotFree(cx.ComplexError):
    pass


class GradedMackeyModule:
    """pieces: weight -> MackeyFunctor, with an attached norm table."""

    def __init__(self, pieces, norm_table=None):
        self.pieces = dict(pieces)
        self.norm_table = norm_table or {}

    def piece(self, w):
        return self.pieces.get(w) or mk.zero_mackey()

    def weights(self):
        return sorted(self.pieces)


class NormEntry:
    """Norm class of one basis vector: fixed-level coordinates of n(v) and of
    the sigma-companion n(sigma v), recorded with the Koszul twist.
    block_offset/block_rank locate the diagonal B_h (x) B_h block inside the
    underlying level of the weight-2h piece."""

    def __init__(self, weight, index, norm_class, sigma_companion,
                 block_offset=0, block_rank=0):
        self.weight = weight
        self.index = index
        self.norm_class = norm_class
        self.sigma_companion = sigma_companion
        self.block_offset = block_offset
        self.block_rank = block_rank


def graded_norm(B):
    """Norm of a finitely supported graded free abelian group with involution.

    B: dict weight -> (rank, sigma matrix).  Underlying weight-m piece is
    the direct sum of B_i (x) B_j over i + j = m, with the swap twisted by
    the Koszul sign epsilon(i, j) = (-1)^{ij + min(i,j)} (so that diagonal
    norm classes are strictly invariant).  The fixed level carries one norm
    generator per basis vector of B_{m/2} plus transfer classes; geometric
    fixed points of the weight-2m piece recover B_m.
    """
    for w, (rank, sig) in B.items():
        if len(sig) != rank or any(len(r) != rank for r in sig):
            raise NotFree("sigma matrix shape mismatch at weight %d" % w)
        if rank and mat_mul(sig, sig) != identity(rank):
            raise NotFree("sigma is not an involution at weight %d" % w)
    out, table = {}, {}
    for m in range(2 * min(B, default=0), 2 * max(B, default=-1) + 1):
        summands = [(i, m - i) for i in sorted(B) if (m - i) in B]
        if summands:
            out[m], entries = _norm_weight_piece(B, m, summands)
            if entries:
                table[m] = entries
    return GradedMackeyModule(out, table)


def _norm_sign(i, j):
    return -1 if (i * j + min(i, j)) % 2 else 1


def _norm_weight_piece(B, m, summands):
    # underlying: direct sum of B_i (x) B_j with twisted swap
    offs = {}
    off = 0
    for (i, j) in summands:
        offs[(i, j)] = off
        off += B[i][0] * B[j][0]
    n_und = off
    sig_und = zeros(n_und, n_und)
    for (i, j) in summands:
        ri, si = B[i]
        rj, sj = B[j]
        eps = _norm_sign(i, j)
        # sigma(b_a (x) b_b) = eps * sigma_B(b_b) (x) sigma_B(b_a) in B_j (x) B_i
        for a in range(ri):
            for b in range(rj):
                src = offs[(i, j)] + a * rj + b
                for b2 in range(rj):
                    for a2 in range(ri):
                        c = sj[b2][b] * si[a2][a]
                        if c:
                            sig_und[offs[(j, i)] + b2 * ri + a2][src] += eps * c
    und = FgAbGroup.free(n_und)
    sigma = AbMap(und, und, sig_und)

    # fixed level: norm generators (even m, from B_{m/2}) then transfer classes
    h = m // 2
    diag_rank = B[h][0] if m % 2 == 0 and h in B else 0
    n_fixed = diag_rank + n_und
    rels = []
    # tr(u) = tr(sigma u)
    for a in range(n_und):
        row = [0] * n_fixed
        row[diag_rank + a] += 1
        for a2 in range(n_und):
            row[diag_rank + a2] -= sig_und[a2][a]
        rels.append(row)
    fixed = FgAbGroup(n_fixed, rels)
    # res n(v_k) = v_k (x) sigma_B v_k ; res tr(u) = u + sigma u
    res_m = zeros(n_und, n_fixed)
    if diag_rank:
        rh, sh = B[h]
        for k in range(rh):
            for b2 in range(rh):
                res_m[offs[(h, h)] + k * rh + b2][k] += sh[b2][k]
    for a in range(n_und):
        res_m[a][diag_rank + a] += 1
        for a2 in range(n_und):
            res_m[a2][diag_rank + a] += sig_und[a2][a]
    tr_m = zeros(n_fixed, n_und)
    for a in range(n_und):
        tr_m[diag_rank + a][a] = 1
    piece = mk.MackeyFunctor(fixed, und, AbMap(fixed, und, res_m), AbMap(und, fixed, tr_m),
                             sigma)
    # norm table entries with the odd-weight Koszul convention
    entries = []
    if diag_rank:
        rh, sh = B[h]
        for k in range(rh):
            nv = [0] * n_fixed
            nv[k] = 1
            # n(sigma v_k): quadratic expansion of sigma_B v_k, recorded with
            # the (-1) twist in odd weight h per the Koszul norm rule
            companion = _norm_of_vector(B, h, [sh[b][k] for b in range(rh)],
                                        n_fixed, diag_rank, offs)
            if h % 2:
                companion = [-x for x in companion]
            entries.append(NormEntry(h, k, nv, companion,
                                     block_offset=offs[(h, h)], block_rank=rh))
    return piece, entries


def _norm_of_vector(B, h, coeffs, n_fixed, diag_rank, offs):
    """Fixed-level class of n(sum c_k v_k) via the Tambara sum rule:
    n(a + b) = n(a) + n(b) + tr(a (x) sigma b)."""
    rh, sh = B[h]
    base = offs[(h, h)]
    out = [0] * n_fixed
    for k, c in enumerate(coeffs):
        out[k] += c * c
    for k1 in range(rh):
        for k2 in range(k1 + 1, rh):
            c = coeffs[k1] * coeffs[k2]
            if c:
                # tr(v_k1 (x) sigma_B v_k2)
                for b2 in range(rh):
                    s = sh[b2][k2]
                    if s:
                        out[diag_rank + base + k1 * rh + b2] += c * s
    return out


def diag_swap(vec, entry):
    """The Koszul swap a (x) b -> b (x) a on the diagonal block of a norm
    entry; the block spans the whole underlying level only when B is
    concentrated in one weight."""
    rank, off = entry.block_rank, entry.block_offset
    out = list(vec)
    for a in range(rank):
        for b in range(rank):
            out[off + b * rank + a] = vec[off + a * rank + b]
    return out


def koszul_norm_rule_holds(N):
    """Every odd-weight norm entry of a graded norm satisfies the twisted
    Weyl rule n(a) = -n(sigma a): res of the sigma-companion is minus the
    Koszul swap of res n(v)."""
    return all(N.pieces[w2].res(e.sigma_companion) ==
               [-x for x in diag_swap(N.pieces[w2].res(e.norm_class), e)]
               for w2, entries in N.norm_table.items() for e in entries if e.weight % 2)


# ---------------------------------------------------------------------------
# Tambara examples

class BurnsideTable:
    """The Burnside Tambara functor as a table, fixed level Z{1, t} with
    t = [C2]: t^2 = 2t, res(1) = 1, res(t) = 2, tr(m) = m t,
    N(m) = m + (m^2 - m)/2 t.  Its restriction is not injective and its norm
    is not squaring."""

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

    def validate(self):
        """None if the norm is multiplicative and obeys the sum rule on
        -3..3, else the first TambaraViolation."""
        for m in range(-3, 4):
            for k in range(-3, 4):
                if self.norm(m * k) != self.mult(self.norm(m), self.norm(k)):
                    return tb.TambaraViolation("norm_multiplicative", "m=%d k=%d" % (m, k))
                s, t, tr_part = self.norm(m), self.norm(k), self.tr(m * k)
                if self.norm(m + k) != tuple(map(sum, zip(s, t, tr_part))):
                    return tb.TambaraViolation("norm_sum_rule", "m=%d k=%d" % (m, k))
        return None

    def cohomological_witness(self):
        """The first generator where N(res x) != x^2, or None."""
        for label, x in zip(self.basis, ((1, 0), (0, 1))):
            if self.norm(self.res(x)) != self.mult(x, x):
                return (label, self.norm(self.res(x)), self.mult(x, x))
        return None


def fixed_point_green(ring, sigma, truncation=tb.DEFAULT_TRUNCATION):
    """Strict fixed points of the involution: res = inclusion, tr = 1 + sigma,
    N(a) = a sigma(a).  Fixed generators are an invariant basis computed
    degreewise (finite rings) or weightwise up to the truncation."""
    if not sigma.is_involution():
        raise tb.TambaraError("sigma is not an involution")
    if sigma.broken_rule() is not None:
        raise tb.TambaraError("relations are not sigma-stable")
    if ring.n == 0:
        gens = []
    elif ring.is_finite_dimensional():
        gens = _invariants_of_span(ring, sigma, ring.monomial_basis_all())
    else:
        gens = [g for w in range(1, truncation + 1)
                for g in _invariants_of_span(ring, sigma, ring.monomial_basis_weight(w))]
    return tb.TambaraPresentation(ring.base, ring, sigma, gens, truncation)


def _invariants_of_span(ring, sigma, monos):
    """Basis of the invariants of sigma on the span of monos, as (label,
    polynomial), skipping 1."""
    if not monos:
        return []
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    # matrix of sigma - 1 on the span; terms outside it are truncated away
    mat = zeros(n, n)
    for j, m in enumerate(monos):
        mat[j][j] -= 1
        for m2, c in sigma({m: ring.base.one()}).items():
            if m2 in index:
                mat[index[m2]][j] += integer_lift(c)
    out = []
    for vec in integer_kernel(mat, n):
        poly = {monos[j]: ring.base.coerce(c) for j, c in enumerate(vec) if c}
        label = ring.poly_string(poly)
        if label != "1":
            out.append((label, ring.normal_form(poly)))
    return out


def norm_ring(R, truncation=tb.DEFAULT_TRUNCATION):
    """Relative norm of a presented commutative algebra: on polynomial rings
    this duplicates the variables with the swap involution."""
    if R.rules:
        raise UnsupportedPresentation("norm_ring supports polynomial rings only")
    n = R.n
    ring = PolyRing(R.base, list(R.names) + [v + "_s" for v in R.names],
                    weights=list(R.weights) * 2, trunc=truncation)
    sig = RingInvolution(ring, [ring.var(i + n) for i in range(n)] +
                         [ring.var(i) for i in range(n)])
    gens = [("%s_N" % R.names[i], ring.mul(ring.var(i), ring.var(i + n))) for i in range(n)]
    gens += [("t_%s" % R.names[i], ring.add(ring.var(i), ring.var(i + n))) for i in range(n)]
    return tb.TambaraPresentation(R.base, ring, sig, gens, truncation)


def gaussian_algebra(truncation=tb.DEFAULT_TRUNCATION):
    """Q(i) over Q with complex conjugation: the desk-scale model of C/R."""
    ring = PolyRing(BaseRing("Q"), ["i"], rules={0: (2, {(0,): -1})}, weights=[1])
    return fixed_point_green(ring, RingInvolution(ring, [ring.neg(ring.var(0))]),
                             truncation)


def group_ring_involutive(order, truncation=tb.DEFAULT_TRUNCATION):
    """Z[Z/order] with g -> g^{-1}."""
    ring = PolyRing(BaseRing("Z"), ["g"], rules={0: (order, {(0,): 1})})
    sigma = RingInvolution(ring, [tb._pow(ring, ring.var(0), order - 1)])
    return fixed_point_green(ring, sigma, truncation)


def mackey_piece(T, w):
    """The weight-w piece of the underlying Mackey functor of a presentation
    over Z or Z/m: underlying = monomial span, fixed = invariants,
    res = inclusion, tr = 1 + sigma."""
    ring = T.ring
    monos = ring.monomial_basis_weight(w)
    index = {m: i for i, m in enumerate(monos)}
    sig = zeros(len(monos), len(monos))
    for j, m in enumerate(monos):
        for m2, c in T.sigma({m: ring.base.one()}).items():
            if m2 in index:
                sig[index[m2]][j] = integer_lift(c)
    G = FgAbGroup.free(len(monos))
    return mk.fixed_point_mackey(G, AbMap(G, G, sig))


# ---------------------------------------------------------------------------
# trace oracles

def dense(cols, nrows):
    """The row-major matrix, nrows rows, of a map given as the sparse columns
    of abelian.ChainComplex; the reference routes compute with these."""
    return [[col.get(i, 0) for col in cols] for i in range(nrows)]


def columns(M, ncols=None):
    """The sparse columns of a row-major matrix, dense() undone; ncols is
    needed only when M has no rows."""
    return [{i: row[j] for i, row in enumerate(M) if row[j]}
            for j in range(len(M[0]) if M else ncols or 0)]


def localized(invs, base):
    """Invariant factors over Z, tensored with a base that is flat over Z:
    over Q the torsion goes, over Z[1/2] the powers of 2."""
    kind = base.kind if base is not None else "Z"
    out = []
    for d in invs:
        if d and kind == "Q":
            continue
        while d and kind == "Z[1/2]" and d % 2 == 0:
            d //= 2
        if d != 1:
            out.append(d)
    return tuple(out)


def chain_group(dim, base=None):
    """The free base-module of rank dim as an abelian group: (Z/m)^dim, with
    relations m*I, over Z/m; Z^dim over Z, Z[1/2] and Q."""
    m = _modulus(base)
    return FgAbGroup(dim, [[m if i == j else 0 for j in range(dim)]
                           for i in range(dim)] if m else ())


def chain_homology(C, n):
    """H_n as a Homology (kernel SNF, HNF of the cycles, a second SNF): of
    an abelian.ChainComplex on the chain groups chain_group presents, built
    for the degrees n - 1, n and n + 1 only, or of an EigenComplex.  Over Q
    and Z[1/2] this is the homology over Z, before localization.  It is the
    oracle of ChainComplex.invariants, which reads H_n from elementary
    divisors over every base."""
    if isinstance(C, EigenComplex):
        return Homology(C.diff(n + 1), C.diff(n))
    G = {k: chain_group(C.dims.get(k, 0), C.base) for k in (n - 1, n, n + 1)}

    def diff(k):
        d = C.mats.get(k)
        return AbMap(G[k], G[k - 1], dense(d, G[k - 1].ngens) if d else ())
    return Homology(diff(n + 1), diff(n))


class EigenComplex:
    """The sign part of an involution of an abelian.ChainComplex T, invol its
    sparse columns per degree: the kernel of invol - sign on each chain group
    (taken mod m on (Z/m)^d, so an integer lift of the involution is enough),
    with the boundaries restricted through Homology.induced, all on dense
    matrices; chain_homology reads its homology.  It is the oracle of
    ChainComplex.eigen_invariants, which reads the same homology from ranks
    over Q and Z[1/2] and from a resolution of the quotients
    C / (invol - sign) C over Z/m."""

    def __init__(self, T, invol, sign):
        chains = {n: chain_group(d, T.base) for n, d in T.dims.items()}
        parts = {}
        for n, G in chains.items():
            shifted = [[x - sign if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(dense(invol[n], G.ngens))]
            parts[n] = Homology(AbMap.zero_map(trivial_group(), G), AbMap(G, G, shifted))
        self.groups = {n: P.group for n, P in parts.items()}
        self.diffs = {n: parts[n].induced(AbMap(chains[n], chains[n - 1],
                                                dense(M, chains[n - 1].ngens)), parts[n - 1])
                      for n, M in T.mats.items()}

    def diff(self, n):
        if n in self.diffs:
            return self.diffs[n]
        zero = trivial_group()
        return AbMap.zero_map(self.groups.get(n, zero), self.groups.get(n - 1, zero))


def split_plus_minus(C):
    """(C+, C-): the omega-eigenvalue subcomplexes of the Hochschild chains
    of C's sigma-orbit.  For a paired block omega swaps C with its partner,
    so each eigen part is a copy of C's chains and omega is not built."""
    _require_two_invertible(C.algebra.base)
    chains = hochschild_chains(C)
    if C.paired:
        return chains, chains
    return EigenComplex(chains, C.omega, 1), EigenComplex(chains, C.omega, -1)


def hh_plus_minus_dimensions(A, n, weight=None):
    """(dim HH_n^+, dim HH_n^-), block by block."""
    _require_two_invertible(A.base)
    parts = [split_plus_minus(C) for C in hochschild_blocks(A, n + 1, weight)]
    return tuple(free_rank(_direct_sum([(chain_homology(P[s], n).group.invariant_factors(), 1)
                                        for P in parts]), A.base)
                 for s in (0, 1))


def hh_omega_fixed_dimension(A, n, weight=None):
    """Independent route: dim of the +1 eigenspace of omega acting on HH_n,
    on the whole weight block."""
    C = DihedralComplex(A, n + 1, weight)
    H = chain_homology(hochschild_chains(C), n)
    Cn = H.cycles.target
    om_H = H.induced(AbMap(Cn, Cn, dense(C.omega[n], C.dim(n))), H)
    fixed = om_H - AbMap.identity_map(H.group)
    return free_rank(Homology(AbMap.zero_map(trivial_group(), H.group), fixed).group, A.base)


def cyclic_class_eigenvalue(n):
    """Eigenvalue of the bicomplex involution on the degree-n cyclic class of
    the ground field: the class sits in column n/2."""
    if n % 2:
        raise ValueError("ground-field cyclic classes live in even degrees")
    return -1 if (n // 2) % 2 else 1


def _is_zero(A):
    return all(x == 0 for row in A for x in row)


def _anticommute(X, Y, Z, W):
    return _is_zero([[x + y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(mat_mul(X, Y), mat_mul(Z, W))])


def reference_operators(C):
    """(b, omega, B) of a DihedralComplex, each {degree: sparse columns},
    built the way the bar complex first built them: every slot a polynomial,
    each product of neighbours through ring.mul and each image through
    omega, once per term, and every term expanded by a recursion over its
    slots that lifts each coefficient and drops the units of the middle
    slots.  trace reads the same products and images from memo tables; the
    columns must agree in value and in order."""
    A = C.algebra
    ring, om = A.ring, A.omega
    unit = (0,) * ring.n

    def mono(m):
        return {m: ring.base.one()}

    def b_terms(tensor):
        n = len(tensor) - 1
        slots = [mono(m) for m in tensor]
        for i in range(n):
            yield (-1 if i % 2 else 1), \
                slots[:i] + [ring.mul(slots[i], slots[i + 1])] + slots[i + 2:]
        yield (-1 if n % 2 else 1), [ring.mul(slots[n], slots[0])] + slots[1:n]

    def omega_terms(tensor):
        n = len(tensor) - 1
        yield (-1 if (n * (n + 1) // 2) % 2 else 1), \
            [om(mono(m)) for m in tensor[:1] + tensor[:0:-1]]

    def B_terms(tensor):
        n = len(tensor) - 1
        for i in range(n + 1):
            yield (-1 if (i * n) % 2 else 1), \
                [ring.one_poly()] + [mono(m) for m in tensor[i:] + tensor[:i]]

    def expand(slots, index, out, coeff):
        def rec(i, acc, c):
            if c == 0:
                return
            if i == len(slots):
                j = index[tuple(acc)]
                out[j] = out.get(j, 0) + c
                return
            for m, cf in slots[i].items():
                if i >= 1 and m == unit:
                    continue  # degenerate
                rec(i + 1, acc + [m], c * integer_lift(cf))
        rec(0, [], coeff)

    def matrix(n, m, terms):
        cols = []
        for tensor in C.bases[n]:
            col = {}
            for sign, slots in terms(tensor):
                expand(slots, C.index[m], col, sign)
            cols.append({i: x for i, x in col.items() if x})
        return cols

    return ({n: matrix(n, n - 1, b_terms) for n in range(1, C.n_max + 1)},
            {n: matrix(n, n, omega_terms) for n in range(0, C.n_max + 1)},
            {n: matrix(n, n + 1, B_terms) for n in range(0, C.n_max)})


def check_identities(C):
    """b^2 = 0, wb = bw, w^2 = 1, B^2 = 0, bB + Bb = 0 and wB = -Bw on a
    DihedralComplex, as dense integer matrices."""
    b = {n: dense(M, C.dim(n - 1)) for n, M in C.b.items()}
    B = {n: dense(M, C.dim(n + 1)) for n, M in C.B.items()}
    w = {n: dense(M, C.dim(n)) for n, M in C.omega.items()}
    for n in range(2, C.n_max + 1):
        assert _is_zero(mat_mul(b[n - 1], b[n])), "b^2 != 0"
    for n in range(1, C.n_max + 1):
        assert mat_mul(w[n - 1], b[n]) == mat_mul(b[n], w[n]), "wb != bw"
    for n in range(0, C.n_max + 1):
        assert mat_mul(w[n], w[n]) == identity(C.dim(n)), "w^2 != 1"
    for n in range(0, C.n_max - 1):
        assert _is_zero(mat_mul(B[n + 1], B[n])), "B^2 != 0"
    for n in range(1, C.n_max):
        assert _anticommute(b[n + 1], B[n], B[n - 1], b[n]), "bB + Bb != 0"
    if C.n_max >= 1:
        assert _is_zero(mat_mul(b[1], B[0])), "bB != 0 in degree 0"
    for n in range(0, C.n_max):
        assert _anticommute(w[n + 1], B[n], B[n], w[n]), "wB + Bw != 0"
    return True


def idempotent_is_idempotent(C):
    """e = (1 + w)/2 squares to itself (needs 2 invertible)."""
    _require_two_invertible(C.algebra.base)
    for n in range(0, C.n_max + 1):
        d = C.dim(n)
        w = dense(C.omega[n], d)
        e = [[Fraction(w[i][j] + (1 if i == j else 0), 2) for j in range(d)] for i in range(d)]
        if mat_mul(e, e) != e:
            return False
    return True
