"""Bounded chain complexes of Mackey functors.

Provides homology with induced Lewis structure, representation-sphere
suspension, box products of complexes with Koszul signs, graded norms, and
the regular-slice connectivity checks on underlying and geometric fixed
points.

S^{k sigma} smashed with zbar is its reduced C2-CW chain complex (Hill-
Hopkins-Ravenel), |k| + 1 cells: zbar in degree 0 and zbar_c2 in each degree
1..k (k > 0) or -1..k (k < 0).  Outward from degree 0 the differentials are
the fold zbar_c2 -> zbar (fixed x2) for k > 0 or its dual, the diagonal
zbar -> zbar_c2 (fixed x1) for k < 0; then 1 - sigma (fixed 0), 1 + sigma
(fixed x2), 1 - sigma, ... between the zbar_c2 cells.
"""

from .abelian import (
    AbMap,
    ChainComplex,
    FgAbGroup,
    Homology,
    block_matrix,
    cokernel,
    identity,
    mat_mul,
    zeros,
)
from . import abelian
from .mackey import (
    MackeyFunctor,
    MackeyMap,
    box,
    box_map,
    direct_sum,
    validate,
    zbar,
    zbar_c2,
    zero_mackey,
)


class ComplexError(Exception):
    pass


class NotAComplex(ComplexError):
    pass


class NotFreeTerms(ComplexError):
    pass


class NotFree(ComplexError):
    pass


class MackeyComplex:
    """terms: degree -> MackeyFunctor, diffs: degree n -> MackeyMap to n-1."""

    def __init__(self, terms, diffs):
        self.terms = dict(terms)
        self.diffs = dict(diffs)

    def degrees(self):
        return sorted(self.terms)

    def term(self, n):
        return self.terms.get(n) or zero_mackey()

    def diff(self, n):
        d = self.diffs.get(n)
        if d is None:
            return MackeyMap.zero_map(self.term(n), self.term(n - 1))
        return d

    def check(self):
        for n, d in self.diffs.items():
            if not d.is_valid():
                raise NotAComplex("differential at degree %d is not a Mackey map" % n)
            if (n - 1) in self.diffs:
                comp = self.diffs[n - 1].compose(d)
                if not comp.is_zero():
                    raise NotAComplex("d o d != 0 at degree %d" % n)
        return self

    def shift(self, k):
        """Suspension by S^k: degrees move up by k, differentials keep sign
        (-1)^k per the Koszul convention."""
        sign = -1 if k % 2 else 1
        terms = {n + k: M for n, M in self.terms.items()}
        diffs = {n + k: (d.scale(sign) if sign < 0 else d)
                 for n, d in self.diffs.items()}
        return MackeyComplex(terms, diffs)


def single(M, degree=0):
    return MackeyComplex({degree: M}, {})


def homology(C, n):
    """Levelwise homology at degree n with induced res/tr/sigma."""
    d_n = C.diff(n)
    d_np1 = C.diff(n + 1)
    try:
        Hf = Homology(d_np1.f_fixed, d_n.f_fixed)
        He = Homology(d_np1.f_underlying, d_n.f_underlying)
    except abelian.NotAComplex:
        raise NotAComplex("d o d != 0 at degree %d" % (n + 1))
    M = C.term(n)
    H = MackeyFunctor(Hf.group, He.group, Hf.induced(M.res, He),
                      He.induced(M.tr, Hf), He.induced(M.sigma, He))
    v = validate(H)
    if v is not None:
        raise ComplexError("homology failed Lewis validation: %r" % v)
    return H


def homology_table(C):
    degs = C.degrees()
    if not degs:
        return {}
    lo, hi = min(degs), max(degs)
    return {n: homology(C, n) for n in range(lo, hi + 1)}


# ---------------------------------------------------------------------------
# sign-sphere cells

def sign_sphere(k):
    """S^{k sigma} smashed with zbar, k any integer (see the module docstring)."""
    if k == 0:
        return single(zbar())
    terms = {n: zbar_c2() if n else zbar()
             for n in range(max(k, 0), min(k, 0) - 1, -1)}
    diffs = {}
    for m in range(1, abs(k) + 1):  # joins the cells in degrees +-(m - 1), +-m
        if m == 1:
            fixed, und = ([[2]], [[1, 1]]) if k > 0 else ([[1]], [[1], [1]])
        elif m % 2 == 0:
            fixed, und = [[0]], [[1, -1], [-1, 1]]
        else:
            fixed, und = [[2]], [[1, 1], [1, 1]]
        n = m if k > 0 else 1 - m
        src, tgt = terms[n], terms[n - 1]
        diffs[n] = MackeyMap(src, tgt, AbMap(src.fixed, tgt.fixed, fixed),
                             AbMap(src.underlying, tgt.underlying, und))
    return MackeyComplex(terms, diffs)


def dual_circle_complex():
    """The two-term complex from the dual filtered involutive circle.

    zbar + zbar --((1,0),(0,1) both to e + sigma)--> zbar_c2, in degrees
    0 and -1; its homology is zbar in degree 0 and zsign in degree -1.
    """
    src = direct_sum([zbar(), zbar()])
    tgt = zbar_c2()
    d = MackeyMap(src, tgt,
                  AbMap(src.fixed, tgt.fixed, [[1, 1]]),
                  AbMap(src.underlying, tgt.underlying, [[1, 1], [1, 1]]))
    return MackeyComplex({0: src, -1: tgt}, {0: d})


# ---------------------------------------------------------------------------
# box product of complexes

def box_complex(C, D):
    """Total complex of the levelwise box with Koszul signs.

    d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy.
    """
    pieces = {(i, j): box(C.term(i), D.term(j)) for i in C.degrees() for j in D.degrees()}
    layout = {}
    for key in pieces:  # (i, j) in sorted order, so each layout[n] is sorted
        layout.setdefault(sum(key), []).append(key)
    terms = {n: direct_sum([pieces[k] for k in keys]) for n, keys in layout.items()}
    diffs = {}
    for n in sorted(terms):
        if (n - 1) not in terms:
            continue
        blocks = {}
        for (i, j) in layout[n]:
            if (i - 1, j) in pieces:
                blocks[(i - 1, j), (i, j)] = box_map(
                    C.diff(i), MackeyMap.identity_map(D.term(j)),
                    pieces[(i, j)], pieces[(i - 1, j)])
            if (i, j - 1) in pieces:
                g = box_map(MackeyMap.identity_map(C.term(i)), D.diff(j),
                            pieces[(i, j)], pieces[(i, j - 1)])
                blocks[(i, j - 1), (i, j)] = g.scale(-1) if i % 2 else g
        src, tgt = terms[n], terms[n - 1]

        def level(name):
            # the level `name` of d_n, one block per pair of box pieces
            def sizes(m):
                return {k: getattr(pieces[k], name).ngens for k in layout[m]}
            M = block_matrix(sizes(n - 1), sizes(n),
                             {k: getattr(f, "f_" + name).matrix for k, f in blocks.items()})
            return AbMap(getattr(src, name), getattr(tgt, name), M)
        diffs[n] = MackeyMap(src, tgt, level("fixed"), level("underlying"))
    return MackeyComplex(terms, diffs)


def suspend_sigma(C, k):
    """Smash with S^{k sigma}: one box product with sign_sphere(k)."""
    return box_complex(C, sign_sphere(k)) if k else C


def suspend_rho(C, k):
    """S^rho = S^{1 + sigma}: an integer shift composed with suspend_sigma."""
    return suspend_sigma(C.shift(k), k)


# ---------------------------------------------------------------------------
# geometric fixed points of complexes and slice checks

def phi_complex(C):
    """Levelwise coker(tr) with induced differentials: a ChainComplex over Z.

    Only sound (exact) on complexes whose terms are direct sums of zbar and
    zbar_c2 cells; enforced via the cell tags the builders propagate.
    """
    for n in C.degrees():
        if C.term(n).cells is None:
            raise NotFreeTerms("term in degree %d has no free-cell structure" % n)
    groups = {n: cokernel(C.term(n).tr)[0] for n in C.degrees()}
    diffs = {n: AbMap(groups[n], groups[n - 1], C.diff(n).f_fixed.matrix)
             for n in C.degrees() if (n - 1) in groups}
    return ChainComplex(groups, diffs)


def is_regular_slice_connective(C, n):
    """True iff H_k(C^e) = 0 for k < n and H_k(Phi C) = 0 for k < ceil(n/2)."""
    phi = phi_complex(C)
    degs = C.degrees()
    if not degs:
        return True
    lo, hi = min(degs), max(degs)
    for k in range(lo, min(n, hi + 1)):
        if not homology(C, k).underlying.is_trivial():
            return False
    phi_bound = -((-n) // 2)  # ceil(n/2)
    for k in range(lo, min(phi_bound, hi + 1)):
        if not phi.homology(k).group.is_trivial():
            return False
    return True


def is_regular_slice_coconnective(C, n):
    """Necessary conditions only: H_k(C^e) = 0 for k > n and
    H_k(C^{C2}) = 0 for k > floor(n/2).  Returns "passes-necessary-conditions"
    or "fails"."""
    if n > 0:
        raise ComplexError("coconnectivity check is stated for n <= 0")
    # demand the same free-term structure as the connective check
    for k in C.degrees():
        if C.term(k).cells is None:
            raise NotFreeTerms("term in degree %d has no free-cell structure" % k)
    degs = C.degrees()
    if not degs:
        return "passes-necessary-conditions"
    for k in range(n + 1, max(degs) + 2):  # n <= 0, so n <= floor(n/2)
        H = homology(C, k)
        if not H.underlying.is_trivial() or (k > n // 2 and not H.fixed.is_trivial()):
            return "fails"
    return "passes-necessary-conditions"


# ---------------------------------------------------------------------------
# graded norms

class GradedMackeyModule:
    """pieces: weight -> MackeyFunctor, with an attached norm table."""

    def __init__(self, pieces, norm_table=None):
        self.pieces = dict(pieces)
        self.norm_table = norm_table or {}

    def piece(self, w):
        return self.pieces.get(w) or zero_mackey()

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
    weights = sorted(B)
    if not weights:
        return GradedMackeyModule({})
    out = {}
    table = {}
    for m in range(2 * min(weights), 2 * max(weights) + 1):
        summands = [(i, m - i) for i in weights if (m - i) in B]
        if not summands:
            continue
        piece, entries = _norm_weight_piece(B, m, summands)
        out[m] = piece
        if entries:
            table[m] = entries
    return GradedMackeyModule(out, table)


def _norm_sign(i, j):
    return -1 if (i * j + min(i, j)) % 2 else 1


def _norm_weight_piece(B, m, summands):
    # underlying: direct sum of B_i (x) B_j with twisted swap
    sizes = {}
    offs = {}
    off = 0
    for (i, j) in summands:
        sizes[(i, j)] = B[i][0] * B[j][0]
        offs[(i, j)] = off
        off += sizes[(i, j)]
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
    diag_rank = B[m // 2][0] if m % 2 == 0 and (m // 2) in B else 0
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
    entries = []
    if diag_rank:
        h = m // 2
        rh, sh = B[h]
        base = offs[(h, h)]
        for k in range(rh):
            col = [0] * n_und
            for b2 in range(rh):
                c = sh[b2][k]
                if c:
                    col[base + k * rh + b2] += c
            for a in range(n_und):
                res_m[a][k] = col[a]
    for a in range(n_und):
        res_m[a][diag_rank + a] += 1
        for a2 in range(n_und):
            res_m[a2][diag_rank + a] += sig_und[a2][a]
    res = AbMap(fixed, und, res_m)
    tr_m = zeros(n_fixed, n_und)
    for a in range(n_und):
        tr_m[diag_rank + a][a] = 1
    tr = AbMap(und, fixed, tr_m)
    piece = MackeyFunctor(fixed, und, res, tr, sigma)
    # norm table entries with the odd-weight Koszul convention
    if diag_rank:
        h = m // 2
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


def euler_characteristics(C):
    """(fixed, underlying) alternating rank sums of the terms."""
    ef = eu = 0
    for n in C.degrees():
        sgn = -1 if n % 2 else 1
        ef += sgn * C.term(n).fixed.rank()
        eu += sgn * C.term(n).underlying.rank()
    return ef, eu


def euler_characteristics_homology(C):
    ef = eu = 0
    degs = C.degrees()
    if not degs:
        return 0, 0
    for n in range(min(degs), max(degs) + 1):
        H = homology(C, n)
        sgn = -1 if n % 2 else 1
        ef += sgn * H.fixed.rank()
        eu += sgn * H.underlying.rank()
    return ef, eu
