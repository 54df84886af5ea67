"""Chain-level real Hochschild homology.

The dihedral bar complex of a presented algebra with involution: normalized
Hochschild chains C_n = A (x) Abar^{(x) n} with

    b  = the Hochschild boundary,
    w_n(a0 (x) ... (x) an) = (-1)^{n(n+1)/2} w(a0) (x) w(an) (x) ... (x) w(a1),
    B  = Connes' operator on normalized chains.

These satisfy b^2 = 0, wb = bw, w^2 = 1, B^2 = 0, bB + Bb = 0 and
wB = -Bw exactly; all are asserted in the test suite.  When 2 is invertible
the complex splits along w into C+ and C-, giving HH^{+/-}, the fixed points
of real Hochschild homology, and the dihedral splitting HC = HD + HD' of the
cyclic homology of the (b, B)-bicomplex.

Graded algebras are handled one internal weight at a time (exact per weight);
finite-dimensional algebras in one block.
"""

from fractions import Fraction
from functools import cached_property

from .abelian import (
    AbMap,
    FgAbGroup,
    Homology,
    chain_group,
    identity,
    is_zero_matrix,
    mat_mul,
    trivial_group,
    zeros,
)
from . import complexes as cx
from .mackey import induced
from .polyring import BaseRing, PolyRing, RingInvolution, TwoNotInvertible, integer_lift
from .tambara import free_involutive_free, free_involutive_trivial, mackey_piece


class TraceError(Exception):
    pass


class TruncationTooSmall(TraceError):
    pass


class UnsupportedAlgebra(TraceError):
    pass


class InvolutiveAlgebra:
    """Presented commutative algebra with involution over an exact base."""

    def __init__(self, base, ring, omega, name=""):
        self.base = base
        self.ring = ring
        self.omega = omega
        self.name = name
        if not omega.is_involution():
            raise TraceError("omega is not an involution")
        if not omega.preserves_rules():
            raise TraceError("relations are not omega-stable")

    def is_finite_dimensional(self):
        return self.ring.is_finite_dimensional()

    def __repr__(self):
        return "InvolutiveAlgebra(%s)" % (self.name or self.ring.names)


def algebra_q_poly():
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"])
    return InvolutiveAlgebra(base, ring, RingInvolution.identity(ring), "Q[x]")


def algebra_q_dual_numbers():
    """Q[x]/x^2 with w(x) = -x."""
    base = BaseRing("Q")
    ring = PolyRing(base, ["x"], rules={0: (2, {})})
    return InvolutiveAlgebra(base, ring, RingInvolution(ring, [ring.neg(ring.var(0))]),
                             "Q[x]/x^2, w(x) = -x")


def algebra_gaussian():
    """Q(i) over Q with conjugation: the desk model of C over R."""
    base = BaseRing("Q")
    ring = PolyRing(base, ["i"], rules={0: (2, {(0,): Fraction(-1)})})
    return InvolutiveAlgebra(base, ring, RingInvolution(ring, [ring.neg(ring.var(0))]),
                             "C/R")


def algebra_ground(base=None):
    base = base or BaseRing("Q")
    ring = PolyRing(base, [])
    return InvolutiveAlgebra(base, ring, RingInvolution.identity(ring), "k")


def algebra_poly(base, names, omega_images=None, rules=None):
    ring = PolyRing(base, names, rules=rules or {})
    if omega_images is None:
        om = RingInvolution.identity(ring)
    else:
        om = RingInvolution(ring, omega_images)
    return InvolutiveAlgebra(base, ring, om)


# ---------------------------------------------------------------------------
# the dihedral complex

class DihedralComplex:
    """Normalized Hochschild chains of one weight block (or the whole finite
    complex), with b, omega and B as integer matrices.  The bases and b are
    built here; omega and B are built on first read."""

    def __init__(self, algebra, n_max, weight=None):
        if n_max < 1:
            raise TruncationTooSmall("need n_max >= 1")
        self.algebra = algebra
        self.n_max = n_max
        self.weight = weight
        ring = algebra.ring
        if weight is None and not algebra.is_finite_dimensional():
            raise UnsupportedAlgebra("graded algebra needs a weight block")
        self.bases = {}
        self.index = {}
        for n in range(0, n_max + 1):
            basis = self._basis(n)
            self.bases[n] = basis
            self.index[n] = {t: i for i, t in enumerate(basis)}
        self.b = {n: self._b_matrix(n) for n in range(1, n_max + 1)}

    @cached_property
    def omega(self):
        return {n: self._omega_matrix(n) for n in range(0, self.n_max + 1)}

    @cached_property
    def B(self):
        return {n: self._B_matrix(n) for n in range(0, self.n_max)}

    # -- bases ---------------------------------------------------------------

    def _slot_monomials(self, reduced, budget=None):
        ring = self.algebra.ring
        if self.weight is None:
            monos = ring.monomial_basis_all()
            unit = (0,) * ring.n
            return [m for m in monos if not (reduced and m == unit)]
        out = []
        top = budget if budget is not None else self.weight
        lo = 1 if reduced else 0
        for w in range(lo, top + 1):
            out.extend(ring.monomial_basis_weight(w))
        return out

    def _basis(self, n):
        ring = self.algebra.ring
        out = []

        def rec(i, rem, acc):
            if i == n + 1:
                if self.weight is None or rem == 0:
                    out.append(tuple(acc))
                return
            reduced = i >= 1
            if self.weight is None:
                for m in self._slot_monomials(reduced):
                    rec(i + 1, rem, acc + [m])
            else:
                lo = 1 if reduced else 0
                # leave at least 1 per remaining reduced slot
                remaining = n - i
                for w in range(lo, rem - remaining + 1):
                    for m in ring.monomial_basis_weight(w):
                        rec(i + 1, rem - w, acc + [m])
        rec(0, self.weight if self.weight is not None else 0, [])
        return out

    def dim(self, n):
        return len(self.bases.get(n, ()))

    # -- linear-map plumbing ---------------------------------------------------

    def _expand(self, slots_polys, out, coeff, n):
        """Multilinear expansion of a tensor of polynomials into basis
        tensors, projecting middle slots to Abar; accumulates into out."""
        ring = self.algebra.ring
        unit = (0,) * ring.n

        def rec(i, acc, c):
            if c == 0:
                return
            if i == len(slots_polys):
                t = tuple(acc)
                key = self.index[n].get(t)
                if key is None:
                    return
                out[key] += c
                return
            poly = slots_polys[i]
            for mono, cf in poly.items():
                if i >= 1 and mono == unit:
                    continue  # degenerate
                rec(i + 1, acc + [mono], c * integer_lift(cf))
        rec(0, [], coeff)

    def _b_matrix(self, n):
        ring = self.algebra.ring
        src = self.bases[n]
        tgt = self.bases[n - 1]
        M = zeros(len(tgt), len(src))
        for j, tensor in enumerate(src):
            col = [0] * len(tgt)
            for i in range(n):
                sign = -1 if i % 2 else 1
                prod = ring.mul(_mono(ring, tensor[i]), _mono(ring, tensor[i + 1]))
                slots = [_mono(ring, m) for m in tensor[:i]] + [prod] + \
                    [_mono(ring, m) for m in tensor[i + 2:]]
                self._expand(slots, col, sign, n - 1)
            sign = -1 if n % 2 else 1
            prod = ring.mul(_mono(ring, tensor[n]), _mono(ring, tensor[0]))
            slots = [prod] + [_mono(ring, m) for m in tensor[1:n]]
            self._expand(slots, col, sign, n - 1)
            for i, v in enumerate(col):
                M[i][j] = v
        return M

    def _omega_matrix(self, n):
        ring = self.algebra.ring
        om = self.algebra.omega
        src = self.bases[n]
        M = zeros(len(src), len(src))
        sign = -1 if (n * (n + 1) // 2) % 2 else 1
        for j, tensor in enumerate(src):
            col = [0] * len(src)
            slots = [om(_mono(ring, tensor[0]))]
            for i in range(n, 0, -1):
                slots.append(om(_mono(ring, tensor[i])))
            self._expand(slots, col, sign, n)
            for i, v in enumerate(col):
                M[i][j] = v
        return M

    def _B_matrix(self, n):
        ring = self.algebra.ring
        src = self.bases[n]
        tgt = self.bases[n + 1]
        M = zeros(len(tgt), len(src))
        for j, tensor in enumerate(src):
            col = [0] * len(tgt)
            for i in range(n + 1):
                sign = -1 if (i * n) % 2 else 1
                rotated = tensor[i:] + tensor[:i]
                slots = [ring.one_poly()] + [_mono(ring, m) for m in rotated]
                self._expand(slots, col, sign, n + 1)
            for i, v in enumerate(col):
                M[i][j] = v
        return M

    # -- identities -------------------------------------------------------------

    def check_identities(self):
        for n in range(2, self.n_max + 1):
            assert is_zero_matrix(mat_mul(self.b[n - 1], self.b[n])), "b^2 != 0"
        for n in range(1, self.n_max + 1):
            assert mat_mul(self.omega[n - 1], self.b[n]) == \
                mat_mul(self.b[n], self.omega[n]), "wb != bw"
        for n in range(0, self.n_max + 1):
            assert mat_mul(self.omega[n], self.omega[n]) == identity(self.dim(n)), \
                "w^2 != 1"
        for n in range(0, self.n_max - 1):
            assert is_zero_matrix(mat_mul(self.B[n + 1], self.B[n])), "B^2 != 0"
        for n in range(1, self.n_max):
            bB = mat_mul(self.b[n + 1], self.B[n])
            Bb = mat_mul(self.B[n - 1], self.b[n])
            s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(bB, Bb)]
            assert is_zero_matrix(s), "bB + Bb != 0"
        if self.n_max >= 1:
            bB0 = mat_mul(self.b[1], self.B[0])
            assert is_zero_matrix(bB0), "bB != 0 in degree 0"
        for n in range(0, self.n_max):
            wB = mat_mul(self.omega[n + 1], self.B[n])
            Bw = mat_mul(self.B[n], self.omega[n])
            s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(wB, Bw)]
            assert is_zero_matrix(s), "wB + Bw != 0"
        return True

    def idempotent_is_idempotent(self):
        """e = (1 + w)/2 squares to itself (needs 2 invertible)."""
        if not self.algebra.base.two_invertible:
            raise TwoNotInvertible("2 is not invertible in the base")
        for n in range(0, self.n_max + 1):
            d = self.dim(n)
            e = [[Fraction(self.omega[n][i][j] + (1 if i == j else 0), 2)
                  for j in range(d)] for i in range(d)]
            ee = [[sum(e[i][k] * e[k][j] for k in range(d)) for j in range(d)]
                  for i in range(d)]
            if ee != e:
                return False
        return True


def _mono(ring, m):
    return {m: ring.base.one()}


def hochschild_complex(A, n_max, weight=None):
    return DihedralComplex(A, n_max, weight)


# ---------------------------------------------------------------------------
# complexes of chain groups over the base

class BlockComplex:
    """Chain groups over the base ring with boundaries diffs[n] : C_n ->
    C_{n-1}, as AbMaps; homology goes through abelian.Homology."""

    def __init__(self, groups, diffs, base):
        self.groups = groups
        self.diffs = diffs
        self.base = base

    @classmethod
    def from_matrices(cls, dims, mats, base):
        """Integer boundary matrices on the base's chain groups of rank dims."""
        groups = {n: chain_group(d, base) for n, d in dims.items()}
        diffs = {n: AbMap(groups[n], groups[n - 1], M) for n, M in mats.items()}
        return cls(groups, diffs, base)

    def _diff(self, n):
        d = self.diffs.get(n)
        if d is None:
            d = AbMap.zero_map(self.groups.get(n, trivial_group()),
                               self.groups.get(n - 1, trivial_group()))
        return d

    def homology(self, n):
        return Homology(self._diff(n + 1), self._diff(n), self.base)


def hochschild_chains(C):
    """The Hochschild chains of a DihedralComplex with the boundary b."""
    return BlockComplex.from_matrices({k: C.dim(k) for k in C.bases}, C.b,
                                      C.algebra.base)


def _kernel(f, base):
    """ker(f) over the base, as the homology of 0 -> source -> target."""
    return Homology(AbMap.zero_map(trivial_group(), f.source), f, base)


def hh_group(A, n, weight=None):
    """HH_n over the base ring of A (integral structure constants).

    The result is an FgAbGroup, whose ``.rank()`` counts Z summands only:
    over Z/m it is 0 and the dimension sits in the Z/m summands.  Use
    ``hh_dimension`` for the free rank over the base."""
    return hochschild_chains(hochschild_complex(A, n + 1, weight)).homology(n).group


def hh_dimension(A, n, weight=None):
    """dim_k HH_n: the free rank over the base."""
    return hochschild_chains(hochschild_complex(A, n + 1, weight)).homology(n).rank()


def hr_underlying(A, n, weight=None):
    """Underlying homotopy of real Hochschild homology: HH_n(A^e/k)."""
    return hh_group(A, n, weight=weight)


# ---------------------------------------------------------------------------
# +/- splitting

def _eigen_subcomplex(C, invol, sign):
    """Kernel of (invol - sign) on each chain group of the BlockComplex C,
    with the restricted boundary.  On (Z/m)^d the kernel is taken mod m, so
    an integer lift of the involution (entries m - 1 for -1) is enough."""
    parts = {}
    for n, G in C.groups.items():
        shifted = [[x - sign if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(invol[n])]
        parts[n] = _kernel(AbMap(G, G, shifted), C.base)
    diffs = {n: parts[n].induced(d, parts[n - 1]) for n, d in C.diffs.items()}
    return BlockComplex({n: P.group for n, P in parts.items()}, diffs, C.base)


def split_plus_minus(C):
    """(C+, C-) : the omega-eigenvalue subcomplexes of the Hochschild complex."""
    if not C.algebra.base.two_invertible:
        raise TwoNotInvertible("2 is not invertible in the base")
    chains = hochschild_chains(C)
    return _eigen_subcomplex(chains, C.omega, 1), _eigen_subcomplex(chains, C.omega, -1)


def hh_plus_minus_dimensions(A, n, weight=None):
    """(dim HH_n^+, dim HH_n^-)."""
    C = hochschild_complex(A, n + 1, weight)
    plus, minus = split_plus_minus(C)
    return plus.homology(n).rank(), minus.homology(n).rank()


def hr_fixed_points(A, n, weight=None):
    """pi_n of HR^{C2} when 2 is invertible: HH_n^+(A^e/k)."""
    if not A.base.two_invertible:
        raise TwoNotInvertible("2 is not invertible in the base")
    return hh_plus_minus_dimensions(A, n, weight)[0]


def hh_omega_fixed_dimension(A, n, weight=None):
    """Independent route: dim of the +1 eigenspace of omega acting on HH_n."""
    C = hochschild_complex(A, n + 1, weight)
    H = hochschild_chains(C).homology(n)
    Cn = H.cycles.target
    om_H = H.induced(AbMap(Cn, Cn, C.omega[n]), H)
    return _kernel(om_H - AbMap.identity_map(H.group), A.base).rank()


# ---------------------------------------------------------------------------
# cyclic and dihedral homology

class DihedralHomology:
    def __init__(self, hc, hd, hd_prime):
        self.hc = hc
        self.hd = hd
        self.hd_prime = hd_prime


def dihedral_homology(A, n_max, weight=None):
    """HC, HD, HD' of the (b, B)-bicomplex truncated at n_max columns.

    Returns per-degree dimensions (free ranks over the base) for
    0 <= n <= n_max.  The bicomplex involution acts by (-1)^i omega on
    column i; HD is its +1 part.
    """
    if not A.base.two_invertible:
        raise TwoNotInvertible("2 is not invertible in the base")
    C = hochschild_complex(A, n_max + 1, weight)
    # total complex T_n = sum over columns i of C_{n - 2i}
    layout = {}
    dims = {}
    for n in range(0, n_max + 2):
        cols = [(i, n - 2 * i) for i in range(0, n_max + 1) if 0 <= n - 2 * i <= C.n_max]
        layout[n] = cols
        dims[n] = sum(C.dim(q) for _, q in cols)
    offs = {}
    for n, cols in layout.items():
        off = 0
        offs[n] = {}
        for key in cols:
            offs[n][key] = off
            off += C.dim(key[1])
    mats = {}
    for n in range(1, n_max + 2):
        M = zeros(dims[n - 1], dims[n])
        for (i, q) in layout[n]:
            src_off = offs[n][(i, q)]
            if (i, q - 1) in offs[n - 1] and q >= 1:
                b = C.b[q]
                t_off = offs[n - 1][(i, q - 1)]
                for r in range(C.dim(q - 1)):
                    for c in range(C.dim(q)):
                        M[t_off + r][src_off + c] += b[r][c]
            if (i - 1, q + 1) in offs[n - 1] and q <= C.n_max - 1:
                Bm = C.B[q]
                t_off = offs[n - 1][(i - 1, q + 1)]
                for r in range(C.dim(q + 1)):
                    for c in range(C.dim(q)):
                        M[t_off + r][src_off + c] += Bm[r][c]
        mats[n] = M
    invol = {}
    for n in range(0, n_max + 2):
        M = zeros(dims[n], dims[n])
        for (i, q) in layout[n]:
            off = offs[n][(i, q)]
            sgn = -1 if i % 2 else 1
            om = C.omega[q]
            for r in range(C.dim(q)):
                for c in range(C.dim(q)):
                    M[off + r][off + c] = sgn * om[r][c]
        invol[n] = M
    T = BlockComplex.from_matrices(dims, mats, A.base)
    # sanity: the involution commutes with the total differential (compared
    # in the chain groups, so mod m over Z/m)
    for n, d in T.diffs.items():
        lhs = AbMap(d.source, d.target, mat_mul(invol[n - 1], d.matrix))
        if not lhs.equals(AbMap(d.source, d.target, mat_mul(d.matrix, invol[n]))):
            raise TraceError("bicomplex involution does not commute with b + B")
    hc = [T.homology(n).rank() for n in range(0, n_max + 1)]
    plus = _eigen_subcomplex(T, invol, 1)
    minus = _eigen_subcomplex(T, invol, -1)
    hd = [plus.homology(n).rank() for n in range(0, n_max + 1)]
    hdp = [minus.homology(n).rank() for n in range(0, n_max + 1)]
    return DihedralHomology(hc, hd, hdp)


def cyclic_class_eigenvalue(n):
    """Eigenvalue of the bicomplex involution on the degree-n cyclic class of
    the ground field: the class sits in column n/2."""
    if n % 2:
        raise ValueError("ground-field cyclic classes live in even degrees")
    return -1 if (n // 2) % 2 else 1


# ---------------------------------------------------------------------------
# graded pieces of genuine HR via the norm resolutions

def hr_graded_pieces(kind, i, weight, trunc=8):
    """The weight block of gr^i HR for the two monogenic cases over Z.

    kind "trivial" (or a free_involutive_trivial presentation on one
    generator): gr^0 = the algebra, gr^1 = Sigma^sigma(the algebra),
    0 otherwise.
    kind "free" (or a free_involutive_free presentation):
        gr^0 = the algebra, gr^1 = Sigma^1(algebra (x) C2),
        gr^2 = Sigma^{sigma + 1}(algebra), 0 otherwise.

    Products with the resolution differentials vanish after base change
    along the augmentation, so each graded piece is the stated suspension
    with zero differential; the suspensions are built through
    complexes.suspend_sigma / shift.
    """
    kind = _monogenic_kind_of(kind)
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
            return cx.suspend_sigma(cx.single(piece), 1)
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
            return cx.suspend_sigma(cx.single(piece).shift(1), 1)
        return cx.MackeyComplex({}, {})
    raise UnsupportedAlgebra("hr_graded_pieces supports the two monogenic cases")


def _monogenic_kind_of(B):
    if isinstance(B, str):
        return B
    ring = getattr(B, "ring", None)
    if ring is not None and not ring.rules:
        names = list(ring.names)
        sig = B.sigma
        if len(names) == 1 and ring.equal(sig.images[0], ring.var(0)):
            return "trivial"
        if len(names) == 2 and ring.equal(sig.images[0], ring.var(1)) \
                and ring.equal(sig.images[1], ring.var(0)):
            return "free"
    raise UnsupportedAlgebra("expected k[x^triv] or k[x, x_s]")


def hr_underlying_dims_from_graded(kind, weight, degrees, trunc=8):
    """Sum over i of the underlying homology ranks of gr^i in each degree."""
    out = {n: 0 for n in degrees}
    for i in range(0, 3):
        C = hr_graded_pieces(kind, i, weight, trunc)
        if not C.terms:
            continue
        for n in degrees:
            out[n] += cx.homology(C, n).underlying.rank()
    return out


def bar_algebra_for(kind):
    base = BaseRing("Z")
    if kind == "trivial":
        ring = PolyRing(base, ["x"])
        return InvolutiveAlgebra(base, ring, RingInvolution.identity(ring), "k[x]")
    if kind == "free":
        ring = PolyRing(base, ["x", "x_s"])
        om = RingInvolution(ring, [ring.var(1), ring.var(0)])
        return InvolutiveAlgebra(base, ring, om, "k[x, x_s]")
    raise UnsupportedAlgebra(kind)
