"""Exact integer linear algebra for finitely generated abelian groups.

Everything is built on Smith normal form over Z with arbitrary-precision
integers: presentations of f.g. abelian groups, homomorphisms between them,
kernels, cokernels and homology.  Elements of a group presented on n ambient
generators are length-n integer tuples; a homomorphism is an integer matrix
acting on column vectors.

Homology over a base ring (Z, Z[1/2], Q or Z/m, read from a polyring
BaseRing) has one home here, the Homology class, and the base-ring rule
lives only in this module:

* chain_group(dim, base) presents a free base-module of rank dim: as
  (Z/m)^dim (relations m*I) over Z/m, as Z^dim over every other base;
* over Z the homology comes from SNF, over Z/m from those presentations;
* Q and Z[1/2] are flat over Z, so the homology is computed over Z and then
  localized: over Q all torsion is dropped, over Z[1/2] the powers of 2 are
  dropped from the invariant factors.

A Z summand of a homology group is then a free rank-1 summand over the base.

>>> G = FgAbGroup.from_invariants([2, 0])
>>> G.invariant_factors()
(2, 0)
>>> f = AbMap(Z(), Z(), [[2]])
>>> cokernel(f)[0].invariant_factors()
(2,)
"""

from functools import cached_property
from itertools import product


class AbelianError(Exception):
    pass


class IllFormedMap(AbelianError):
    pass


class NotAComplex(AbelianError):
    pass


# ---------------------------------------------------------------------------
# matrix helpers (lists of lists of int, row-major)

def mat_copy(A):
    return [list(row) for row in A]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    n = len(B[0]) if B else 0
    inner = len(B)
    out = []
    for row in A:
        out_row = []
        for j in range(n):
            s = 0
            for k in range(inner):
                a = row[k]
                if a:
                    s += a * B[k][j]
            out_row.append(s)
        out.append(out_row)
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def is_zero_matrix(A):
    return all(all(x == 0 for x in row) for row in A)


def hstack(A, B):
    if not A:
        return mat_copy(B)
    if not B:
        return mat_copy(A)
    return [list(ra) + list(rb) for ra, rb in zip(A, B)]


def kronecker(A, B, arows, acols, brows, bcols):
    """Kronecker product; index (i, j) of the tensor is i * bdim + j."""
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


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(A):
    """U, D, V with U*A*V = D, D diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular.  Pivots are chosen by minimal absolute value;
    plain gcd-driven row/column elimination, no modular shortcuts.

    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    D = mat_copy(A)
    m = len(D)
    n = len(D[0]) if D else 0
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while True:
        # find the minimal-absolute-value nonzero entry in D[t:, t:]
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = D[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t]:
                        # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility d_t | entries of the remaining block
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t]:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue  # redo elimination at the same t
        if D[t][t] < 0:
            negate_row(t)
        t += 1
        if t == m or t == n:
            break
    return U, D, V


def diagonal_of(D):
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k)]


def _unimodular_inverse(V):
    n = len(V)
    if n == 0:
        return []
    U2, D2, V2 = smith_normal_form(V)
    # U2 * V * V2 = D2 = identity-signed; V^-1 = V2 * D2^-1 * U2
    Dinv = identity(n)
    for i in range(n):
        if D2[i][i] not in (1, -1):
            raise ValueError("matrix is not unimodular")
        Dinv[i][i] = D2[i][i]
    return mat_mul(mat_mul(V2, Dinv), U2)


def integer_kernel(A, ncols):
    """Basis (list of length-ncols vectors) of {x : A x = 0}."""
    if not A:
        return [list(row) for row in identity(ncols)]
    U, D, V = smith_normal_form(A)
    rank = sum(1 for d in diagonal_of(D) if d)
    cols = transpose(V)
    return [cols[j] for j in range(rank, ncols)]


def solve_integer(A, b, ncols):
    """One x with A x = b, or None.  A has ncols columns."""
    return _solve_columns(A, [b], ncols)[0]


def _solve_columns(A, bs, ncols):
    """solve_integer for every right-hand side in bs, with one SNF of A."""
    if not A:
        return [[0] * ncols if not any(b) else None for b in bs]
    U, D, V = smith_normal_form(A)
    diag = diagonal_of(D)
    out = []
    for b in bs:
        y = [0] * ncols
        for i, ci in enumerate(mat_vec(U, b)):
            d = diag[i] if i < len(diag) else 0
            if (ci % d if d else ci):
                y = None
                break
            if d:
                y[i] = ci // d
        out.append(None if y is None else mat_vec(V, y))
    return out


def hermite_normal_form(A):
    """Row Hermite normal form (nonnegative pivots, zero rows dropped)."""
    rows = [list(r) for r in A if any(r)]
    if not rows:
        return []
    n = len(rows[0])
    out = []
    col = 0
    while rows and col < n:
        # pick row with nonzero entry of minimal abs value at col
        cand = [r for r in rows if r[col]]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                for j in range(n):
                    r[j] -= q * piv[j]
                if r[col]:
                    done = False
            cand = [r for r in cand if r[col]] or [piv]
            if done or len(cand) == 1:
                break
        piv = cand[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        rest = []
        for r in rows:
            if r is not piv and any(r):
                q = r[col] // piv[col] if piv[col] else 0
                rr = [x - q * y for x, y in zip(r, piv)]
                if any(rr):
                    rest.append(rr)
        rows = rest
        col += 1
    # reduce entries above pivots
    out.sort(key=lambda r: next(j for j, x in enumerate(r) if x))
    for i in range(len(out) - 1, -1, -1):
        piv_col = next(j for j, x in enumerate(out[i]) if x)
        for k in range(i):
            q = out[k][piv_col] // out[i][piv_col]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[i])]
    return out


# ---------------------------------------------------------------------------
# groups

class FgAbGroup:
    """Finitely generated abelian group Z^n / rowspan(relations).

    relations: iterable of length-n integer rows.  The Hermite normal form
    of the relations is the canonical stored presentation.

    The group is factored once: U R V = D is the Smith form of the relations
    R, orders[i] = d_i (zero-padded to n entries), and V^T v are the
    coordinates of v in which the relations are diagonal.  One rule decides
    membership: v is zero exactly when each coordinate of V^T v is divisible
    by its order (order 0: the coordinate is 0).  Presentations already in
    Smith form, such as free groups and the (Z/m)^d chain groups, have
    V = identity and run no SNF.  V^-1 is computed only for canonical_basis.
    """

    def __init__(self, ngens, relations=(), labels=None):
        self.ngens = ngens
        rels = [list(r) for r in relations]
        for r in rels:
            if len(r) != ngens:
                raise ValueError("relation length != number of generators")
        self.relations = hermite_normal_form(rels)
        self.labels = list(labels) if labels else None

    @cached_property
    def _factors(self):
        """(orders, V^T), with V^T None when V is the identity."""
        R = self.relations
        diag, Vt = [r[i] for i, r in enumerate(R)], None
        in_smith_form = all(sum(map(bool, r)) == 1 and d for r, d in zip(R, diag)) \
            and not any(b % a for a, b in zip(diag, diag[1:]))
        if not in_smith_form:
            _, D, V = smith_normal_form(R)
            diag, Vt = diagonal_of(D), transpose(V)
        return diag + [0] * (self.ngens - len(diag)), Vt

    def invariant_factors(self):
        """Nonnegative, each dividing the next, 0 = Z, units dropped.

        >>> FgAbGroup(2, [[2, 0], [0, 4]]).invariant_factors()
        (2, 4)
        """
        return tuple(d for d in self._factors[0] if d != 1)

    def rank(self):
        """Number of Z summands; ``Homology.rank`` counts free summands over
        a base ring Z/m."""
        return sum(1 for d in self.invariant_factors() if d == 0)

    def torsion(self):
        return tuple(d for d in self.invariant_factors() if d)

    def is_trivial(self):
        return not self.invariant_factors()

    def contains_zero(self, v):
        """Is the class of v the identity?

        >>> G = FgAbGroup(2, [[2, -1]])
        >>> G.contains_zero([2, -1]), G.contains_zero([1, 0])
        (True, False)
        """
        return not any(self.canonical_coords(v))

    def canonical_basis(self):
        """Ambient vectors whose classes are the invariant-factor generators,
        in the order of invariant_factors(): rows of V^-1."""
        return [list(r) for r, d in zip(self._vinv, self._factors[0]) if d != 1]

    @cached_property
    def _vinv(self):
        Vt = self._factors[1]
        return identity(self.ngens) if Vt is None else _unimodular_inverse(transpose(Vt))

    def canonical_coords(self, v):
        """Coordinates of [v] in the invariant-factor decomposition."""
        orders, Vt = self._factors
        y = v if Vt is None else mat_vec(Vt, v)
        return [yi % d if d else yi for yi, d in zip(y, orders) if d != 1]

    def elements(self):
        """Iterate all elements (finite groups only), in canonical coords."""
        inv = self.invariant_factors()
        if any(d == 0 for d in inv):
            raise ValueError("infinite group")
        for tup in product(*[range(d) for d in inv]):
            yield list(tup)

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.invariant_factors() == other.invariant_factors()

    def __hash__(self):
        return hash(self.invariant_factors())

    def __repr__(self):
        return "FgAbGroup%r" % (self.invariant_factors(),)

    def __str__(self):
        return render_invariants(self.invariant_factors())

    @classmethod
    def from_invariants(cls, invs):
        rels = []
        n = len(invs)
        for i, d in enumerate(invs):
            if d:
                row = [0] * n
                row[i] = d
                rels.append(row)
        return cls(n, rels)

    @classmethod
    def free(cls, n, labels=None):
        return cls(n, (), labels)


def render_invariants(invs):
    if not invs:
        return "0"
    parts = ["Z" if d == 0 else "Z/%d" % d for d in invs]
    return " + ".join(parts)


def Z():
    return FgAbGroup.free(1)


def Zmod(m):
    return FgAbGroup(1, [[m]])


def trivial_group():
    return FgAbGroup(0)


def direct_sum_groups(groups):
    n = sum(g.ngens for g in groups)
    rels = []
    offset = 0
    for g in groups:
        for r in g.relations:
            row = [0] * n
            row[offset:offset + g.ngens] = r
            rels.append(row)
        offset += g.ngens
    return FgAbGroup(n, rels)


# ---------------------------------------------------------------------------
# maps

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
        for r in self.source.relations:
            if not self.target.contains_zero(mat_vec(self.matrix, r)):
                return False
        return True

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

    def __neg__(self):
        return AbMap(self.source, self.target, [[-a for a in r] for r in self.matrix])

    def scale(self, c):
        return AbMap(self.source, self.target, [[c * a for a in r] for r in self.matrix])

    def equals(self, other):
        """Equality as maps, i.e. matrix equality modulo target relations."""
        return self.source.ngens == other.source.ngens and (self - other).is_zero()

    def is_zero(self):
        return all(self.target.contains_zero([row[j] for row in self.matrix])
                   for j in range(self.source.ngens))

    def __repr__(self):
        return "AbMap(%r -> %r)" % (self.source, self.target)

    @classmethod
    def identity_map(cls, G):
        return cls(G, G, identity(G.ngens))

    @classmethod
    def zero_map(cls, source, target):
        return cls(source, target, zeros(target.ngens, source.ngens))


def direct_sum_maps(maps, source=None, target=None):
    src = source or direct_sum_groups([f.source for f in maps])
    tgt = target or direct_sum_groups([f.target for f in maps])
    M = zeros(tgt.ngens, src.ngens)
    roff = coff = 0
    for f in maps:
        for i in range(f.target.ngens):
            for j in range(f.source.ngens):
                M[roff + i][coff + j] = f.matrix[i][j]
        roff += f.target.ngens
        coff += f.source.ngens
    return AbMap(src, tgt, M)


# ---------------------------------------------------------------------------
# kernels, cokernels, homology

def subgroup_coords(gens, relations, vectors, ngens_ambient):
    """For each v in vectors, a y with gens*y = v modulo rowspan(relations),
    or None if there is none.  One SNF serves all the vectors.

    gens: list of column vectors (each length ngens_ambient).
    """
    cols = [list(g) for g in gens]
    rel_cols = transpose(relations) if relations else []
    A = []
    for i in range(ngens_ambient):
        row = [c[i] for c in cols]
        if rel_cols:
            row += rel_cols[i]
        A.append(row)
    sols = _solve_columns(A, [list(v) for v in vectors], len(cols) + len(relations))
    return [None if y is None else y[:len(cols)] for y in sols]


def kernel(f):
    """(K, inclusion) with K = ker(f) as a subgroup of the source.

    >>> f = AbMap(FgAbGroup.free(2), Z(), [[1, 1]])
    >>> kernel(f)[0].invariant_factors()
    (0,)
    """
    f.check()
    n = f.source.ngens
    # x with f(x) in rowspan(target relations): kernel of [M | -Rt^T]
    Rt = f.target.relations
    A = hstack(f.matrix, [[-x for x in col] for col in transpose(Rt)] if Rt else [])
    ncols = n + (len(Rt) if Rt else 0)
    full = integer_kernel(A, ncols) if f.target.ngens else [list(r) for r in identity(n)]
    gens = [v[:n] for v in full]
    gens = [g for g in hermite_normal_form(gens)] if gens else []
    # relations among the kernel generators: combos landing in source relations
    if gens:
        gen_cols = transpose(gens)  # n x s
        Rs = f.source.relations
        B = hstack(gen_cols, [[-x for x in col] for col in transpose(Rs)] if Rs else [])
        bk = integer_kernel(B, len(gens) + (len(Rs) if Rs else 0))
        rels = [v[:len(gens)] for v in bk]
    else:
        rels = []
    K = FgAbGroup(len(gens), rels)
    incl = AbMap(K, f.source, transpose(gens) if gens else [[] for _ in range(n)])
    return K, incl


def cokernel(f):
    """(C, projection) with C = target/im(f)."""
    f.check()
    rels = [list(r) for r in f.target.relations]
    for e in identity(f.source.ngens):
        rels.append(mat_vec(f.matrix, e))
    C = FgAbGroup(f.target.ngens, rels, f.target.labels)
    proj = AbMap(f.target, C, identity(f.target.ngens))
    return C, proj


def chain_group(dim, base=None):
    """The free base-module of rank dim as an abelian group: (Z/m)^dim, with
    relations m*I, over Z/m; Z^dim over Z, Z[1/2] and Q."""
    m = _modulus(base)
    return FgAbGroup(dim, [[m if i == j else 0 for j in range(dim)]
                           for i in range(dim)] if m else ())


def _modulus(base):
    return base.modulus if base is not None and base.kind == "Z/m" else 0


def _localize(G, base):
    """G tensored with a base that is flat over Z, on the same generators:
    over Q all torsion is dropped, over Z[1/2] the powers of 2."""
    kind = base.kind if base is not None else "Z"
    if kind not in ("Q", "Z[1/2]") or not G.relations:
        return G
    invs = G.invariant_factors()
    # d & -d is the largest power of 2 dividing d > 0
    kept = [0 if d == 0 else 1 if kind == "Q" else d // (d & -d) for d in invs]
    if kept == list(invs):
        return G
    return FgAbGroup(G.ngens, G.relations + [[k * x for x in b] for b, k in
                                             zip(G.canonical_basis(), kept) if k])


class Homology:
    """ker(d_out) / im(d_in) over a base ring (None means Z).

    d_in and d_out are AbMaps between the base's chain groups, as presented
    by chain_group; d_out o d_in = 0 is checked here.

    group: the homology over the base, presented on the kernel generators;
    cycles: the inclusion of ker(d_out) into the chain group;
    induced(phi, target): the map on homology of a chain map phi.

    >>> two = AbMap(Z(), Z(), [[2]])
    >>> zero = AbMap(Z(), Z(), [[0]])
    >>> Homology(two, zero).group.invariant_factors()
    (2,)
    """

    def __init__(self, d_in, d_out, base=None):
        if not d_out.compose(d_in).is_zero():
            raise NotAComplex("d_out o d_in != 0")
        self.base = base
        K, self.cycles = kernel(d_out)
        rels = list(K.relations)
        if K.ngens and any(map(any, d_in.matrix)):
            # relations: kernel combinations that are boundaries modulo the
            # relations of the chain group
            Rm = d_out.source.relations
            stacked = hstack(self.cycles.matrix, [[-x for x in row] for row in d_in.matrix])
            stacked = hstack(stacked, [[-x for x in row] for row in transpose(Rm)])
            ncols = K.ngens + d_in.source.ngens + len(Rm)
            rels += [v[:K.ngens] for v in integer_kernel(stacked, ncols)]
        self.group = _localize(FgAbGroup(K.ngens, rels), base)

    def rank(self):
        """Number of free rank-1 summands over the base: the dimension over a
        field."""
        m = _modulus(self.base)
        return sum(1 for d in self.group.invariant_factors() if d == m)

    def induced(self, phi, target):
        """H(phi): self.group -> target.group for a chain map phi from this
        homology's chain group to target's."""
        images = [phi(c) for c in transpose(self.cycles.matrix)]
        ys = subgroup_coords(transpose(target.cycles.matrix), phi.target.relations,
                             images, phi.target.ngens)
        if None in ys:
            raise IllFormedMap("the map does not carry cycles to cycles")
        return AbMap(self.group, target.group, transpose(ys))


def homology_at(d_in, d_out):
    """The homology group ker(d_out)/im(d_in) over Z.

    >>> two = AbMap(Z(), Z(), [[2]])
    >>> zero = AbMap(Z(), Z(), [[0]])
    >>> homology_at(two, zero).invariant_factors()
    (2,)
    """
    return Homology(d_in, d_out).group


def tensor_groups(G, H):
    """G (x) H presented on generator pairs (i, j) -> i * H.ngens + j.

    >>> tensor_groups(Zmod(4), Zmod(6)).invariant_factors()
    (2,)
    """
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


def tensor_maps(f, g, source=None, target=None):
    src = source or tensor_groups(f.source, g.source)
    tgt = target or tensor_groups(f.target, g.target)
    M = kronecker(f.matrix, g.matrix, f.target.ngens, f.source.ngens,
                  g.target.ngens, g.source.ngens)
    if not M:
        M = [[] for _ in range(tgt.ngens)] if src.ngens == 0 else zeros(tgt.ngens, src.ngens)
    return AbMap(src, tgt, M)
