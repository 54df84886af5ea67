"""Exact integer linear algebra for finitely generated abelian groups.

Presentations of f.g. abelian groups, homomorphisms between them, kernels,
cokernels and homology, with arbitrary-precision integers.  Elements of a
group presented on n ambient generators are length-n integer tuples; a
homomorphism is an integer matrix acting on column vectors.

Homology over a base ring (Z, Z[1/2], Q or Z/m, read from a polyring
BaseRing) has one home here, ChainComplex: the ranks of a complex of free
base-modules and its boundaries as sparse integer columns ({row: coeff},
nonzero entries only), the one form in which every complex is built and
read; an involution handed to it is in the same form.  Every base-ring
decision is made inside it:

* hh, dihedral and derham read invariant factors (ChainComplex.invariants)
  from the ranks and elementary divisors of integer matrices, with no cycles
  and no Homology: over Z of the boundaries, then localized over Q and
  Z[1/2] (flat over Z: over Q all torsion is dropped, over Z[1/2] the
  powers of 2), and over Z/m of one matrix per degree, the boundaries with
  m*I and (d o d) / m added;
* the +-parts of an involution (ChainComplex.eigen_invariants, where 2 is
  a unit) are read from ranks over Q and Z[1/2], and over Z/m as the
  invariants of a resolution of the quotients C / (invol -+ 1) C.

Dense matrices (lists of integer rows) remain only where groups are
presented: AbMap, Homology and the Mackey layer, which reads cycles and
induced maps from Homology.  A complex's columns become an AbMap through
dense_matrix only for the HKR pieces of the differentials layer.
block_matrix and kronecker lay out the dense matrices of these layers:
direct sums of groups and maps, the box-product differentials, and the
presentations of tensor and box products, whose relations are Kronecker
blocks.

A free rank-1 summand over the base (free_rank) is then a Z summand over
Z, Q and Z[1/2] and a Z/m summand over Z/m.

A lattice is reduced in one place, hermite_normal_form, which depends only
on the row lattice, so the stored relations of a group do not depend on the
route by which it was presented.  Ranks, membership, kernels and
coordinates are read from it: integer_kernel is the Hermite basis of a
kernel and echelon_coords solves in an echelon basis by back substitution,
all that membership, kernel, Homology and the Mackey layer solve with.  The
Smith normal form only reads a Hermite form, in FgAbGroup, for invariant
factors and the V that fixes a group's printed canonical basis; the
elementary divisors of a ChainComplex boundary are those of the group its
unit-free core presents.  mat_mul and mat_vec skip zero entries.

>>> G = FgAbGroup.from_invariants([2, 0])
>>> G.invariant_factors()
(2, 0)
>>> Z = FgAbGroup.free(1)
>>> cokernel(AbMap(Z, Z, [[2]]))[0].invariant_factors()
(2,)
"""

from functools import cached_property
from itertools import accumulate, compress, count
from math import gcd


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
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def mat_mul(A, B):
    """A*B, accumulating a * b over the nonzero entries a = A[i][k] and
    b = B[k][j]."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("shape mismatch")
    n = len(B[0]) if B else 0
    sparse = [_sparse(Bk).items() for Bk in B]
    out = []
    for row in A:
        acc = [0] * n
        for a, Bk in zip(row, sparse):
            if a:
                for j, b in Bk:
                    acc[j] += a * b
        out.append(acc)
    return out


def mat_vec(A, v):
    """A*v, summing over the nonzero entries of v."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in nz) for row in A]


def transpose(A):
    if not A:
        return []
    return [list(col) for col in zip(*A)]


def block_matrix(rows, cols, blocks):
    """The dense matrix with the block blocks[(r, c)] added at the row
    offset of key r and the column offset of key c, zero entries skipped;
    rows and cols map the keys, in order, to their block sizes.  It lays out
    the direct sums of groups and maps, the box-product differentials and
    the Lewis diagrams of box products and induced functors.

    >>> block_matrix({0: 1, 1: 2}, {"a": 2}, {(1, "a"): [[1, 2], [3, 4]]})
    [[0, 0], [1, 2], [3, 4]]
    """
    roff, coff = (dict(zip(sizes, accumulate(sizes.values(), initial=0)))
                  for sizes in (rows, cols))
    out = zeros(sum(rows.values()), sum(cols.values()))
    for (r, c), B in blocks.items():
        i0, j0 = roff[r], coff[c]
        for i, row in enumerate(B):
            target = out[i0 + i]
            for j, x in enumerate(row):
                if x:
                    target[j0 + j] += x
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


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(A):
    """U, D, V with U*A*V = D, D diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular.  Pivots are chosen by minimal absolute value
    (the first such entry in row-major order); plain gcd-driven row/column
    elimination, no modular shortcuts.

    The loops skip only work whose result is known, so U, D and V are
    exactly those of the plain loops:

    * the pivot search stops at the first entry +-1, which no later entry
      can beat (a strict < scan keeps the first minimum);
    * the divisibility scan is skipped for a pivot +-1, which divides
      everything;
    * a column operation on D touches only the rows whose source entry is
      nonzero (rows above t are zero there; the others would add 0);
    * V is held as the rows of V^T, so a column operation on V is one row
      operation; it is transposed once at the end.

    Every entry that changes is changed by the same integer operations in
    the same order.

    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    D = mat_copy(A)
    m = len(D)
    n = len(D[0]) if D else 0
    U = identity(m)
    Vt = identity(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        Vt[i], Vt[j] = Vt[j], Vt[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(live, src, dst, c):
        # column dst += c * column src; live: the rows of D nonzero at src
        for row in live:
            row[dst] += c * row[src]
        Vt[dst] = [x + c * y for x, y in zip(Vt[dst], Vt[src])]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    def find_pivot(t):
        # the first entry of minimal absolute value in D[t:, t:]
        pivot = best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        return pivot
        return pivot

    t = 0
    while True:
        pivot = find_pivot(t)
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
            live = [row for row in D[t:] if row[t]]
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(live, t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        live = [row for row in D[t:] if row[t]]
                        dirty = True
        # enforce divisibility d_t | entries of the remaining block
        p = D[t][t]
        if p not in (1, -1):
            bad = next((i for i in range(t + 1, m)
                        if any(x % p for x in D[i][t + 1:])), None)
            if bad is not None:
                add_row(bad, t, 1)
                continue  # redo elimination at the same t
        if p < 0:
            negate_row(t)
        t += 1
        if t == m or t == n:
            break
    return U, D, transpose(Vt)


def diagonal_of(D):
    k = min(len(D), len(D[0]) if D else 0)
    return [D[i][i] for i in range(k)]


def _sparse(v):
    """{i: v[i]} over the nonzero entries, found by compress at C speed."""
    return {i: v[i] for i in compress(count(), v)}


def dense_matrix(cols, nrows):
    """The row-major integer matrix, nrows rows, whose columns are the sparse
    columns cols: the one way from a complex's columns to an AbMap."""
    return [[c.get(i, 0) for c in cols] for i in range(nrows)]


def lattice_core(vectors):
    """(rank, core) of the matrix whose rows are the sparse vectors ({i: x}
    dicts or (i, x) pairs), core the FgAbGroup presented by the rows left
    without a unit entry: its nonzero invariant factors are the elementary
    divisors of the matrix other than 1.  A matrix and its transpose have
    the same rank and divisors, so the columns of a ChainComplex boundary
    serve as rows.  The vectors are copied, never edited.

    Reduce before factoring (Kaczynski-Mrozek-Slusarek): while an entry is
    +-1, take the shortest row holding one, pivot on its +-1 of shortest
    column, clear that column with row operations only and drop the pivot's
    row and column.  Each step removes one divisor 1 and keeps the others.
    The rank is the count of these steps plus the number of Hermite rows of
    the core, so it reads no Smith form.
    """
    # imported here, so that the commands that never reduce do not load it
    from heapq import heapify, heappop, heappush
    live = dict(enumerate(dict(r) for r in vectors if r))
    cols = {}
    for i, r in live.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    heap = [(len(r), i) for i, r in live.items()]
    heapify(heap)
    rank = 0
    while heap:
        size, i = heappop(heap)
        r = live.get(i)
        units = [j for j, x in r.items() if x in (1, -1)] if r and len(r) == size else ()
        if not units:
            continue
        c = min(units, key=lambda j: len(cols[j]))
        del live[i]
        for j in r:
            cols[j].discard(i)
        for k in list(cols[c]):
            target = live[k]
            f = target[c] * r[c]
            for j, x in r.items():
                y = target.get(j, 0) - f * x
                if y:
                    if j not in target:
                        cols[j].add(k)
                    target[j] = y
                else:
                    del target[j]
                    cols[j].discard(k)
            if target:
                heappush(heap, (len(target), k))
            else:
                del live[k]
        rank += 1
    core_cols = sorted({j for r in live.values() for j in r})
    core = FgAbGroup(len(core_cols), ([r.get(j, 0) for j in core_cols] for r in live.values()))
    return rank + len(core.relations), core


def elementary_divisors(vectors):
    """(rank, the elementary divisors other than 1) of the matrix whose rows
    are the sparse vectors, the divisors positive and each dividing the
    next: the nonzero invariant factors of lattice_core's core.

    >>> elementary_divisors([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}])
    (2, (3,))
    """
    rank, core = lattice_core(vectors)
    return rank, tuple(d for d in core.invariant_factors() if d)


def integer_kernel(A, ncols):
    """The Hermite form of the lattice {x : A x = 0}, A with ncols columns.
    The rows of [A^T | I] span the (A x, x); the rows of its Hermite form
    that vanish on A^T span those with A x = 0 and, cut to I, are that form.

    >>> integer_kernel([[1, 2, 2]], 3)
    [[2, 0, -1], [0, 1, -1]]
    """
    m = len(A)
    rows = [[r[j] for r in A] + e for j, e in enumerate(identity(ncols))]
    return [r[m:] for r in hermite_normal_form(rows) if not any(r[:m])]


def echelon_coords(basis, vectors):
    """For each vector v, the y with y * basis = v, rows of basis in row
    echelon form, or None when v is not in their lattice.

    >>> echelon_coords([[2, 1], [0, 3]], [[4, 5], [1, 0]])
    [[2, 1], None]
    """
    rows = {}  # pivot column: (row index, pivot, the row's nonzero entries)
    for i, b in enumerate(basis):
        nonzero = _sparse(b)
        p = min(nonzero)
        rows[p] = (i, nonzero[p], nonzero.items())
    out = []
    for v in vectors:
        v, y = list(v), [0] * len(rows)
        # left to right: subtracting the row of pivot j clears entry j and
        # changes only entries right of it, so each entry is read when final
        for j, x in enumerate(v):
            if x:
                if j not in rows or x % rows[j][1]:
                    y = None
                    break
                i, d, b = rows[j]
                y[i] = q = x // d
                for k, z in b:
                    v[k] -= q * z
        out.append(y)
    return out


def solve_integer(A, b, ncols):
    """One x with A x = b, or None.  A has ncols columns."""
    if not A:
        return [0] * ncols if not any(b) else None
    U, D, V = smith_normal_form(A)
    diag = diagonal_of(D)
    y = [0] * ncols
    for i, ci in enumerate(mat_vec(U, b)):
        d = diag[i] if i < len(diag) else 0
        if (ci % d if d else ci):
            return None
        if d:
            y[i] = ci // d
    return mat_vec(V, y)


def hermite_normal_form(A):
    """The Hermite normal form of the row lattice of A: row echelon, zero
    rows dropped, positive pivots, and every entry above a pivot in
    [0, pivot).  It depends only on the lattice, not on the rows that span
    it or their order (Cohen, A Course in Computational Algebraic Number
    Theory, Thm 2.4.3).

    >>> hermite_normal_form([[-3, 4, -4], [-1, -4, 2], [2, 2, 5]])
    [[1, 0, 32], [0, 2, 25], [0, 0, 42]]
    """
    rows = [list(r) for r in A if any(r)]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        cand = [r for r in rows if r[col]]
        if not cand:
            continue
        rows = [r for r in rows if not r[col]]
        # Euclid among the rows that are nonzero in this column
        while len(cand) > 1:
            piv = min(cand, key=lambda r: abs(r[col]))
            left = [piv]
            for r in cand:
                if r is not piv:
                    q = r[col] // piv[col]
                    r = [x - q * y for x, y in zip(r, piv)]
                    if r[col]:
                        left.append(r)
                    elif any(r):
                        rows.append(r)
            cand = left
        piv = cand[0] if cand[0][col] > 0 else [-x for x in cand[0]]
        # later pivots lie further right: they leave this column as it is
        for i, r in enumerate(out):
            q = r[col] // piv[col]
            if q:
                out[i] = [x - q * y for x, y in zip(r, piv)]
        out.append(piv)
    return out


# ---------------------------------------------------------------------------
# groups

class FgAbGroup:
    """Finitely generated abelian group Z^n / rowspan(relations).

    relations: iterable of length-n integer rows, stored as their Hermite
    normal form, so two generating sets of one subgroup store the same
    relations.  Membership reads them: v is zero exactly when echelon_coords
    finds its coordinates in them (contains_zero, one call for many v), and
    the group is trivial exactly when they are the identity.  Groups compare
    by their invariant factors.

    What is printed or counted (invariant factors, the canonical basis and
    coordinates) reads the Smith form U R V = D of the Hermite relations R,
    computed once: orders[i] = d_i (zero-padded to n entries), and V^T v are
    the coordinates of v in which the relations are diagonal.  Presentations
    already in Smith form, such as free groups and the (Z/m)^d chain groups,
    have V = identity and run no SNF.  V^-1, computed only for
    canonical_basis, is the right block of the Hermite form of [V | I],
    which is [I | V^-1].
    """

    def __init__(self, ngens, relations=()):
        self.ngens = ngens
        rels = [list(r) for r in relations]
        for r in rels:
            if len(r) != ngens:
                raise ValueError("relation length != number of generators")
        self.relations = hermite_normal_form(rels)

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

    def is_trivial(self):
        return self.relations == identity(self.ngens)

    def contains_zero(self, *vectors):
        """Is the class of each v the identity?  One echelon_coords call on
        the Hermite relations answers for all of them.

        >>> G = FgAbGroup(2, [[2, -1]])
        >>> G.contains_zero([2, -1]), G.contains_zero([1, 0])
        (True, False)
        """
        return None not in echelon_coords(self.relations, vectors)

    def canonical_basis(self):
        """Ambient vectors whose classes are the invariant-factor generators,
        in the order of invariant_factors(): rows of V^-1."""
        return [list(r) for r, d in zip(self._vinv, self._factors[0]) if d != 1]

    @cached_property
    def _vinv(self):
        Vt = self._factors[1]
        if Vt is None:
            return identity(self.ngens)
        n = self.ngens
        return [r[n:] for r in hermite_normal_form(
            [v + e for v, e in zip(transpose(Vt), identity(n))])]

    def canonical_coords(self, v):
        """Coordinates of [v] in the invariant-factor decomposition."""
        orders, Vt = self._factors
        y = v if Vt is None else mat_vec(Vt, v)
        return [yi % d if d else yi for yi, d in zip(y, orders) if d != 1]

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
    def free(cls, n):
        return cls(n)


def render_invariants(invs):
    if not invs:
        return "0"
    parts = ["Z" if d == 0 else "Z/%d" % d for d in invs]
    return " + ".join(parts)


def trivial_group():
    return FgAbGroup(0)


def direct_sum_groups(groups):
    sizes = {k: g.ngens for k, g in enumerate(groups)}
    rels = block_matrix({k: len(g.relations) for k, g in enumerate(groups)}, sizes,
                        {(k, k): g.relations for k, g in enumerate(groups)})
    return FgAbGroup(sum(sizes.values()), rels)


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


def direct_sum_maps(maps, source, target):
    M = block_matrix({k: f.target.ngens for k, f in enumerate(maps)},
                     {k: f.source.ngens for k, f in enumerate(maps)},
                     {(k, k): f.matrix for k, f in enumerate(maps)})
    return AbMap(source, target, M)


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


def _modulus(base):
    return base.modulus if base is not None and base.kind == "Z/m" else 0


def _local_torsion(core, base):
    """The torsion of the group core tensored with the base: none over Q,
    read with no Smith form; the odd parts of its nonzero invariant factors
    over Z[1/2], and those factors over Z."""
    kind = base.kind if base is not None else "Z"
    if kind == "Q":
        return ()
    # d & -d is the largest power of 2 dividing d > 0
    local = (d // (d & -d) if kind == "Z[1/2]" else d for d in core.invariant_factors() if d)
    return tuple(d for d in local if d != 1)


def free_rank(G, base=None):
    """Number of free rank-1 summands of G as a module over the base (None
    means Z): invariant factors m over Z/m, 0 over every other base.  It is
    not additive over Z/m (Z/2 + Z/3 = Z/6 over Z/6), so a direct sum is
    formed first and counted once.

    >>> from c2algebra.polyring import BaseRing
    >>> free_rank(FgAbGroup.from_invariants([2, 3]), BaseRing.parse("Z/6"))
    1
    """
    m = _modulus(base)
    return sum(1 for d in G.invariant_factors() if d == m)


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


class ChainComplex:
    """A complex of free base-modules (base None means Z): dims[n] is the
    rank of C_n and mats[n] the boundary d_n : C_n -> C_{n-1} as dims[n]
    sparse integer columns, column j the image {i: coeff} of the j-th basis
    element, nonzero entries only.  A missing rank is 0 and a missing matrix
    the zero map.  Every decision that depends on the base is made here.

    >>> C = ChainComplex({0: 1, 1: 1}, {1: [{0: 2}]})
    >>> C.invariants(0), C.invariants(1)
    ((2,), ())
    """

    def __init__(self, dims, mats, base=None):
        self.dims = dims
        self.base = base
        m = _modulus(base)
        # over Z/m the same maps with entries in [-m/2, m/2): -1 is a unit pivot
        self.mats = {k: [{i: r for i, x in col.items() if (r := (x + m // 2) % m - m // 2)}
                         for col in cols] for k, cols in mats.items()} if m else mats
        self._cores = {}

    def invariants(self, n):
        """The invariant factors of H_n over the base, from the elementary
        divisors of integer matrices; raises NotAComplex when d_n o d_{n+1}
        != 0 (mod m over Z/m).

        * Over Z, Z[1/2] and Q: H_n = Z^(dim C_n - rk d_n - rk d_{n+1}) + the
          torsion of coker d_{n+1}, localized: over Q all torsion is dropped
          and only ranks are read, over Z[1/2] the powers of 2.
        * Over Z/m, with d_n o d_{n+1} = m h: the torsion of the cokernel of
          [[d_{n+1}, m I], [-h, -d_n]], a boundary of the complex of free
          abelian groups C_k + C_{k-1}, quasi-isomorphic to C (the kernel of
          (x, y) -> x mod m is contractible) and so of finite homology."""
        m = _modulus(self.base)
        d_out, d_in = self.mats.get(n), self.mats.get(n + 1) or ()
        dd = [_combine(d_out, col) if d_out else {} for col in d_in]
        if any(x % m if m else x for v in dd for x in v.values()):
            raise NotAComplex("d_out o d_in != 0")
        if m:
            rows = self.dims.get(n, 0)
            delta = [{**col, **{rows + i: -x // m for i, x in h.items()}}
                     for col, h in zip(d_in, dd)]
            delta += [{j: m, **{rows + i: -x for i, x in col.items()}}
                      for j, col in enumerate(d_out or [{}] * rows)]
            return elementary_divisors(delta)[1]
        rank_in, core = self._boundary_core(n + 1)
        free = self.dims.get(n, 0) - self._boundary_core(n)[0] - rank_in
        return _local_torsion(core, self.base) + (0,) * free

    def _boundary_core(self, n):
        if n not in self._cores:
            self._cores[n] = lattice_core(self.mats.get(n, ()))
        return self._cores[n]

    def eigen_invariants(self, invol, sign, degrees):
        """[the invariant factors of H_n of the sign part of invol, for n in
        degrees], for invol the sparse columns of an involution per degree
        that commutes with d (check(invol, 1)), in a base where 2 is a unit.
        Then C = C+ + C-, and the sign part is both the image of
        P = 1 + sign invol and the quotient C / (invol - sign) C.

        * Over Q and Z[1/2] only the free part is read, (0,) * r with
          r = rk P_n - rk d_n P_n - rk d_{n+1} P_{n+1}; over Z[1/2] odd
          torsion in H_n is not read.
        * Over Z/m, m odd, it is T.invariants(n) for T the total complex of
          the resolution ... -> C --(invol + sign)--> C --(invol - sign)--> C
          of the quotient: copy p of C_{k-p} in degree k, d times (-1)^p on
          it, and invol + (-1)^p sign from copy p to copy p - 1.

        Only the degrees asked for are read.  Raises AbelianError when 2 is
        not a unit."""
        if self.base is None or not self.base.two_invertible:
            raise AbelianError("2 is not a unit in the base")
        if _modulus(self.base):
            lo, top = min(self.dims, default=0), max(degrees, default=0) + 1
            starts = {k: list(accumulate((self.dims.get(k - p, 0) for p in range(k - lo + 1)),
                                         initial=0)) for k in range(lo, top + 1)}
            mats = {}
            for k in range(lo + 1, top + 1):
                below, mats[k] = starts[k - 1], []
                for p in range(k - lo + 1):
                    unit = -1 if p % 2 else 1
                    d = self.mats.get(k - p) or [{}] * self.dims.get(k - p, 0)
                    for j, col in enumerate(d):
                        v = {below[p] + i: unit * x for i, x in col.items()}
                        if p:  # invol + (-1)^p sign, into copy p - 1
                            v.update((below[p - 1] + i, x) for i, x in invol[k - p][j].items())
                            v[below[p - 1] + j] = v.get(below[p - 1] + j, 0) + unit * sign
                        mats[k].append(v)  # T drops the zero entries
            T = ChainComplex({k: s[-1] for k, s in starts.items()}, mats, self.base)
            return [T.invariants(n) for n in degrees]
        images = {}  # the columns of P_k
        for k in {k for n in degrees for k in (n, n + 1) if k in invol}:
            images[k] = []
            for j, col in enumerate(invol[k]):
                v = {i: sign * x for i, x in col.items()}
                v[j] = v.get(j, 0) + 1
                images[k].append({i: x for i, x in v.items() if x})
        boundary = {k: _rank(_combine(self.mats[k], v) for v in vs)
                    for k, vs in images.items() if self.mats.get(k)}
        return [(0,) * (_rank(images.get(n, ())) - boundary.get(n, 0) - boundary.get(n + 1, 0))
                for n in degrees]

    def check(self, invol, sign):
        """d invol = sign invol d for invol the sparse columns of a map per
        degree, compared column by column (mod m over Z/m).  d o d = 0 is
        left to invariants(n), which checks it for every degree it reads.
        A failure raises NotAComplex(what, n), n the degree of the failing
        boundary's source; returns self."""
        m = _modulus(self.base)
        for n, d in self.mats.items():
            for col, image in zip(d, invol[n]):
                lhs, rhs = _combine(d, image), _combine(invol[n - 1], col)
                diff = (lhs.get(i, 0) - sign * rhs.get(i, 0) for i in lhs.keys() | rhs.keys())
                if any(x % m if m else x for x in diff):
                    raise NotAComplex("d invol != %d invol d" % sign, n)
        return self


def _combine(cols, v):
    """The sparse vector sum of c * cols[k] over the entries c = v[k]."""
    out = {}
    for k, c in v.items():
        for i, x in cols[k].items():
            out[i] = out.get(i, 0) + c * x
    return {i: x for i, x in out.items() if x}


def _rank(vectors):
    """The rank of the sparse vectors.  Each is divided by its content and
    signed so that its first entry is positive, so parallel vectors meet as
    one."""
    primitive = set()
    for v in filter(None, vectors):
        g = gcd(*v.values())
        g = g if v[min(v)] > 0 else -g
        primitive.add(tuple(sorted((i, x // g) for i, x in v.items())))
    return lattice_core(primitive)[0]


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
