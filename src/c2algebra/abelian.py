"""Exact integer lattices: Hermite and Smith normal forms, and f.g. abelian
groups Z^n / rowspan(relations), elements as length-n integer tuples and
matrices as lists of integer rows.

A lattice is reduced in one place, hermite_normal_form, which depends only
on the row lattice, so a group's stored relations do not depend on how it
was presented.  Kernels, membership and coordinates are read from it
(integer_kernel, echelon_coords).  The Smith form only reads a Hermite form
R, in FgAbGroup: invariant factors from that of [R; delta I] mod delta,
delta the product of R's pivots (smith_orders), and the printed canonical
basis from the exact one with its V.  Maps, kernels and Homology of
presented groups live in mackey; complexes of free modules in chains.

>>> FgAbGroup.from_invariants([2, 0]).invariant_factors()
(2, 0)
"""

from functools import cached_property
from itertools import accumulate, compress, count
from math import gcd

# the two errors live in the package, so that chains raises them without
# loading this module; NotAComplex is re-exported for mackey
from . import AbelianError, NotAComplex, render_invariants


class IllFormedMap(AbelianError):
    pass


# ---------------------------------------------------------------------------
# matrix helpers (lists of lists of int, row-major)

def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def zeros(m, n):
    return [[0] * n for _ in range(m)]


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


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(A):
    """U, D, V with U*A*V = D, D diagonal, d1 | d2 | ..., di >= 0.

    U and V are unimodular.  Pivots are chosen by minimal absolute value
    (the first such entry in row-major order); plain gcd-driven row/column
    elimination, no modular shortcuts.  The loops skip only work whose
    result is known (the pivot search stops at the first +-1, a pivot +-1
    skips the divisibility scan, a column operation on D touches only rows
    nonzero in its source column, V is held as the rows of V^T), so U, D
    and V are exactly those of the plain loops.

    >>> U, D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    D = [list(row) for row in A]
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


def smith_orders(R, n):
    """The invariant factors, units kept, of Z^n / rowspan(R), R a Hermite
    form of r rows.  delta, the product of R's pivots, is a multiple of
    d_1 ... d_r, so [R; delta I] has the factors d_1, ..., d_r, then delta
    for each Z: its Smith form is taken mod delta (Domich-Kannan-Trotter).

    >>> smith_orders([[2, 1, 3], [0, 3, 1]], 3)
    [1, 2, 0]
    """
    delta = 1
    for row in R:
        delta *= next(filter(None, row))
    D = [[x % delta for x in row] for row in R]
    orders = []
    for t in range(len(D)):
        # the pivot: the first entry of D[t:, t:] sharing the least factor
        # with delta, the scan cut short by a unit
        best = (delta + 1, 0, 0)
        for c in ((gcd(x, delta), i, j) for i in range(t, len(D))
                  for j, x in enumerate(D[i][t:], t) if x):
            best = min(best, c)
            if best[0] == 1:
                break
        g, i, j = best
        if g > delta:
            break
        D[t], D[i] = D[i], D[t]
        for row in D[t:]:
            row[t], row[j] = row[j], row[t]
        if g == 1:  # a unit: scaling its row makes the pivot 1
            u = pow(D[t][t], -1, delta)
            D[t] = [u * x % delta for x in D[t]]
        while True:
            for i in range(t + 1, len(D)):
                if D[i][t]:
                    D[t], D[i] = _gcd_step(D[t], D[i], t, delta)
            # column t is clear below the pivot, so a column operation by a
            # multiple of it changes row t alone
            for j in range(t + 1, n):
                if D[t][j] % D[t][t]:
                    block = D[t:]
                    cols = _gcd_step([r[t] for r in block], [r[j] for r in block], 0, delta)
                    for r, x, y in zip(block, *cols):
                        r[t], r[j] = x, y
                    if any(cols[0][1:]):
                        break  # column t filled: clear it again
                D[t][j] = 0
            else:
                p = D[t][t] = gcd(D[t][t], delta)
                bad = p != 1 and next((r for r in D[t + 1:] if any(x % p for x in r)), None)
                if not bad:
                    break
                # p must divide the rest: take in an entry it does not divide
                D[t] = [(x + y) % delta for x, y in zip(D[t], bad)]
        orders.append(p)
    return orders + [delta] * (len(D) - len(orders)) + [0] * (n - len(D))


def _gcd_step(u, v, k, delta):
    """The rows u, v mod delta after the unimodular step that leaves
    gcd(u[k], v[k]) in u[k] and 0 in v[k], u[k] != 0."""
    a, b = u[k], v[k]
    if b % a == 0:
        q = b // a
        return u, [(y - q * x) % delta for x, y in zip(u, v)]
    # s a + w b = g, by the extended Euclid
    s, w, g, s1, w1, g1 = 1, 0, a, 0, 1, b
    while g1:
        q = g // g1
        s, w, g, s1, w1, g1 = s1, w1, g1, s - q * s1, w - q * w1, g - q * g1
    a, b = a // g, b // g
    return ([(s * x + w * y) % delta for x, y in zip(u, v)],
            [(a * y - b * x) % delta for x, y in zip(u, v)])


# ---------------------------------------------------------------------------
# groups

class FgAbGroup:
    """Finitely generated abelian group Z^n / rowspan(relations).

    relations: iterable of length-n integer rows, stored as their Hermite
    normal form R.  v is zero exactly when echelon_coords finds its
    coordinates in R (contains_zero, one call for many v); the group is
    trivial exactly when R is the identity.  Groups compare by their
    invariant factors, read once by smith_orders.  The canonical basis and
    coordinates read the exact Smith form U R V = D, computed once and only
    for them: V^T v are the coordinates of v in which the relations are
    diagonal, and V^-1 is the right block of the Hermite form of [V | I].
    Invariant factors asked for after it read its diagonal.
    Relations already in Smith form (free groups, the (Z/m)^d chain groups)
    have V = identity and run neither.
    """

    def __init__(self, ngens, relations=()):
        self.ngens = ngens
        rels = [list(r) for r in relations]
        for r in rels:
            if len(r) != ngens:
                raise ValueError("relation length != number of generators")
        self.relations = hermite_normal_form(rels)

    def _diagonal(self):
        """The diagonal of the relations if they are in Smith form, or None."""
        R = self.relations
        diag = [r[i] for i, r in enumerate(R)]
        if all(sum(map(bool, r)) == 1 and d for r, d in zip(R, diag)) \
                and not any(b % a for a, b in zip(diag, diag[1:])):
            return diag
        return None

    @cached_property
    def _orders(self):
        """The invariant factors with their units, zero-padded to n entries:
        the exact Smith form's if it is taken already, else smith_orders'."""
        if "_factors" in vars(self):
            return self._factors[0]
        diag = self._diagonal()
        if diag is None:
            return smith_orders(self.relations, self.ngens)
        return diag + [0] * (self.ngens - len(diag))

    @cached_property
    def _factors(self):
        """(orders, V^T) of the exact Smith form, with V^T None when V is the
        identity."""
        diag, Vt = self._diagonal(), None
        if diag is None:
            _, D, V = smith_normal_form(self.relations)
            diag, Vt = diagonal_of(D), transpose(V)
        return diag + [0] * (self.ngens - len(diag)), Vt

    def invariant_factors(self):
        """Nonnegative, each dividing the next, 0 = Z, units dropped.

        >>> FgAbGroup(2, [[2, 0], [0, 4]]).invariant_factors()
        (2, 4)
        """
        return tuple(d for d in self._orders if d != 1)

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


def direct_sum_groups(groups):
    sizes = {k: g.ngens for k, g in enumerate(groups)}
    rels = block_matrix({k: len(g.relations) for k, g in enumerate(groups)}, sizes,
                        {(k, k): g.relations for k, g in enumerate(groups)})
    return FgAbGroup(sum(sizes.values()), rels)
