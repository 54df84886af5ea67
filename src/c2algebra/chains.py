"""Homology over a base ring (Z, Z[1/2], Q or Z/m, a polyring BaseRing) of
complexes of free base-modules, the one home of every base-ring decision:
ChainComplex, the module ranks and the boundaries as sparse integer columns
({row: coeff}, nonzero entries only), in which hh, dihedral and derham build
every complex and involution, and slice-check reads the levels of a complex
of cells.  Its invariant factors and the +-parts of an involution are read
from ranks and elementary divisors (lattice_core), with no cycles, by one
elimination for every base: over Z/m it runs mod m (the base's modulus, 0
for the other bases), with every unit of Z/m a pivot.  A rank over Z reads
no abelian: the rank of a core left by the unit pivots comes from exact
integer elimination.  abelian is loaded only when the elementary divisors
of a core that is not a sum of single rows and columns are read (over Z,
over Z/m, where the rank of such a core needs them too, and for the torsion
over Z[1/2]; never over Q).
"""

from math import gcd, lcm

from . import AbelianError, NotAComplex


def lattice_core(vectors, m=0):
    """(rank, core) of the matrix whose rows are the sparse vectors ({i: x}
    dicts or (i, x) pairs), over Z (m = 0) or over Z/m, its entries read mod
    m.  The core is what the rows left without a unit entry present: when
    each block of them (the rows that share columns) is one row or lies in
    one column, a sum of cyclic groups, the tuple of the gcds of m and each
    block's entries (empty when no row is left); else the list of the rows,
    dense on the columns they use.  Over Z/m the core is read at once, as
    the tuple of its Smith entries over Z/m (_divisors) other than 1 and
    0 mod m: the blocks 2 and 3 over Z/6 leave (), as Z/2 + Z/3 = Z/6.  The
    nonzero invariant factors of the core (_divisors) are the elementary
    divisors of the matrix other than 1.  A matrix and its transpose have
    the same rank and divisors, so the columns of a ChainComplex boundary
    serve as rows.  The vectors are copied, never edited.

    Reduce before factoring (Kaczynski-Mrozek-Slusarek): while an entry is a
    unit, gcd(x, m) == 1 (+-1 over Z), take the shortest row holding one,
    pivot on its unit of shortest column, clear that column with row
    operations only and drop the pivot's row and column.  Each step removes
    one divisor 1 and keeps the others.  The rank is the count of these
    steps plus the rank of the core: over Z its number of blocks or
    _elimination_rank of its rows, so a rank over Z reads no Hermite or
    Smith form; over Z/m the count of its Smith entries other than m.

    >>> lattice_core([{0: 2}], 5), lattice_core([{0: 2, 1: 4}], 6)
    ((1, ()), (1, (2,)))
    >>> lattice_core([{0: 2}, {1: 3}], 6)
    (1, ())
    """
    # imported here, so that the commands that never reduce do not load it
    from heapq import heapify, heappop, heappush
    rows = ({i: y for i, x in dict(r).items() if (y := x % m)} for r in vectors) if m else \
        (dict(r) for r in vectors)
    live = dict(enumerate(r for r in rows if r))
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
        units = [j for j, x in r.items() if gcd(x, m) == 1] if r and len(r) == size else ()
        if not units:
            continue
        c = min(units, key=lambda j: len(cols[j]))
        del live[i]
        for j in r:
            cols[j].discard(i)
        inverse = pow(r[c], -1, m) if m else r[c]  # over Z, +-1 is its own inverse
        for k in list(cols[c]):
            target = live[k]
            f = target[c] * inverse
            if m:  # the row operation mod m, where f x may vanish off target
                for j, x in r.items():
                    y = (target.get(j, 0) - f * x) % m
                    if y:
                        if j not in target:
                            cols[j].add(k)
                        target[j] = y
                    elif j in target:
                        del target[j]
                        cols[j].discard(k)
            else:
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
    if not live:
        return rank, ()
    # the blocks of rows that share no column: union the columns of each row
    parent = {}

    def root(j):
        while parent.setdefault(j, j) != j:
            j = parent[j]
        return j
    for r in live.values():
        first, *rest = r
        for j in rest:
            parent[root(j)] = root(first)
    blocks = {}
    for r in live.values():
        blocks.setdefault(root(next(iter(r))), []).append(r)
    split = all(len(b) == 1 or all(len(r) == 1 for r in b) for b in blocks.values())
    if split:
        core = tuple(gcd(m, *(x for r in b for x in r.values())) for b in blocks.values())
        width = len(core)
    else:
        core_cols = sorted({j for r in live.values() for j in r})
        core, width = [[r.get(j, 0) for j in core_cols] for r in live.values()], len(core_cols)
    if not m:
        return rank + (width if split else _elimination_rank(core)), core
    # Smith entries equal to m are 0 mod m
    divisors = _divisors(core, m)
    return rank + width - divisors.count(m), tuple(d for d in divisors if d != m)


def _elimination_rank(rows):
    """The rank of the integer rows, by fraction-free elimination: the first
    row's first nonzero entry is the pivot, and each other row with an entry
    c in its column becomes the primitive part of pivot * row - c * first
    row, so no entry leaves Z.

    >>> _elimination_rank([[2, 4, 6], [3, 6, 9], [0, 0, 0], [1, 3, 5]])
    2
    """
    rank = 0
    while rows:
        top, *rows = rows
        j = next((j for j, x in enumerate(top) if x), None)
        if j is not None:
            rank += 1
            rows = [_primitive([top[j] * x - r[j] * y for x, y in zip(r, top)]) if r[j] else r
                    for r in rows]
    return rank


def _primitive(row):
    """row divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _divisors(core, m=0):
    """The nonzero invariant factors other than 1 of a core of lattice_core,
    and of a core of rows over Z/m those of the rows stacked over m I, its
    Smith entries over Z/m, each dividing m; the one place that loads
    abelian, for a core of rows."""
    if isinstance(core, tuple):
        return tuple(_invariant_factors(core))
    from .abelian import FgAbGroup
    width = len(core[0])
    if m:
        core = core + [[m if i == j else 0 for j in range(width)] for i in range(width)]
    return tuple(d for d in FgAbGroup(width, core).invariant_factors() if d)


def _invariant_factors(orders):
    """The invariant factors other than 1, each dividing the next, of the
    direct sum of the cyclic groups Z/d for d in orders (0 = Z).  Sorted with
    0 last they often are; else Z/a + Z/b = Z/gcd + Z/lcm, over each pair in
    turn, makes them so.

    >>> _invariant_factors([0, 2, 1, 3, 4])
    [2, 12, 0]
    """
    orders = sorted((d for d in orders if d != 1), key=lambda d: (d == 0, d))
    if all(b % a == 0 if a else not b for a, b in zip(orders, orders[1:])):
        return orders
    for i, a in enumerate(orders):
        for j in range(i + 1, len(orders)):
            a, orders[j] = gcd(a, orders[j]), lcm(a, orders[j])
        orders[i] = a
    return [d for d in orders if d != 1]


def elementary_divisors(vectors, m=0):
    """(rank, the elementary divisors other than 1) of the matrix whose rows
    are the sparse vectors, over Z (m = 0) or over Z/m, the divisors positive
    and each dividing the next: the nonzero invariant factors of
    lattice_core's core.  Over Z/m they are its Smith entries other than 1
    and 0 mod m, each a proper divisor of m, and the rank counts the entries
    other than 0 mod m.

    >>> elementary_divisors([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}])
    (2, (3,))
    >>> elementary_divisors([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}], 6)
    (2, (3,))
    """
    rank, core = lattice_core(vectors, m)
    return rank, _divisors(core)


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
    local = (d // (d & -d) if kind == "Z[1/2]" else d for d in _divisors(core))
    return tuple(d for d in local if d != 1)


def free_rank_of_sum(factors, base=None):
    """The number of free rank-1 summands, as a module over the base (None
    means Z), of the direct sum of the cyclic groups Z/d for d in factors
    (0 = Z): its invariant factors m over Z/m, 0 over every other base.  It
    is not additive over Z/m (Z/2 + Z/3 = Z/6 over Z/6), so the invariant
    factors of the sum are formed first over Z/m.

    >>> from c2algebra.polyring import BaseRing
    >>> free_rank_of_sum([2, 3], BaseRing.parse("Z/6")), free_rank_of_sum([0, 2, 0])
    (1, 2)
    """
    m = _modulus(base)
    return (_invariant_factors(factors) if m else list(factors)).count(m)


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
        self.mats = mats
        self.base = base
        self._cores = {}

    def invariants(self, n):
        """The invariant factors of H_n over the base, from the elementary
        divisors of integer matrices; raises NotAComplex when d_n o d_{n+1}
        != 0 (mod m over Z/m).

        * Over Z, Z[1/2] and Q: H_n = Z^(dim C_n - rk d_n - rk d_{n+1}) + the
          torsion of coker d_{n+1}, localized: over Q all torsion is dropped
          and only ranks are read, over Z[1/2] the powers of 2.
        * Over Z/m, with d_n o d_{n+1} = m h: H_n is the torsion of the
          cokernel of L = [[d_{n+1}, m I], [-h, -d_n]], a boundary of the
          complex of free abelian groups C_k + C_{k-1}, quasi-isomorphic to C
          (the kernel of (x, y) -> x mod m is contractible).  L has rank
          dim C_n over Z, and its torsion is killed by m, so the Smith form of
          L mod m, where m I vanishes, is H_n plus dim C_n - rk (L mod m)
          more copies of Z/m: H_n = the divisors + that many m."""
        m = _modulus(self.base)
        d_out, d_in = self.mats.get(n), self.mats.get(n + 1) or ()
        dd = [_combine(d_out, col) if d_out else {} for col in d_in]
        if any(x % m if m else x for v in dd for x in v.values()):
            raise NotAComplex("d_out o d_in != 0")
        if m:
            rows = self.dims.get(n, 0)
            lift = [{**col, **{rows + i: -x // m for i, x in h.items()}}
                    for col, h in zip(d_in, dd)]
            lift += [{rows + i: -x for i, x in col.items()} for col in d_out or ()]
            rank, divisors = elementary_divisors(lift, m)
            return divisors + (m,) * (rows - rank)
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
        Then C = C+ + C-, and with P = 1 + sign invol and Q = 1 - sign invol,
        2e and 2(1 - e) for e the idempotent onto the sign part, that part is
        both the image of P and the quotient C / QC.

        * Over Q and Z[1/2] only the free part is read, (0,) * r with
          r = rk P_n - rk d_n P_n - rk d_{n+1} P_{n+1}; over Z[1/2] odd
          torsion in H_n is not read.
        * Over Z/m, m odd: H_n = ker d P_n / (im d_{n+1} + im Q_n), as
          d = d P / 2 + Q d / 2, read with invariants(n) of C_{n+1} + C_n
          --[d_{n+1} | Q_n]--> C_n --d P_n--> C_{n-1}, a complex as
          d P Q = d (1 - invol^2) = 0 mod m.

        Only the degrees asked for are read.  Raises AbelianError when 2 is
        not a unit."""
        if self.base is None or not self.base.two_invertible:
            raise AbelianError("2 is not a unit in the base")
        if _modulus(self.base):
            def dp(k):  # the columns of d_k P_k
                d = self.mats.get(k)
                return [_combine(d, v) for v in _plus(invol[k], sign)] if d else []
            return [ChainComplex({n: self.dims.get(n, 0)},
                                 {n: dp(n), n + 1: (self.mats.get(n + 1) or []) +
                                  _plus(invol.get(n, ()), -sign)}, self.base).invariants(n)
                    for n in degrees]
        images = {k: _plus(invol[k], sign)  # the columns of P_k
                  for k in {k for n in degrees for k in (n, n + 1) if k in invol}}
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


def _plus(cols, s):
    """The sparse columns of 1 + s M, cols those of the square matrix M."""
    out = []
    for j, col in enumerate(cols):
        v = {i: s * x for i, x in col.items()}
        v[j] = v.get(j, 0) + 1
        out.append({i: x for i, x in v.items() if x})
    return out


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
