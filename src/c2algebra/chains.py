"""Homology over a base ring (Z, Z[1/2], Q or Z/m, a polyring BaseRing) of
complexes of free base-modules, the one home of every base-ring decision:
ChainComplex, the module ranks and the boundaries as sparse integer columns
({row: coeff}, nonzero entries only), in which hh, dihedral and derham build
every complex and involution, and slice-check reads the levels of a complex
of cells.  Its invariant factors and the +-parts of an involution are read
from ranks and elementary divisors (lattice_core), with no cycles.  abelian
is loaded only for a boundary whose unit pivots leave a core that is not a
sum of single rows and columns.  dense_matrix turns columns into the rows of
an AbMap, for hr-gr.
"""

from itertools import accumulate
from math import gcd, lcm

from . import AbelianError, NotAComplex


def dense_matrix(cols, nrows):
    """The row-major integer matrix, nrows rows, whose columns are the sparse
    columns cols: the one way from a complex's columns to an AbMap."""
    return [[c.get(i, 0) for c in cols] for i in range(nrows)]


def lattice_core(vectors):
    """(rank, core) of the matrix whose rows are the sparse vectors ({i: x}
    dicts or (i, x) pairs), core what the rows left without a unit entry
    present: None when none is left; when each block of them (the rows that
    share columns) is one row or lies in one column, a sum of cyclic groups,
    the tuple of the contents of the blocks; else the abelian.FgAbGroup they
    present, the one case that loads abelian.  The nonzero invariant factors
    of the core (_divisors) are the elementary divisors of the matrix other
    than 1.  A matrix and its
    transpose have the same rank and divisors, so the columns of a
    ChainComplex boundary serve as rows.  The vectors are copied, never
    edited.

    Reduce before factoring (Kaczynski-Mrozek-Slusarek): while an entry is
    +-1, take the shortest row holding one, pivot on its +-1 of shortest
    column, clear that column with row operations only and drop the pivot's
    row and column.  Each step removes one divisor 1 and keeps the others.
    The rank is the count of these steps plus the rank of the core, its
    number of blocks or of Hermite rows, so it reads no Smith form.
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
    if not live:
        return rank, None
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
    if all(len(b) == 1 or all(len(r) == 1 for r in b) for b in blocks.values()):
        return rank + len(blocks), tuple(gcd(*(x for r in b for x in r.values()))
                                         for b in blocks.values())
    from .abelian import FgAbGroup
    core_cols = sorted({j for r in live.values() for j in r})
    core = FgAbGroup(len(core_cols), ([r.get(j, 0) for j in core_cols] for r in live.values()))
    return rank + len(core.relations), core


def _divisors(core):
    """The nonzero invariant factors other than 1 of a core of lattice_core."""
    if isinstance(core, tuple):
        return tuple(_invariant_factors(core))
    return tuple(d for d in core.invariant_factors() if d) if core else ()


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


def elementary_divisors(vectors):
    """(rank, the elementary divisors other than 1) of the matrix whose rows
    are the sparse vectors, the divisors positive and each dividing the
    next: the nonzero invariant factors of lattice_core's core.

    >>> elementary_divisors([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}, {0: 7, 1: 8, 2: 9}])
    (2, (3,))
    """
    rank, core = lattice_core(vectors)
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
