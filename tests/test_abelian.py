"""Integer linear algebra layer: SNF against a gcd-of-minors oracle,
kernels/cokernels/homology on frozen examples, and rank bookkeeping."""

import time
from itertools import combinations
from math import gcd
from random import Random

from c2algebra.abelian import (
    AbelianError,
    FgAbGroup,
    NotAComplex,
    block_matrix,
    diagonal_of,
    direct_sum_groups,
    echelon_coords,
    hermite_normal_form,
    identity,
    integer_kernel,
    mat_vec,
    smith_normal_form,
    smith_orders,
    solve_integer,
    transpose,
    zeros,
)
from c2algebra.chains import ChainComplex, _elimination_rank, elementary_divisors, lattice_core
from c2algebra.mackey import (
    AbMap,
    Homology,
    cokernel,
    kernel,
    mat_mul,
    tensor_groups,
)

from c2algebra.polyring import BaseRing
from oracles import (
    EigenComplex,
    chain_group,
    chain_homology,
    columns,
    dense,
    free_rank,
    localized,
    reference_integer_kernel,
    trivial_group,
)

import pytest
from hypothesis import given, settings, strategies as st

Z = FgAbGroup.free(1)


# -- oracle -----------------------------------------------------------------

def minor_det(A, rows, cols):
    return minor_det_full([[A[i][j] for j in cols] for i in rows])


def minor_det_full(A):
    n = len(A)
    if n == 0:
        return 1
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        if A[0][j]:
            minor = [row[:j] + row[j + 1:] for row in A[1:]]
            total += (-1) ** j * A[0][j] * minor_det_full(minor)
    return total


def snf_invariants_by_minors(A):
    """d1...dk from gcds of k x k minors; the classical independent oracle."""
    m = len(A)
    n = len(A[0]) if A else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, minor_det(A, rows, cols))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def is_unimodular(M):
    return abs(minor_det_full(M)) == 1


# -- smith normal form ------------------------------------------------------

def test_snf_zero_matrix():
    U, D, V = smith_normal_form([[0]])
    assert D == [[0]]


def test_snf_identity():
    U, D, V = smith_normal_form(identity(3))
    assert D == identity(3)


def test_snf_hand_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8
    U, D, V = smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]
    assert mat_mul(mat_mul(U, [[2, 4], [6, 8]]), V) == D
    assert is_unimodular(U) and is_unimodular(V)


def test_snf_random_against_minor_oracle():
    rng = Random(20260809)
    for _ in range(120):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        U, D, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert is_unimodular(U)
        assert is_unimodular(V)
        diag = [D[i][i] for i in range(min(m, n))]
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        # off-diagonal must vanish
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        assert nonzero == snf_invariants_by_minors(A)


def test_integer_kernel_and_solve():
    A = [[1, 1]]
    ker = integer_kernel(A, 2)
    assert len(ker) == 1
    assert mat_vec(A, ker[0]) == [0]
    assert solve_integer([[2]], [3], 1) is None
    assert solve_integer([[2]], [6], 1) == [3]
    x = solve_integer([[2, 3]], [1], 2)
    assert mat_vec([[2, 3]], x) == [1]


def test_hermite_normal_form():
    assert hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert hermite_normal_form([[0, 0]]) == []
    H = hermite_normal_form([[3, 1], [1, 2]])
    # same row span as the input
    assert solve_integer(transpose(H), [3, 1], len(H)) is not None
    assert solve_integer(transpose(H), [1, 2], len(H)) is not None


def _same_row_lattice(A, H):
    """Every row of A is an integer combination of the rows of H, and back."""
    ncols = len(A[0])
    return all(solve_integer(transpose(H) or [[]] * ncols, r, len(H)) is not None for r in A) \
        and all(solve_integer(transpose(A), r, len(A)) is not None for r in H)


def _is_row_echelon(H):
    pivots = [next(j for j, x in enumerate(r) if x) for r in H]
    return pivots == sorted(set(pivots)) and all(r[j] > 0 for r, j in zip(H, pivots))


def _is_reduced(H):
    """Every entry above a pivot lies in [0, pivot)."""
    pivots = [next(j for j, x in enumerate(r) if x) for r in H]
    return all(0 <= H[k][j] < H[i][j] for i, j in enumerate(pivots) for k in range(i))


def test_hnf_spans_the_row_lattice_of_a_fixed_case():
    # the entry 32 above the pivot 42 is the one in [0, 42)
    A = [[-3, 4, -4], [-1, -4, 2], [2, 2, 5]]
    H = hermite_normal_form(A)
    assert H == [[1, 0, 32], [0, 2, 25], [0, 0, 42]]
    assert _is_row_echelon(H) and _is_reduced(H) and _same_row_lattice(A, H)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4)))
def test_hnf_spans_the_row_lattice(A):
    H = hermite_normal_form(A)
    assert _is_row_echelon(H) and _same_row_lattice(A, H)


@st.composite
def _matrix_and_unimodular_image(draw):
    """A (1-5 x 1-5, entries -6..6) and U A for a random unimodular U:
    elementary row operations, sign flips and a row permutation."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    A = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    UA = [list(r) for r in A]
    for a, b, c in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                           st.integers(-3, 3)), max_size=8)):
        if a != b:
            UA[a] = [x + c * y for x, y in zip(UA[a], UA[b])]
        elif c < 0:
            UA[a] = [-x for x in UA[a]]
    return A, draw(st.permutations(UA))


@settings(max_examples=300, deadline=None)
@given(_matrix_and_unimodular_image())
def test_hnf_is_the_hermite_form_of_the_lattice(pair):
    A, UA = pair
    H = hermite_normal_form(A)
    assert _is_row_echelon(H) and _is_reduced(H)
    assert hermite_normal_form(H) == H
    assert hermite_normal_form(UA) == H


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5))))
def test_integer_kernel_is_the_hermite_form_of_the_kernel(case):
    # the lattice is the one the Smith route spans
    n, A = case
    K = integer_kernel(A, n)
    assert _is_row_echelon(K) and _is_reduced(K)
    assert not any(any(mat_vec(A, x)) for x in K)
    assert K == hermite_normal_form(reference_integer_kernel(A, n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=5),
    st.lists(st.integers(-4, 4), max_size=5))))
def test_smith_orders_read_mod_delta_are_the_exact_smith_form(case):
    # a row c * (first row) makes factors shared between rows
    n, A, scales = case
    if A:
        A = A + [[c * x for x in A[0]] for c in scales]
    R = hermite_normal_form(A)
    _, D, _ = smith_normal_form(R)
    exact = diagonal_of(D) + [0] * (n - len(R))
    assert smith_orders(R, n) == exact
    assert FgAbGroup(n, A).invariant_factors() == tuple(d for d in exact if d != 1)


@st.composite
def _hermite_basis_and_vectors(draw):
    """(n, B, ys, vs): B the Hermite form of up to 4 random rows of length
    n, ys coordinate vectors for B and vs random vectors of length n."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    B = hermite_normal_form(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                          min_size=1, max_size=4)))
    ys = draw(st.lists(st.lists(entry, min_size=len(B), max_size=len(B)), max_size=4))
    vs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    return n, B, ys, vs


@settings(max_examples=300, deadline=None)
@given(_hermite_basis_and_vectors())
def test_echelon_coords_inverts_the_basis(case):
    n, B, ys, vs = case
    assert echelon_coords(B, [[sum(y * b[j] for y, b in zip(ys_, B)) for j in range(n)]
                              for ys_ in ys]) == ys
    # the rows of B are independent, so a solution of B^T y = v is unique
    assert echelon_coords(B, vs) == [solve_integer(transpose(B), v, len(B)) for v in vs]


@st.composite
def _unimodular(draw):
    """A random n x n unimodular matrix, n in 1..6: elementary row
    operations and sign flips on the identity, then a row permutation."""
    n = draw(st.integers(1, 6))
    V = identity(n)
    for a, b, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-4, 4)), max_size=12)):
        if a != b:
            V[a] = [x + c * y for x, y in zip(V[a], V[b])]
        elif c < 0:
            V[a] = [-x for x in V[a]]
    return draw(st.permutations(V))


@settings(max_examples=300, deadline=None)
@given(_unimodular())
def test_vinv_inverts_v(V):
    # _vinv reads V^T from the cached factorization, here a random unimodular V
    n = len(V)
    G = FgAbGroup.free(n)
    G.__dict__["_factors"] = ([0] * n, transpose(V))
    assert mat_mul(G._vinv, V) == identity(n)


# -- groups -----------------------------------------------------------------

def test_invariant_factors():
    assert Z.invariant_factors() == (0,)
    assert FgAbGroup.from_invariants([6]).invariant_factors() == (6,)
    assert trivial_group().invariant_factors() == ()
    G = FgAbGroup(2, [[2, 0], [0, 4]])
    assert G.invariant_factors() == (2, 4)
    H = FgAbGroup(2, [[2, 0], [0, 3]])
    assert H.invariant_factors() == (6,)


def test_group_equality_is_invariant_factors():
    assert FgAbGroup(2, [[2, 0], [0, 3]]) == FgAbGroup.from_invariants([6])
    assert direct_sum_groups([Z, FgAbGroup.from_invariants([2])]) == FgAbGroup(2, [[0, 2]])


def test_contains_zero_and_coords():
    G = FgAbGroup.from_invariants([4])
    assert G.contains_zero([4])
    assert not G.contains_zero([2])
    assert G.canonical_coords([5]) == [1]


@st.composite
def _presentation_and_vector(draw):
    """(ngens, relations, v): up to 4x4 relations with entries in -9..9, some
    diagonal; v is random or a combination of the relations."""
    entry = st.integers(-9, 9)
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        diag = draw(st.lists(entry, max_size=n))
        rels = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]
    else:
        rels = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    v = draw(st.lists(entry, min_size=n, max_size=n))
    if rels and draw(st.booleans()):
        cs = draw(st.lists(entry, min_size=len(rels), max_size=len(rels)))
        v = [sum(c * r[j] for c, r in zip(cs, rels)) for j in range(n)]
    return n, rels, v


@settings(max_examples=300, deadline=None)
@given(_presentation_and_vector())
def test_contains_zero_agrees_with_solving(case):
    # the cached factorization answers membership as solving R^T x = v does
    n, rels, v = case
    G = FgAbGroup(n, rels)
    R = G.relations
    assert G.contains_zero(v) == (solve_integer(transpose(R), v, len(R)) is not None)


def test_membership_runs_no_smith_form(monkeypatch):
    # membership, triviality and the checks of maps read the Hermite
    # relations alone; the Smith form is left to what is printed or counted
    import c2algebra.abelian as ab

    def refuse(A):
        raise AssertionError("smith_normal_form(%r)" % (A,))
    monkeypatch.setattr(ab, "smith_normal_form", refuse)
    rng = Random(3)
    G = FgAbGroup(3, [[2, 4, 6], [1, -3, 5]])
    for H in (G, FgAbGroup.free(60), chain_group(60, BaseRing.parse("Z/3"))):
        for _ in range(50):
            H.contains_zero([rng.randint(-9, 9) for _ in range(H.ngens)])
    assert G.contains_zero([2, 4, 6], [3, 1, 11]) and not G.contains_zero([3, 1, 11], [1, 0, 0])
    assert not G.is_trivial() and FgAbGroup(2, [[1, 1], [0, 1]]).is_trivial()
    f = AbMap(G, G, identity(3))
    assert f.check() is f and not f.is_zero() and (f - f).is_zero()
    assert not AbMap(G, FgAbGroup.free(3), identity(3)).is_well_defined()


# -- the kernels against the plain loops --------------------------------------
# The plain loops below are the kernels before their sparsity-aware rewrite.
# The rewrite skips only work whose result is known, so every output must be
# identical, not just equivalent: U, D and V of the SNF fix the canonical
# bases that the CLI prints.  The Hermite form is unique per lattice, so
# plain_hermite_normal_form, an independent elimination, must give it too.

def plain_mat_mul(A, B):
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


def plain_mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def plain_smith_normal_form(A):
    D = [list(row) for row in A]
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


def plain_hermite_normal_form(A):
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
    # reduce entries above pivots, from the first pivot to the last
    out.sort(key=lambda r: next(j for j, x in enumerate(r) if x))
    for i in range(len(out)):
        piv_col = next(j for j, x in enumerate(out[i]) if x)
        for k in range(i):
            q = out[k][piv_col] // out[i][piv_col]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[i])]
    return out


def _sparse_unit_matrices():
    # sparse +-1 entries, as in the bar complex; dense matrices or larger
    # entries reach the coefficient growth of the unguarded SNF
    rng = Random(4)
    yield from ([], [[]], [[0, 0]], [[0], [0]], [[-1]])
    # small pivots that do not divide the rest of the block
    yield from ([[2, 0], [0, 3]], [[2, 4], [6, 8]], [[0, 2, 0], [3, 0, 0], [0, 0, -2]])
    for _ in range(80):
        m, n = rng.randint(1, 20), rng.randint(1, 24)
        density = rng.uniform(0.02, 0.2)
        yield [[rng.choice((-1, 1)) if rng.random() < density else 0 for _ in range(n)]
               for _ in range(m)]


def _bar_differentials():
    from c2algebra.polyring import PolyRing, RingInvolution
    from c2algebra.trace import DihedralComplex, InvolutiveAlgebra
    base = BaseRing("Q")
    ring = PolyRing(base, ["x", "x_s"])
    A = InvolutiveAlgebra(RingInvolution(ring, [ring.var(1), ring.var(0)]))
    return [dense(C.b[n], C.dim(n - 1))
            for C in (DihedralComplex(A, 4, w) for w in (3, 4)) for n in range(1, 5)]


@pytest.mark.parametrize("inputs", [_sparse_unit_matrices, _bar_differentials])
def test_kernels_match_the_plain_loops(inputs):
    rng = Random(5)
    for A in inputs():
        n = len(A[0]) if A else 0
        v = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        At = [list(col) for col in zip(*A)]
        frozen = repr(A)
        assert smith_normal_form(A) == plain_smith_normal_form(A)
        assert hermite_normal_form(A) == plain_hermite_normal_form(A)
        assert mat_vec(A, v) == plain_mat_vec(A, v)
        assert mat_mul(A, At) == plain_mat_mul(A, At)
        assert mat_mul(At, A) == plain_mat_mul(At, A)
        assert repr(A) == frozen


# -- maps, kernels, cokernels -----------------------------------------------

def test_cokernel_examples():
    idmap = AbMap.identity_map(Z)
    assert cokernel(idmap)[0].is_trivial()
    zero = AbMap(Z, Z, [[0]])
    assert cokernel(zero)[0] == Z
    two = AbMap(Z, Z, [[2]])
    C, proj = cokernel(two)
    assert C == FgAbGroup.from_invariants([2])
    assert proj.is_well_defined()


def test_kernel_examples():
    idmap = AbMap.identity_map(Z)
    K, _ = kernel(idmap)
    assert K.is_trivial()
    zero = AbMap(Z, Z, [[0]])
    assert kernel(zero)[0] == Z
    add = AbMap(FgAbGroup.free(2), Z, [[1, 1]])
    K, incl = kernel(add)
    assert K == Z
    v = incl([1])
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_kernel_with_torsion():
    # x2 : Z/4 -> Z/8 has kernel 0; x2 : Z/4 -> Z/4 has kernel Z/2
    f = AbMap(FgAbGroup.from_invariants([4]), FgAbGroup.from_invariants([8]), [[2]])
    assert kernel(f)[0].is_trivial()
    g = AbMap(FgAbGroup.from_invariants([4]), FgAbGroup.from_invariants([4]), [[2]])
    assert kernel(g)[0] == FgAbGroup.from_invariants([2])


def test_kernel_of_a_free_source_solves_once(monkeypatch):
    # only the kernel itself is solved for, with or without relations on the
    # source: the relations among the Hermite generators are the coordinates
    # of the source's relations, read by back substitution
    import c2algebra.mackey as ab
    calls = []
    real = ab.integer_kernel
    monkeypatch.setattr(ab, "integer_kernel",
                        lambda A, ncols: calls.append(A) or real(A, ncols))
    K, incl = kernel(AbMap(FgAbGroup.free(3), Z, [[1, 2, 2]]))
    assert (K.ngens, K.relations, K.invariant_factors()) == (2, [], (0, 0))
    assert len(calls) == 1
    calls.clear()
    f = AbMap(FgAbGroup(2, [[4, 0]]), FgAbGroup.from_invariants([4]), [[2, 0]])
    assert kernel(f)[0].invariant_factors() == (2, 0)
    assert len(calls) == 1


def test_kernels_homology_and_fixed_points_run_no_smith_form(monkeypatch):
    # they read kernels and coordinates from the Hermite form; only the
    # invariant factors read afterwards factor a group
    import c2algebra.abelian as ab
    from c2algebra.mackey import fixed_point_mackey

    def refuse(A):
        raise AssertionError("smith_normal_form called")
    Z2, Z4, Z3sq = FgAbGroup(1, [[2]]), FgAbGroup(1, [[4]]), FgAbGroup(2, [[3, 0], [0, 3]])
    monkeypatch.setattr(ab, "smith_normal_form", refuse)
    K, _ = kernel(AbMap(FgAbGroup(2, [[4, 0]]), Z4, [[2, 0]]))
    # Z --2--> Z/4 --1--> Z/2: the cycles 2Z/4 are the boundaries
    H = Homology(AbMap(Z, Z4, [[2]]), AbMap(Z4, Z2, [[1]]))
    M = fixed_point_mackey(Z3sq, AbMap(Z3sq, Z3sq, [[0, 1], [1, 0]]))
    monkeypatch.undo()
    assert K.invariant_factors() == (2, 0) and H.group.is_trivial()
    assert M.fixed.invariant_factors() == (3,)


def test_rank_nullity():
    rng = Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        f = AbMap(FgAbGroup.free(n), FgAbGroup.free(m), M)
        K, _ = kernel(f)
        im_rank = n - free_rank(K)
        U, D, V = smith_normal_form(M)
        assert im_rank == sum(1 for d in [D[i][i] for i in range(min(m, n))] if d)


def test_homology_examples():
    zero = AbMap(Z, Z, [[0]])
    assert Homology(zero, zero).group == Z
    two = AbMap(Z, Z, [[2]])
    assert Homology(two, zero).group == FgAbGroup.from_invariants([2])
    # exact pair Z -> Z^2 -> Z
    diag = AbMap(Z, FgAbGroup.free(2), [[1], [1]])
    diff = AbMap(FgAbGroup.free(2), Z, [[1, -1]])
    assert Homology(diag, diff).group.is_trivial()


def test_homology_rejects_noncomplex():
    idm = AbMap.identity_map(Z)
    with pytest.raises(NotAComplex):
        Homology(idm, idm)


def test_homology_two_routes_agree():
    # quotient-first vs kernel-first on random short complexes
    rng = Random(101)
    for _ in range(25):
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        # build d_in with image inside ker(d_out): take d_out, put d_in = ker basis
        d_out = AbMap(FgAbGroup.free(n), FgAbGroup.free(n), A)
        K, incl = kernel(d_out)
        if K.ngens == 0:
            continue
        scale = rng.randint(1, 3)
        d_in = AbMap(K, FgAbGroup.free(n),
                     [[scale * x for x in row] for row in incl.matrix])
        H1 = Homology(d_in, d_out).group
        # route 2: cokernel of d_in first, then kernel of induced d_out
        C, proj = cokernel(d_in)
        d_out2 = AbMap(C, FgAbGroup.free(n), d_out.matrix)
        K2, _ = kernel(d_out2)
        assert H1.invariant_factors() == K2.invariant_factors()


def test_tensor():
    Z2, Z3, Z4, Z6 = (FgAbGroup.from_invariants([m]) for m in (2, 3, 4, 6))
    assert tensor_groups(Z, Z2) == Z2
    assert tensor_groups(Z2, Z3).is_trivial()
    assert tensor_groups(Z4, Z6) == Z2
    assert free_rank(tensor_groups(FgAbGroup.free(2), FgAbGroup.free(3))) == 6


def test_module_doctests():
    import doctest
    import c2algebra.abelian
    failures, _ = doctest.testmod(c2algebra.abelian)
    assert failures == 0


def test_zero_chain_group_homology_runs_no_snf_or_hnf(monkeypatch):
    import c2algebra.abelian as ab
    base = BaseRing.parse("Z/3")
    zero, C2, C3 = (chain_group(d, base) for d in (0, 2, 3))
    target = Homology(AbMap.zero_map(C3, C2), AbMap.zero_map(C2, zero))
    calls = []
    for name in ("smith_normal_form", "hermite_normal_form"):
        real = getattr(ab, name)
        monkeypatch.setattr(ab, name, lambda A, real=real: calls.append(A) or real(A))
    H = Homology(AbMap.zero_map(C3, zero), AbMap.zero_map(zero, C2))
    assert H.group.is_trivial() and free_rank(H.group, base) == 0
    f = H.induced(AbMap.zero_map(zero, C2), target)
    assert (f.source.ngens, f.target.ngens) == (0, 2)
    assert calls == []


def test_block_matrix_places_blocks_at_key_offsets():
    rows, cols = {"a": 1, "b": 2}, {0: 2, 1: 1}
    M = block_matrix(rows, cols, {("b", 0): [[1, 0], [0, 3]], ("a", 1): [[5]]})
    assert M == [[0, 0, 5], [1, 0, 0], [0, 3, 0]]
    assert block_matrix({}, {0: 0}, {}) == []
    # direct sums are block diagonal
    G = direct_sum_groups([FgAbGroup.from_invariants([2]), Z, FgAbGroup.from_invariants([3])])
    assert (G.ngens, G.invariant_factors()) == (3, (6, 0))


def test_chain_complex_homology_and_eigen_parts():
    # Z^2 --0--> Z --2--> Z in degrees 2, 1, 0; the swap acts on Z^2
    C = ChainComplex({0: 1, 1: 1, 2: 2}, {1: [{0: 2}], 2: [{}, {}]})
    assert [chain_homology(C, n).group.invariant_factors() for n in range(-1, 4)] == \
        [(), (2,), (), (0, 0), ()]
    # a missing boundary is the zero map: all of C_0 is cycles
    assert chain_homology(C, 0).cycles.matrix == [[1]] and chain_homology(C, 5).group.is_trivial()
    swap = {0: [{0: 1}], 1: [{0: 1}], 2: [{1: 1}, {0: 1}]}
    plus, minus = EigenComplex(C, swap, 1), EigenComplex(C, swap, -1)
    assert [plus.groups[n].ngens for n in (0, 1, 2)] == [1, 1, 1]
    assert [minus.groups[n].ngens for n in (0, 1, 2)] == [0, 0, 1]
    assert [chain_homology(plus, n).group for n in (0, 1, 2)] == \
        [FgAbGroup.from_invariants([2]), trivial_group(), Z]
    assert [chain_homology(minus, n).group for n in (0, 1, 2)] == \
        [trivial_group(), trivial_group(), Z]
    # eigen_invariants needs 2 to be a unit; over Z/3, d_1 = 2 is onto and
    # each part of C_2 is one Z/3
    with pytest.raises(AbelianError):
        C.eigen_invariants(swap, 1, range(3))
    for base, top in (("Q", (0,)), ("Z[1/2]", (0,)), ("Z/3", (3,))):
        C = ChainComplex({0: 1, 1: 1, 2: 2}, {1: [{0: 2}], 2: [{}, {}]}, BaseRing.parse(base))
        for sign in (1, -1):
            assert C.eigen_invariants(swap, sign, range(3)) == [(), (), top], (base, sign)
    with pytest.raises(AbelianError):
        ChainComplex({}, {}, BaseRing.parse("Z/6")).eigen_invariants({}, 1, [0])


def test_chain_complex_check():
    C = ChainComplex({0: 1, 1: 1, 2: 2}, {1: [{0: 2}], 2: [{}, {}]})
    swap = {0: [{0: 1}], 1: [{0: 1}], 2: [{1: 1}, {0: 1}]}
    assert C.check(swap, 1) is C
    # (-1)^n on degree n anticommutes with d; the identity does not
    flip = {0: [{0: 1}], 1: [{0: -1}], 2: columns(identity(2))}
    assert C.check(flip, -1) is C
    with pytest.raises(NotAComplex) as e:
        C.check({0: [{0: 1}], 1: [{0: 1}], 2: columns(identity(2))}, -1)
    assert e.value.args == ("d invol != -1 invol d", 1)
    # d o d = 0 is homology's check, not check's
    bad = ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 1}]})
    assert bad.check({0: [{0: 1}], 1: [{0: 1}], 2: [{0: 1}]}, 1) is bad
    with pytest.raises(NotAComplex):
        chain_homology(bad, 1)
    # over Z/3 the comparison is mod 3: -1 may be lifted as 2
    mod3 = ChainComplex({0: 1, 1: 1}, {1: [{0: 1}]}, BaseRing.parse("Z/3"))
    assert mod3.check({0: [{0: 1}], 1: [{0: 2}]}, -1) is mod3
    # over Z/m the columns are stored with entries in [-m/2, m/2); the
    # columns handed over are not edited
    given = {1: [{0: 2, 1: 3}]}
    assert ChainComplex({0: 2, 1: 1}, given, BaseRing.parse("Z/3")).mats == {1: [{0: -1}]}
    assert given == {1: [{0: 2, 1: 3}]}


# -- homology from boundary ranks and elementary divisors -----------------------

def _smith_divisors(M):
    """(rank, non-unit divisors) read off the diagonal of smith_normal_form."""
    diag = [d for d in diagonal_of(smith_normal_form(M)[1]) if d] if M else []
    return len(diag), tuple(d for d in diag if d != 1)


def test_elementary_divisors_of_fixed_matrices():
    # a ChainComplex hands elementary_divisors the sparse columns of a boundary
    assert elementary_divisors(columns([])) == (0, ())
    assert elementary_divisors(columns([[0, 0], [0, 0]])) == (0, ())
    assert elementary_divisors(columns([[2, 4], [6, 8]])) == (2, (2, 4))
    # no entry is a unit, but the divisors are 1 and det = -2
    assert elementary_divisors(columns([[2, 3], [4, 5]])) == (2, (2,))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, -6]), min_size=n, max_size=n),
    max_size=5)), st.booleans())
def test_elementary_divisors_match_smith_normal_form(M, unit_free):
    if unit_free:  # every entry even or a multiple of 3: no unit pivot at all
        M = [[3 * x if x in (1, -1) else x for x in row] for row in M]
    # the columns of M, then its rows (the columns of M^T)
    assert elementary_divisors(columns(M)) == _smith_divisors(M)
    assert elementary_divisors(columns(transpose(M))) == _smith_divisors(M)


M7 = [[2, 6, -9, 6, -8, 0, 9], [9, 3, -4, -4, 7, -2, -9], [-3, 8, 8, -2, 3, 7, 2],
      [9, 2, 5, -1, 8, -9, 3], [7, -5, 7, 8, -3, 4, -8], [6, 2, 9, 8, -3, 7, 4],
      [6, 2, 4, 2, -9, 8, 8]]


def test_elementary_divisors_of_a_dense_matrix_return_at_once():
    # the min-pivot Smith form with transforms did not return within 20 s on
    # this matrix; its unit-free core is factored from its Hermite form
    t0 = time.monotonic()
    assert elementary_divisors(columns(M7)) == (7, (16212170,))
    assert elementary_divisors(columns(transpose(M7))) == (7, (16212170,))
    assert time.monotonic() - t0 < 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=7)),
    st.lists(st.sampled_from([1, 1, 2, 3, 6]), min_size=7, max_size=7))
def test_elementary_divisors_of_dense_matrices_match_the_minor_oracle(M, scales):
    # dense rows, some scaled so that the divisors are not all 1
    M = [[s * x for x in row] for row, s in zip(M, scales)]
    divisors = snf_invariants_by_minors(M)
    assert elementary_divisors(columns(M)) == \
        (len(divisors), tuple(d for d in divisors if d != 1))


@st.composite
def _rows_with_dependencies(draw):
    """Up to 8 integer rows of length up to 8, entries in [-50, 50] before
    mixing, some of them integer combinations of others and some zero."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        kind = draw(st.sampled_from(["zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        else:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)])
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_rows_with_dependencies())
def test_elimination_rank_is_the_hermite_row_count(rows):
    # the rank of a core that is not a sum of cyclic groups is read with no
    # abelian: by fraction-free elimination, against the Hermite rows
    rank = len(FgAbGroup(len(rows[0]), rows).relations)
    assert _elimination_rank(rows) == rank
    assert lattice_core(columns(transpose(rows)))[0] == rank
    assert lattice_core(columns(rows))[0] == rank


@st.composite
def _sparse_complexes(draw):
    """Chain ranks dims[0..3] and boundaries d_1..d_3: d_1 sparse with
    entries 0, +-1, +-2, and d_{n+1} a kernel basis of d_n times a small
    random matrix, so that d o d = 0."""
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2])
    dims = draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))

    def matrix(rows, cols):
        return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]

    mats = {1: matrix(dims[0], dims[1])}
    for n in (2, 3):
        K = integer_kernel(mats[n - 1], dims[n - 1]) if dims[n - 1] else []
        mats[n] = mat_mul(transpose(K), matrix(len(K), dims[n])) if K else \
            zeros(dims[n - 1], dims[n])
    return dict(enumerate(dims)), {n: columns(M, dims[n]) for n, M in mats.items()}


@settings(max_examples=150, deadline=None)
@given(_sparse_complexes(), st.sampled_from(["Z", "Q", "Z[1/2]", "Z/3", "Z/4", "Z/6", "Z/9",
                                             "Z/15"]))
def test_invariants_agree_with_homology(complex_, base):
    dims, mats = complex_
    C = ChainComplex(dims, mats, BaseRing.parse(base))
    for n in range(-1, 5):
        # chain_homology is over Z for the bases flat over Z
        assert C.invariants(n) == \
            localized(chain_homology(C, n).group.invariant_factors(), C.base), (base, n)


@settings(max_examples=150, deadline=None)
@given(_sparse_complexes(), st.sampled_from([3, 4, 6, 9]), st.data())
def test_invariants_over_z_mod_m_read_a_lift_that_is_a_complex_only_mod_m(complex_, m, data):
    # d + m R is the same boundary over Z/m, and d o d is then 0 only mod m;
    # the columns are stored in [-m/2, m/2), where the lifts of about one
    # complex in eight still have d o d != 0 over Z
    dims, mats = complex_
    base = BaseRing.parse("Z/%d" % m)
    lifted = {}
    for n, cols in mats.items():
        M = dense(cols, dims[n - 1])
        R = [data.draw(st.lists(st.integers(-2, 2), min_size=dims[n], max_size=dims[n]))
             for _ in M]
        lifted[n] = columns([[x + m * r for x, r in zip(row, rrow)] for row, rrow in zip(M, R)],
                            dims[n])
    C, L = ChainComplex(dims, mats, base), ChainComplex(dims, lifted, base)
    for n in range(-1, 5):
        assert L.invariants(n) == C.invariants(n) == \
            chain_homology(L, n).group.invariant_factors(), (m, n)


def test_invariants_check_d_o_d():
    for base in (None, BaseRing.parse("Q"), BaseRing.parse("Z/3")):
        bad = ChainComplex({0: 1, 1: 1, 2: 1}, {1: [{0: 1}], 2: [{0: 1}]}, base)
        with pytest.raises(NotAComplex):
            bad.invariants(1)
        assert bad.invariants(0) == ()  # d_0 = 0 and d_1 is onto
