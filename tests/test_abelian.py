"""Integer linear algebra layer: SNF against a gcd-of-minors oracle,
kernels/cokernels/homology on frozen examples, and rank bookkeeping."""

from itertools import combinations
from math import gcd
from random import Random

from c2algebra.abelian import (
    AbMap,
    FgAbGroup,
    NotAComplex,
    Z,
    Zmod,
    chain_group,
    cokernel,
    direct_sum_groups,
    hermite_normal_form,
    homology_at,
    identity,
    integer_kernel,
    kernel,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_integer,
    tensor_groups,
    transpose,
    trivial_group,
)

from c2algebra.polyring import BaseRing

import pytest
from hypothesis import given, settings, strategies as st


# -- oracle -----------------------------------------------------------------

def minor_det(A, rows, cols):
    sub = [[A[i][j] for j in cols] for i in rows]
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * minor_det_full(minor)
    return total


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


# -- groups -----------------------------------------------------------------

def test_invariant_factors():
    assert Z().invariant_factors() == (0,)
    assert Zmod(6).invariant_factors() == (6,)
    assert trivial_group().invariant_factors() == ()
    G = FgAbGroup(2, [[2, 0], [0, 4]])
    assert G.invariant_factors() == (2, 4)
    H = FgAbGroup(2, [[2, 0], [0, 3]])
    assert H.invariant_factors() == (6,)


def test_group_equality_is_invariant_factors():
    assert FgAbGroup(2, [[2, 0], [0, 3]]) == Zmod(6)
    assert direct_sum_groups([Z(), Zmod(2)]) == FgAbGroup(2, [[0, 2]])


def test_contains_zero_and_coords():
    G = Zmod(4)
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


def test_membership_factors_each_group_once(monkeypatch):
    import c2algebra.abelian as ab
    calls = []
    real = ab.smith_normal_form
    monkeypatch.setattr(ab, "smith_normal_form", lambda A: calls.append(A) or real(A))
    rng = Random(3)

    def ask(G):
        calls.clear()
        for _ in range(50):
            G.contains_zero([rng.randint(-9, 9) for _ in range(G.ngens)])
        return len(calls)

    assert ask(FgAbGroup(3, [[2, 4, 6], [1, -3, 5]])) <= 2
    # free and (Z/m)^d groups are already in Smith form: no SNF at all
    assert ask(FgAbGroup.free(60)) == 0
    assert ask(chain_group(60, BaseRing.parse("Z/3"))) == 0


# -- maps, kernels, cokernels -----------------------------------------------

def test_cokernel_examples():
    idmap = AbMap.identity_map(Z())
    assert cokernel(idmap)[0].is_trivial()
    zero = AbMap(Z(), Z(), [[0]])
    assert cokernel(zero)[0] == Z()
    two = AbMap(Z(), Z(), [[2]])
    C, proj = cokernel(two)
    assert C == Zmod(2)
    assert proj.is_well_defined()


def test_kernel_examples():
    idmap = AbMap.identity_map(Z())
    K, _ = kernel(idmap)
    assert K.is_trivial()
    zero = AbMap(Z(), Z(), [[0]])
    assert kernel(zero)[0] == Z()
    add = AbMap(FgAbGroup.free(2), Z(), [[1, 1]])
    K, incl = kernel(add)
    assert K == Z()
    v = incl([1])
    assert v[0] + v[1] == 0 and v != [0, 0]


def test_kernel_with_torsion():
    # x2 : Z/4 -> Z/8 has kernel 0; x2 : Z/4 -> Z/4 has kernel Z/2
    f = AbMap(Zmod(4), Zmod(8), [[2]])
    assert kernel(f)[0].is_trivial()
    g = AbMap(Zmod(4), Zmod(4), [[2]])
    assert kernel(g)[0] == Zmod(2)


def test_rank_nullity():
    rng = Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        f = AbMap(FgAbGroup.free(n), FgAbGroup.free(m), M)
        K, _ = kernel(f)
        im_rank = n - K.rank()
        U, D, V = smith_normal_form(M)
        assert im_rank == sum(1 for d in [D[i][i] for i in range(min(m, n))] if d)


def test_homology_examples():
    zero = AbMap(Z(), Z(), [[0]])
    assert homology_at(zero, zero) == Z()
    two = AbMap(Z(), Z(), [[2]])
    assert homology_at(two, zero) == Zmod(2)
    # exact pair Z -> Z^2 -> Z
    diag = AbMap(Z(), FgAbGroup.free(2), [[1], [1]])
    diff = AbMap(FgAbGroup.free(2), Z(), [[1, -1]])
    assert homology_at(diag, diff).is_trivial()


def test_homology_rejects_noncomplex():
    idm = AbMap.identity_map(Z())
    with pytest.raises(NotAComplex):
        homology_at(idm, idm)


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
        H1 = homology_at(d_in, d_out)
        # route 2: cokernel of d_in first, then kernel of induced d_out
        C, proj = cokernel(d_in)
        d_out2 = AbMap(C, FgAbGroup.free(n), d_out.matrix)
        K2, _ = kernel(d_out2)
        assert H1.invariant_factors() == K2.invariant_factors()


def test_tensor():
    G = Zmod(2)
    assert tensor_groups(Z(), G) == G
    assert tensor_groups(Zmod(2), Zmod(3)).is_trivial()
    assert tensor_groups(Zmod(4), Zmod(6)) == Zmod(2)
    assert tensor_groups(FgAbGroup.free(2), FgAbGroup.free(3)).rank() == 6


def test_module_doctests():
    import doctest
    import c2algebra.abelian
    failures, _ = doctest.testmod(c2algebra.abelian)
    assert failures == 0
