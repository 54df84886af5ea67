"""Independent cyclic-homology oracle: the classical first-quadrant
(b, b', 1 - t, N) bicomplex on unnormalized chains, compared against the
engine's normalized (b, B)-model degree by degree."""

from c2algebra.abelian import zeros
from c2algebra.chains import ChainComplex
from c2algebra.mackey import mat_mul
from c2algebra.trace import dihedral_homology
from oracles import (
    algebra_gaussian,
    algebra_ground,
    algebra_q_dual_numbers,
    algebra_q_poly,
    chain_homology,
    columns,
    free_rank,
)


def _unnormalized_chains(A, n_max, weight):
    ring = A.ring
    if weight is None:
        monos = ring.monomial_basis_all()
        def slot_monos(_budget):
            return monos
    else:
        def slot_monos(budget):
            out = []
            for w in range(0, budget + 1):
                out.extend(ring.monomial_basis_weight(w))
            return out
    bases = {}
    for n in range(0, n_max + 1):
        out = []

        def rec(i, rem, acc):
            if i == n + 1:
                if weight is None or rem == 0:
                    out.append(tuple(acc))
                return
            for m in slot_monos(rem if weight is not None else 0):
                mw = ring.monomial_weight(m) if weight is not None else 0
                if weight is not None and mw > rem:
                    continue
                rec(i + 1, rem - mw, acc + [m])
        rec(0, weight if weight is not None else 0, [])
        bases[n] = sorted(out)
    return bases


def _expand(ring, slots, index, out, coeff):
    def rec(i, acc, c):
        if c == 0:
            return
        if i == len(slots):
            key = index.get(tuple(acc))
            if key is not None:
                out[key] += c
            return
        for mono, cf in slots[i].items():
            rec(i + 1, acc + [mono], c * int(cf))
    rec(0, [], coeff)


def _operators(A, bases):
    ring = A.ring
    index = {n: {t: i for i, t in enumerate(b)} for n, b in bases.items()}
    mono = lambda m: {m: ring.base.one()}
    b_full, b_prime, t_op, N_op = {}, {}, {}, {}
    for n, basis in bases.items():
        dim = len(basis)
        if n >= 1:
            tgt = bases[n - 1]
            Mb = zeros(len(tgt), dim)
            Mbp = zeros(len(tgt), dim)
            for j, tensor in enumerate(basis):
                colb = [0] * len(tgt)
                colbp = [0] * len(tgt)
                for i in range(n):
                    sign = -1 if i % 2 else 1
                    prod = ring.mul(mono(tensor[i]), mono(tensor[i + 1]))
                    slots = [mono(m) for m in tensor[:i]] + [prod] + \
                        [mono(m) for m in tensor[i + 2:]]
                    _expand(ring, slots, index[n - 1], colb, sign)
                    _expand(ring, slots, index[n - 1], colbp, sign)
                sign = -1 if n % 2 else 1
                prod = ring.mul(mono(tensor[n]), mono(tensor[0]))
                slots = [prod] + [mono(m) for m in tensor[1:n]]
                _expand(ring, slots, index[n - 1], colb, sign)
                for i, v in enumerate(colb):
                    Mb[i][j] = v
                for i, v in enumerate(colbp):
                    Mbp[i][j] = v
            b_full[n] = Mb
            b_prime[n] = Mbp
        T = zeros(dim, dim)
        for j, tensor in enumerate(basis):
            sign = -1 if n % 2 else 1
            rotated = (tensor[-1],) + tensor[:-1]
            T[index[n][rotated]][j] = sign
        t_op[n] = T
        Nm = zeros(dim, dim)
        power = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for _ in range(n + 1):
            for i in range(dim):
                for j in range(dim):
                    Nm[i][j] += power[i][j]
            power = mat_mul(T, power)
        N_op[n] = Nm
    return b_full, b_prime, t_op, N_op


def classical_hc(A, n_max, weight=None):
    """HC dims from the (b, b', 1-t, N) bicomplex, degrees 0..n_max."""
    bases = _unnormalized_chains(A, n_max + 1, weight)
    b, bp, t, N = _operators(A, bases)
    dims_q = {n: len(bases[n]) for n in bases}
    # total complex over columns p in [0, n_max + 1]
    layout, dims, offs = {}, {}, {}
    for n in range(0, n_max + 2):
        cols = [(p, n - p) for p in range(0, n + 1) if (n - p) in dims_q]
        layout[n] = cols
        dims[n] = sum(dims_q[q] for _, q in cols)
        offs[n] = {}
        off = 0
        for key in cols:
            offs[n][key] = off
            off += dims_q[key[1]]
    mats = {}
    for n in range(1, n_max + 2):
        M = zeros(dims[n - 1], dims[n])
        for (p, q) in layout[n]:
            src = offs[n][(p, q)]
            # vertical: b on even columns, -b' on odd
            if q >= 1 and (p, q - 1) in offs[n - 1]:
                V = b[q] if p % 2 == 0 else [[-x for x in row] for row in bp[q]]
                toff = offs[n - 1][(p, q - 1)]
                for i in range(dims_q[q - 1]):
                    for j in range(dims_q[q]):
                        M[toff + i][src + j] += V[i][j]
            # horizontal: 1 - t from odd columns, N from even columns > 0
            if p >= 1 and (p - 1, q) in offs[n - 1]:
                if p % 2 == 1:
                    H = [[(1 if i == j else 0) - t[q][i][j]
                          for j in range(dims_q[q])] for i in range(dims_q[q])]
                else:
                    H = N[q]
                toff = offs[n - 1][(p - 1, q)]
                for i in range(dims_q[q]):
                    for j in range(dims_q[q]):
                        M[toff + i][src + j] += H[i][j]
        mats[n] = M
    # the oracle checks itself: D^2 = 0
    for n in range(2, n_max + 2):
        prod = mat_mul(mats[n - 1], mats[n])
        assert all(all(x == 0 for x in row) for row in prod), "oracle D^2 != 0"
    T = ChainComplex(dims, {n: columns(M, dims[n]) for n, M in mats.items()})
    return [free_rank(chain_homology(T, n).group) for n in range(0, n_max + 1)]


def test_oracle_matches_engine_ground_field():
    got = dihedral_homology(algebra_ground().omega, 4)["hc"]
    assert classical_hc(algebra_ground(), 4) == got == [1, 0, 1, 0, 1]


def test_oracle_matches_engine_dual_numbers():
    A = algebra_q_dual_numbers()
    assert classical_hc(A, 3) == dihedral_homology(A.omega, 3)["hc"]


def test_oracle_matches_engine_gaussian():
    A = algebra_gaussian()
    assert classical_hc(A, 3) == dihedral_homology(A.omega, 3)["hc"]


def test_oracle_matches_engine_polynomial_weights():
    A = algebra_q_poly()
    for w in (0, 1, 2):
        assert classical_hc(A, 3, weight=w) == dihedral_homology(A.omega, 3, weight=w)["hc"], w
