"""Chain-level real Hochschild homology.

The route of dihedral, and of hh when a rule mixes variables (y^2 = x^3);
for every other ring hh reads the small complex of koszul, whose oracle this
bar complex is.  Both take the parsed sigma: hochschild_complex(sigma,
n_max, weight) has the signature and result of koszul's, and
dihedral_homology(sigma, n_max, weight) returns HC, HD and HD', which
run_dihedral, the body of dihedral, prints.  Each checks
its request once, with sigma.require_weight, before it builds anything; the
blocks and complexes below take the request as checked.  The
dihedral bar complex of a presented algebra with involution: normalized
Hochschild chains C_n = A (x) Abar^{(x) n} with

    b  = the Hochschild boundary,
    w_n(a0 (x) ... (x) an) = (-1)^{n(n+1)/2} w(a0) (x) w(an) (x) ... (x) w(a1),
    B  = Connes' operator on normalized chains.

These satisfy b^2 = 0, wb = bw, w^2 = 1, B^2 = 0, bB + Bb = 0 and
wB = -Bw exactly; all are asserted in the test suite.  When 2 is invertible
the total complex of the (b, B)-bicomplex splits along w, giving the
dihedral splitting HC = HD + HD' of cyclic homology.  b, w and B are sparse
integer columns, one {row: coeff} per basis tensor, read from the memo
tables of an InvolutiveAlgebra, which each of the two wraps once per run
around sigma.  Each complex (the Hochschild chains, and the total complex
of the bicomplex with its involution, whose columns are those of b, B and w
moved to their offsets) is a chains.ChainComplex over the base ring in that
form.  HH and HC are read as invariant factors (ChainComplex.invariants),
HD and HD' as those of the +-parts of the involution
(ChainComplex.eigen_invariants), over Z/m each by one elimination mod m per
degree; the base ring is that module's concern.

Graded algebras are handled one internal weight at a time (exact per
weight), finite-dimensional algebras as a whole, and both are cut further
into blocks by the finest grading the presentation has.  When every rule is
a monomial relation x_i^p = 0 and sigma is a signed permutation of the
variables, sigma(x_i) = u x_pi(i) with u a unit, b and B preserve the
exponent vector of a tensor (the sum over its slots) and w carries the block
of e onto the block of pi(e).  hochschild_blocks enumerates the tensors of
each degree once, buckets them by exponent vector and builds one
DihedralComplex per sigma-orbit of vectors.  A paired orbit, e != pi(e),
has two blocks with isomorphic homology and a swapped w, so it counts its
block twice in HC and once in each of HD and HD'; only a self-conjugate
block is split along w.  Any other presentation has one block, the weight
block or the whole finite complex; hh reaches this module only then, and
reads that one block's Hochschild chains.  The graded pieces gr^i of real
Hochschild homology come from the de Rham side,
differentials.hkr_graded_piece; this complex is their oracle.
"""

from functools import cached_property
from itertools import accumulate, product
from math import prod

from . import EngineError, NotAComplex, compact_json, load_json
from .chains import ChainComplex, free_rank_of_sum
from .polyring import integer_lift


class TraceError(EngineError):
    pass


class InvolutiveAlgebra:
    """The bar complex's view of a presented algebra with involution: sigma
    (a polyring.RingInvolution, which knows its ring and the ring its base)
    and two memo tables that all blocks of one run share: _products of two
    basis monomials (one ring.mul per pair) and _images of one under sigma.
    The caller checks that sigma is an involution that preserves the rules;
    algebra_json.parse_algebra does, naming the offending relation."""

    def __init__(self, omega):
        self.omega = omega
        self.ring = ring = omega.ring
        self.base = ring.base
        self._products = _Table(lambda pair: ring.mul({pair[0]: 1}, {pair[1]: 1}))
        self._images = _Table(lambda m: omega({m: 1}))

    def __repr__(self):
        return "InvolutiveAlgebra(%s)" % self.ring.names


class _Table(dict):
    """key -> the (monomial, integer) pairs of f(key), made on first lookup."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        out = self[key] = tuple((m, integer_lift(c)) for m, c in self.f(key).items())
        return out


def _permuted(perm, e):
    """The exponent vector of sigma(x^e), for the (pi(i), u) pairs of
    RingInvolution.signed_permutation: x_i^e_i goes to x_pi(i)^e_i."""
    out = [0] * len(e)
    for i, (k, _u) in enumerate(perm):
        out[k] = e[i]
    return tuple(out)


def _tensors(ring, n_max, weight):
    """[the basis tensors of degree n, for n = 0..n_max]: the tuples
    a0, ..., an of basis monomials with a1..an != 1, of total weight
    `weight`, or all of them for weight None (a finite algebra).  Each degree
    is in lexicographic order of its slots, a slot's monomials ordered by
    weight when a weight is given."""
    if weight is None:
        monos = ring.monomial_basis_all()
        reduced = [m for m in monos if any(m)]
        return [list(product(monos, *[reduced] * n)) for n in range(n_max + 1)]
    monos = [(m, w) for w in range(weight + 1) for m in ring.monomial_basis_weight(w)]
    layer, out = [((m,), w) for m, w in monos], []
    for n in range(n_max + 1):
        out.append([t for t, s in layer if s == weight])
        if n < n_max:
            layer = [(t + (m,), s + w) for t, s in layer for m, w in monos
                     if w and s + w <= weight]
    return out


# ---------------------------------------------------------------------------
# the dihedral complex

class DihedralComplex:
    """Normalized Hochschild chains of one block, with b, omega and B as
    sparse integer columns (chains.ChainComplex's form).  The bases and b
    are built here; omega and B are built on first read.

    bases[n] lists the basis tensors of degree n, 0 <= n <= n_max; by
    default every tensor of the weight, or of the whole finite algebra when
    weight is None.  hochschild_blocks passes the tensors of one
    exponent-vector block, with its vector as key; the block is paired when
    sigma moves the key: omega then leaves the block, and reading it raises
    TraceError.  The caller has checked the request with
    sigma.require_weight."""

    def __init__(self, algebra, n_max, weight=None, bases=None, key=None, paired=False):
        self.algebra = algebra
        self.n_max = n_max
        self.weight = weight
        self.key = key
        self.paired = paired
        self.bases = bases or dict(enumerate(_tensors(algebra.ring, n_max, weight)))
        self.index = {n: {t: i for i, t in enumerate(basis)} for n, basis in self.bases.items()}
        self.b = {n: self._matrix(n, n - 1, self._b_terms) for n in range(1, n_max + 1)}

    @cached_property
    def omega(self):
        return {n: self._matrix(n, n, self._omega_terms) for n in range(0, self.n_max + 1)}

    @cached_property
    def B(self):
        return {n: self._matrix(n, n + 1, self._B_terms) for n in range(0, self.n_max)}

    def dim(self, n):
        return len(self.bases.get(n, ()))

    # -- the operators, term by term ------------------------------------------

    def _matrix(self, n, m, terms):
        """The sparse columns of C_n -> C_m: column j sums the signed slot
        tensors that terms yields for the j-th basis tensor, each slot a
        tuple of (monomial, coefficient) pairs, expanded multilinearly; a
        tensor with a unit in a middle slot is dropped (the projection to
        Abar), any other tensor outside the basis of C_m is an error."""
        index, unit = self.index[m], (0,) * self.algebra.ring.n
        cols = []
        for tensor in self.bases[n]:
            col = {}
            for sign, slots in terms(tensor):
                for pairs in product(*slots):
                    t, coeffs = zip(*pairs)
                    j = index.get(t)
                    if j is None:
                        if unit in t[1:]:
                            continue  # degenerate
                        raise TraceError(
                            "the tensor %r is not in the degree-%d basis of %r, weight %s, block %s"
                            % (t, m, self.algebra, self.weight, self.key))
                    col[j] = col.get(j, 0) + prod(coeffs, start=sign)
            cols.append({i: x for i, x in col.items() if x})
        return cols

    def _b_terms(self, tensor):
        products = self.algebra._products
        n = len(tensor) - 1
        slots = [((m, 1),) for m in tensor]
        for i in range(n):
            yield (-1 if i % 2 else 1), \
                slots[:i] + [products[tensor[i], tensor[i + 1]]] + slots[i + 2:]
        yield (-1 if n % 2 else 1), [products[tensor[n], tensor[0]]] + slots[1:n]

    def _omega_terms(self, tensor):
        n = len(tensor) - 1
        # w(a0) (x) w(an) (x) ... (x) w(a1)
        yield (-1 if (n * (n + 1) // 2) % 2 else 1), \
            [self.algebra._images[m] for m in tensor[:1] + tensor[:0:-1]]

    def _B_terms(self, tensor):
        n = len(tensor) - 1
        slots = [((m, 1),) for m in tensor]
        one = [(((0,) * self.algebra.ring.n, 1),)]
        for i in range(n + 1):
            yield (-1 if (i * n) % 2 else 1), one + slots[i:] + slots[:i]


def hochschild_blocks(A, n_max, weight=None):
    """One DihedralComplex per sigma-orbit of blocks.  When every rule is a
    monomial relation x_i^p = 0 and sigma is a signed permutation (read from
    the involution, RingInvolution.signed_permutation), the tensors of
    degrees <= n_max, enumerated once, are bucketed by exponent vector (the
    sum over their slots); each sigma-orbit of vectors is kept as its first
    vector in sorted order, the e with e <= sigma(e), flagged paired when
    sigma moves it; the tensors of its partner are never stored.  Otherwise
    the one block is the whole weight block (or finite complex)."""
    perm = A.omega.signed_permutation()
    if any(repl for _p, repl in A.ring.rules.values()) or None in perm:
        return [DihedralComplex(A, n_max, weight)]
    buckets = {}  # e -> its tensors by degree, or None for a dropped partner
    for n, basis in enumerate(_tensors(A.ring, n_max, weight)):
        for t in basis:
            key = tuple(map(sum, zip(*t)))
            if key not in buckets:
                buckets[key] = ([[] for _ in range(n_max + 1)]
                                if key <= _permuted(perm, key) else None)
            bucket = buckets[key]
            if bucket is not None:
                bucket[n].append(t)
    return [DihedralComplex(A, n_max, weight, dict(enumerate(buckets[e])),
                            key=e, paired=_permuted(perm, e) != e)
            for e in sorted(buckets) if buckets[e] is not None]


def hochschild_chains(C):
    """The Hochschild chains of a DihedralComplex with the boundary b."""
    return ChainComplex({k: C.dim(k) for k in C.bases}, C.b, C.algebra.base)


def hochschild_complex(sigma, n_max, weight=None):
    """The Hochschild chains of sigma's ring in degrees 0..n_max, at the
    weight (None: the whole finite algebra), as one chains.ChainComplex over
    the base: koszul.hochschild_complex's signature and result, for any
    ring.  Refuses what sigma.require_weight refuses."""
    sigma.require_weight(weight)
    return hochschild_chains(DihedralComplex(InvolutiveAlgebra(sigma), n_max, weight))


# ---------------------------------------------------------------------------
# cyclic and dihedral homology

class DihedralHomology:
    def __init__(self, hc, hd, hd_prime):
        self.hc = hc
        self.hd = hd
        self.hd_prime = hd_prime


def _bicomplex_homology(C, n_max):
    """(HC, HD, HD') of the (b, B)-bicomplex of one block, truncated at
    n_max columns: for each degree 0..n_max the invariant factors of the
    block's share of the direct sum over all blocks.  The bicomplex
    involution acts by (-1)^i omega on column i; HD is its +1 part.  A
    paired orbit's total complex is two copies of C's swapped by the
    involution, so each eigen part is one copy and omega is not built."""
    # total complex T_n = sum over columns i of C_{n - 2i}, at these offsets;
    # only the degrees q where C is nonempty, in decreasing order (column i up)
    nonempty = [q for q in range(C.n_max, -1, -1) if C.dim(q)]
    offsets = {}
    for n in range(0, n_max + 2):
        keys = [((n - q) // 2, q) for q in nonempty
                if q <= n and (n - q) % 2 == 0 and n - q <= 2 * n_max]
        offsets[n] = dict(zip(keys, accumulate((C.dim(q) for _i, q in keys), initial=0)))
    mats = {}
    for n in range(1, n_max + 2):
        target, mats[n] = offsets[n - 1], []
        for i, q in offsets[n]:
            cols = [{} for _ in range(C.dim(q))]
            for M, key in ((C.b, (i, q - 1)), (C.B, (i - 1, q + 1))):
                if key in target:
                    for col, image in zip(cols, M[q]):
                        col.update((target[key] + r, x) for r, x in image.items())
            mats[n] += cols
    T = ChainComplex({n: sum(C.dim(q) for _i, q in keys) for n, keys in offsets.items()},
                     mats, C.algebra.base)
    degrees = range(0, n_max + 1)
    hc = [T.invariants(n) for n in degrees]
    if C.paired:
        return [H * 2 for H in hc], hc, hc
    invol = {n: [{o + r: (-x if i % 2 else x) for r, x in image.items()}
                 for (i, q), o in keys.items() for image in C.omega[q]]
             for n, keys in offsets.items()}
    try:
        T.check(invol, 1)
    except NotAComplex as e:
        raise TraceError("bicomplex (b + B): %s at degree %d" % e.args)
    hd, hdp = (T.eigen_invariants(invol, s, degrees) for s in (1, -1))
    return hc, hd, hdp


def dihedral_homology(sigma, n_max, weight=None):
    """HC, HD, HD' of the (b, B)-bicomplex of sigma's ring truncated at
    n_max columns.

    Returns per-degree dimensions (free ranks over the base) for
    0 <= n <= n_max, each the free rank of the direct sum over the blocks
    of hochschild_blocks.  Refuses what sigma.require_weight refuses for a
    job that halves: 2 must be a unit of the base.
    """
    sigma.require_weight(weight, halves=True)
    A = InvolutiveAlgebra(sigma)
    parts = [_bicomplex_homology(C, n_max) for C in hochschild_blocks(A, n_max + 1, weight)]
    hc, hd, hdp = ([free_rank_of_sum([d for p in parts for d in p[s][n]], A.base)
                    for n in range(0, n_max + 1)] for s in range(3))
    return DihedralHomology(hc, hd, hdp)


def run_dihedral(args, out):
    from .algebra_json import parse_algebra
    D = dihedral_homology(parse_algebra(load_json(args.algebra)), args.nmax,
                          weight=args.weight)
    data = {"hc": D.hc, "hd": D.hd, "hd_prime": D.hd_prime}
    if args.format == "json":
        out(compact_json(data))
    else:
        for n in range(0, args.nmax + 1):
            out("n=%d: HC=%d HD=%d HD'=%d" % (n, D.hc[n], D.hd[n], D.hd_prime[n]))
    return 0
