"""The small Hochschild complex of a ring that splits by variable.

When every rule of A rewrites x_i^p into a polynomial in x_i alone, or there
are no rules, A is the tensor product over the base of its one-variable
rings A_i, each free over the base.  Then HH(A) is the homology of the
tensor product of small complexes K(A_i) (Eilenberg-Zilber), one per
variable, with the Koszul sign:

* x_i ruled, f = x_i^p - repl: K(A_i) is A_i in every degree, the periodic
  resolution of A_i over A_i (x) A_i read at A_i, with d = 0 out of odd
  degrees and d = multiplication by f'(x_i) out of even degrees >= 2;
* x_i free: A_i <- A_i dx_i with d = 0.

With a weight, the generator of degree 2j + e (e = 0, 1) has weight
(j p + e) w(x_i) for x_i^p = 0, the one homogeneous rule in one variable,
and e w(x_i) for a free variable; a basis element x_i^a g weighs
a w(x_i) more.  The complex of one weight, or of the whole finite algebra,
is one chains.ChainComplex over the base; hh prints its invariants, as it
does those of trace.hochschild_complex, which has the same signature and is
its oracle.
"""

from .chains import ChainComplex
from .polyring import UnsupportedPresentation, integer_lift


def _cells(ring, i, n_max, weight):
    """The basis x_i^a g_k of K(A_i) in degrees k <= n_max, as (k, a, its
    weight) triples; a free variable's up to the weight, which it needs."""
    w = ring.weights[i]
    if i in ring.rules:
        p = ring.rules[i][0]
        return [(k, a, (a + k // 2 * p + k % 2) * w)
                for k in range(n_max + 1) for a in range(p)]
    return [(k, a, (a + k) * w) for k in range(min(1, n_max) + 1)
            for a in range(weight // w + 1)]


def _derivative_columns(ring, i):
    """[x_i^a f'(x_i) in A_i, as (exponent, integer) pairs, for a < p]."""
    p, repl = ring.rules[i]

    def mono(a):
        return tuple(a if j == i else 0 for j in range(ring.n))
    # the exponents of repl are below p, so the keys are distinct
    fprime = ring.normal_form({mono(p - 1): p, **{mono(m[i] - 1): -m[i] * c
                                                   for m, c in repl.items() if m[i]}})
    return [[(m[i], integer_lift(c)) for m, c in ring.mul({mono(a): 1}, fprime).items()]
            for a in range(p)]


def hochschild_complex(sigma, n_max, weight=None):
    """The tensor product of the K(A_i) of sigma's ring in degrees
    0..n_max, at the weight (None: the whole finite algebra), as one
    chains.ChainComplex over the base.  A basis element of degree n is a
    tuple of one (k, a) per variable with the k summing to n.  Refuses
    what sigma.require_weight refuses, and a ring that does not split by
    variable."""
    sigma.require_weight(weight)
    ring = sigma.ring
    if not ring.splits_by_variable():
        raise UnsupportedPresentation("a rule involves more than one variable")
    layer = [((), 0, 0)]  # (cells so far, degree, weight)
    for i in range(ring.n):
        cells = _cells(ring, i, n_max, weight)
        layer = [(t + ((k, a),), n + k, s + x) for t, n, s in layer for k, a, x in cells
                 if n + k <= n_max and (weight is None or s + x <= weight)]
    bases = {n: [] for n in range(n_max + 1)}
    for t, n, s in layer:
        if weight is None or s == weight:
            bases[n].append(t)
    index = {n: {t: j for j, t in enumerate(basis)} for n, basis in bases.items()}
    derivative = {i: _derivative_columns(ring, i) for i in ring.rules}
    mats = {}
    for n in range(1, n_max + 1):
        mats[n] = []
        for t in bases[n]:
            col, sign = {}, 1
            for i, (k, a) in enumerate(t):
                if k and k % 2 == 0:
                    for b, c in derivative[i][a]:
                        j = index[n - 1][t[:i] + ((k - 1, b),) + t[i + 1:]]
                        col[j] = col.get(j, 0) + sign * c
                sign = -sign if k % 2 else sign
            mats[n].append({j: x for j, x in col.items() if x})
    return ChainComplex({n: len(basis) for n, basis in bases.items()}, mats, ring.base)
