"""Bounded chain complexes of Mackey functors.

Provides homology with induced Lewis structure (hr-gr prints it), the
sign-sphere suspension of one Mackey functor, and the regular-slice
connectivity checks on underlying and geometric fixed points.
The levels of a Mackey complex, and its geometric fixed points Phi C (the
groups coker(tr)), are not free, so their homology is a mackey.Homology of
AbMaps between presented groups, one degree at a time, not a
chains.ChainComplex.  A slice check reads one level's homology group per
degree and builds no Mackey functor.  Phi C is taken levelwise, which is
exact on sums of zbar and zbar_c2 cells: the only terms of the complexes
that mackey_json.parse_complex and sign_sphere build.

S^{k sigma} smashed with zbar is its reduced C2-CW chain complex (Hill-
Hopkins-Ravenel), |k| + 1 cells: zbar in degree 0 and zbar_c2 in each degree
1..k (k > 0) or -1..k (k < 0).  Outward from degree 0 the differentials are
the fold zbar_c2 -> zbar (fixed x2) for k > 0 or its dual, the diagonal
zbar -> zbar_c2 (fixed x1) for k < 0; then 1 - sigma (fixed 0), 1 + sigma
(fixed x2), 1 - sigma, ... between the zbar_c2 cells.  Sigma^{k sigma} M is
this complex boxed with M cell by cell: box(M, T) for each cell T and
id_M box d for each differential d.
"""

from . import EngineError
from . import abelian
from .abelian import trivial_group
from .mackey import (
    AbMap,
    Homology,
    MackeyFunctor,
    MackeyMap,
    box,
    box_map,
    geometric_fixed_points,
    validate,
    zbar,
    zbar_c2,
    zero_mackey,
)


class ComplexError(EngineError):
    pass


class NotAComplex(ComplexError):
    pass


class MackeyComplex:
    """terms: degree -> MackeyFunctor, diffs: degree n -> MackeyMap to n-1."""

    def __init__(self, terms, diffs):
        self.terms = dict(terms)
        self.diffs = dict(diffs)

    def degrees(self):
        return sorted(self.terms)

    def term(self, n):
        return self.terms.get(n) or zero_mackey()

    def diff(self, n):
        d = self.diffs.get(n)
        if d is None:
            return MackeyMap.zero_map(self.term(n), self.term(n - 1))
        return d

    def check(self):
        for n, d in self.diffs.items():
            if not d.is_valid():
                raise NotAComplex("differential at degree %d is not a Mackey map" % n)
            if (n - 1) in self.diffs:
                comp = self.diffs[n - 1].compose(d)
                if not comp.is_zero():
                    raise NotAComplex("d o d != 0 at degree %d" % n)
        return self


def single(M, degree=0):
    return MackeyComplex({degree: M}, {})


def homology(C, n):
    """Levelwise homology at degree n with induced res/tr/sigma."""
    d_n = C.diff(n)
    d_np1 = C.diff(n + 1)
    try:
        Hf = Homology(d_np1.f_fixed, d_n.f_fixed)
        He = Homology(d_np1.f_underlying, d_n.f_underlying)
    except abelian.NotAComplex:
        raise NotAComplex("d o d != 0 at degree %d" % (n + 1))
    M = C.term(n)
    H = MackeyFunctor(Hf.group, He.group, Hf.induced(M.res, He),
                      He.induced(M.tr, Hf), He.induced(M.sigma, He))
    v = validate(H)
    if v is not None:
        raise ComplexError("homology failed Lewis validation: %r" % v)
    return H


# ---------------------------------------------------------------------------
# sign-sphere cells

def sign_sphere(k):
    """S^{k sigma} smashed with zbar, k any integer (see the module docstring)."""
    if k == 0:
        return single(zbar())
    terms = {n: zbar_c2() if n else zbar()
             for n in range(max(k, 0), min(k, 0) - 1, -1)}
    diffs = {}
    for m in range(1, abs(k) + 1):  # joins the cells in degrees +-(m - 1), +-m
        if m == 1:
            fixed, und = ([[2]], [[1, 1]]) if k > 0 else ([[1]], [[1], [1]])
        elif m % 2 == 0:
            fixed, und = [[0]], [[1, -1], [-1, 1]]
        else:
            fixed, und = [[2]], [[1, 1], [1, 1]]
        n = m if k > 0 else 1 - m
        src, tgt = terms[n], terms[n - 1]
        diffs[n] = MackeyMap(src, tgt, AbMap(src.fixed, tgt.fixed, fixed),
                             AbMap(src.underlying, tgt.underlying, und))
    return MackeyComplex(terms, diffs)


def suspend_sigma(M, k):
    """Sigma^{k sigma} of one Mackey functor: box(M, T) in the degree of each
    cell T of sign_sphere(k), id_M box d for each of its differentials d;
    box(M, zbar_c2), the term of every free cell, is built once."""
    if not k:
        return single(M)
    S = sign_sphere(k)
    free = box(M, zbar_c2())
    terms = {n: free if n else box(M, T) for n, T in sorted(S.terms.items())}
    one = MackeyMap.identity_map(M)
    return MackeyComplex(terms, {n: box_map(one, d, terms[n], terms[n - 1])
                                 for n, d in sorted(S.diffs.items())})


# ---------------------------------------------------------------------------
# geometric fixed points of complexes and slice checks

def phi_complex(C):
    """Levelwise coker(tr) with induced differentials: {n: the AbMap
    Phi C_n -> Phi C_{n-1}} for every n from the lowest degree of C to one
    above its highest, so that Homology(phi[k + 1], phi[k]) is H_k(Phi C)
    for every degree k of C.

    Exact only on complexes whose terms are direct sums of zbar and zbar_c2
    cells.  The two builders of the complexes slice-check reads hold this:
    mackey_json.parse_complex accepts no other cell, and sign_sphere uses
    these two.
    """
    degs = C.degrees()
    groups = {n: geometric_fixed_points(C.term(n)) for n in degs}

    def group(n):
        return groups.get(n) or trivial_group()
    return {n: AbMap(group(n), group(n - 1), C.diff(n).f_fixed.matrix)
            for n in range(degs[0], degs[-1] + 2)} if degs else {}


def _vanishes(d, k):
    """Whether H_k = ker d(k) / im d(k + 1) is 0, for d the map from a
    degree to the differential of one level: underlying, fixed or Phi."""
    try:
        return Homology(d(k + 1), d(k)).group.is_trivial()
    except abelian.NotAComplex:
        raise NotAComplex("d o d != 0 at degree %d" % (k + 1))


def _level(C, name):
    """The degree -> differential map of C's level: "f_underlying" or "f_fixed"."""
    return lambda m: getattr(C.diff(m), name)


def is_regular_slice_connective(C, n):
    """True iff H_k(C^e) = 0 for k < n and H_k(Phi C) = 0 for k < ceil(n/2)."""
    degs = C.degrees()
    if not degs:
        return True
    lo, hi = degs[0], degs[-1]
    if not all(_vanishes(_level(C, "f_underlying"), k) for k in range(lo, min(n, hi + 1))):
        return False
    phi = phi_complex(C)
    return all(_vanishes(phi.__getitem__, k)
               for k in range(lo, min(-((-n) // 2), hi + 1)))  # ceil(n/2)


def is_regular_slice_coconnective(C, n):
    """Necessary conditions only: H_k(C^e) = 0 for k > n and
    H_k(C^{C2}) = 0 for k > floor(n/2).  Returns "passes-necessary-conditions"
    or "fails"."""
    if n > 0:
        raise ComplexError("coconnectivity check is stated for n <= 0")
    degs = C.degrees()
    if not degs:
        return "passes-necessary-conditions"
    und, fixed = _level(C, "f_underlying"), _level(C, "f_fixed")
    # below its lowest degree C has no homology; n <= 0, so n <= floor(n/2)
    for k in range(max(n + 1, degs[0]), degs[-1] + 2):
        if not _vanishes(und, k) or (k > n // 2 and not _vanishes(fixed, k)):
            return "fails"
    return "passes-necessary-conditions"
