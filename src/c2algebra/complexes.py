"""Bounded chain complexes of Mackey functors, for hr-gr.

Provides homology with induced Lewis structure (hr-gr prints it) and the
sign-sphere suspension of one Mackey functor.  The levels of a Mackey
complex are not free, so its homology is a mackey.Homology of AbMaps
between presented groups, one degree at a time, not a chains.ChainComplex.
The regular-slice checks read complexes of cells with no Mackey functor
(slices); sign_sphere is the Mackey complex of slices.sign_sphere's cells.
Sigma^{k sigma} M is S^{k sigma} smashed with zbar, boxed with M cell by
cell: box(M, T) for each cell T and id_M box d for each differential d.
run_hr_gr, the body of hr-gr, prints the homology of the HKR pieces
(differentials.hkr_graded_piece).
"""

from . import (DomainError, EngineError, compact_json, default_truncation, load_json,
               render_invariants)
from . import abelian
from . import slices
from .mackey import (
    AbMap,
    Homology,
    MackeyFunctor,
    MackeyMap,
    box,
    box_map,
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

CELLS = {"Zbar": zbar, "ZbarC2": zbar_c2}


def sign_sphere(k):
    """S^{k sigma} smashed with zbar, k any integer: the Mackey complex of
    the cells and differentials of slices.sign_sphere(k), one cell in each
    degree."""
    S = slices.sign_sphere(k)
    terms = {n: CELLS[c]() for n, (c,) in S.cells.items()}
    return MackeyComplex(terms, {
        n: MackeyMap(terms[n], terms[n - 1], AbMap(terms[n].fixed, terms[n - 1].fixed, fixed),
                     AbMap(terms[n].underlying, terms[n - 1].underlying, und))
        for n, (fixed, und) in S.diffs.items()})


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


def run_hr_gr(args, out):
    from . import differentials as df
    from .algebra_json import parse_algebra
    from .mackey_json import mackey_to_json
    sigma = parse_algebra(load_json(args.algebra))
    if sigma.ring.base.kind != "Z":
        raise DomainError("hr-gr computes Mackey homology over Z only, not over %s"
                          % sigma.ring.base)
    # one sigma-orbit type per generator; a swapped pair at its first member
    label = "+".join(("trivial" if s == 1 else "sign") if k == j else "free"
                     for j, (k, s) in enumerate(df.signed_permutation(sigma)) if k >= j)
    trunc = default_truncation()
    weights = [args.weight] if args.weight is not None else list(range(0, min(5, trunc + 1)))
    blocks = []
    for w in weights:
        C = df.hkr_graded_piece(sigma, args.i, w)
        H = {n: homology(C, n) for n in C.degrees()}
        nonzero = [n for n, h in H.items()
                   if not (h.fixed.is_trivial() and h.underlying.is_trivial())]
        degrees = range(min(nonzero), max(nonzero) + 1) if nonzero else ()
        blocks.append({"weight": w,
                       "homology": {str(n): mackey_to_json(H[n]) for n in degrees}})
    if args.format == "json":
        out(compact_json({"algebra": label, "i": args.i, "blocks": blocks}))
    else:
        out("gr^%d HR of the %s algebra" % (args.i, label))
        for entry in blocks:
            out("weight %d:" % entry["weight"])
            if not entry["homology"]:
                out("  0")
            for n in sorted(entry["homology"], key=int):
                h = entry["homology"][n]
                out("  H_%s: %s / %s" % (n, render_invariants(tuple(h["fixed"])),
                                         render_invariants(tuple(h["underlying"]))))
    return 0
