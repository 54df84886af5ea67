"""JSON of Mackey functors, {"fixed": [0, 2], "underlying": [0], "res": [[1]],
"tr": [[2]], "sigma": [[1]]} (groups as invariant-factor lists, 0 = Z).
Malformed input raises ParseError, a Lewis-axiom failure DomainError.
mackey_to_json writes canonical coordinates, which parse_mackey reads back.
The complexes of slice-check are read by slices.parse_complex.
"""

from . import DomainError, ParseError, int_matrix
from . import mackey as mk
from .abelian import FgAbGroup, IllFormedMap


def parse_mackey(data):
    allowed = {"fixed", "underlying", "res", "tr", "sigma"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError("unknown fields in Mackey functor: %s" % sorted(unknown))
    fixed = FgAbGroup.from_invariants(_invariant_list(data, "fixed"))
    und = FgAbGroup.from_invariants(_invariant_list(data, "underlying"))
    try:
        res = mk.AbMap(fixed, und, int_matrix(data.get("res") or []))
        tr_ = mk.AbMap(und, fixed, int_matrix(data.get("tr") or []))
        sig = mk.AbMap(und, und, int_matrix(data.get("sigma") or []))
    except IllFormedMap as e:
        raise ParseError("malformed Mackey functor: %s" % e)
    M = mk.MackeyFunctor(fixed, und, res, tr_, sig)
    v = mk.validate(M)
    if v is not None:
        raise DomainError("Lewis axioms fail: %r" % v)
    return M


def _invariant_list(data, field):
    """A level of a Mackey functor, checked to be a list of invariant
    factors: integers >= 0."""
    invs = data.get(field)
    if not (isinstance(invs, list) and all(type(d) is int and d >= 0 for d in invs)):
        raise ParseError("%s must be a list of integers >= 0, got %r" % (field, invs))
    return invs


def mackey_to_json(M):
    """Canonical-coordinate JSON form; parse(emit(M)) is the identity.  The
    maps come first: the canonical basis of each level takes its exact Smith
    form, whose diagonal then gives its invariant factors, so each level is
    factored once."""
    res, tr, sigma = (_canonical_matrix(f) for f in (M.res, M.tr, M.sigma))
    return {
        "fixed": list(M.fixed.invariant_factors()),
        "underlying": list(M.underlying.invariant_factors()),
        "res": res,
        "tr": tr,
        "sigma": sigma,
    }


def _canonical_matrix(f):
    rows = []
    cols = [f.target.canonical_coords(f(b)) for b in f.source.canonical_basis()]
    n = len(f.target.canonical_basis())
    for i in range(n):
        rows.append([c[i] for c in cols])
    return rows
