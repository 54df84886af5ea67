"""JSON of Mackey functors, {"fixed": [0, 2], "underlying": [0], "res": [[1]],
"tr": [[2]], "sigma": [[1]]} (groups as invariant-factor lists, 0 = Z), and
of the complexes of slice-check, {"kind": "sigma-sphere", "k": -1} or
{"kind": "complex", "terms": {"0": ["Zbar", "ZbarC2"]}, "diffs": {"1":
{"fixed": [[...]], "underlying": [[...]]}}}.  Malformed input raises
ParseError, a Lewis-axiom failure or d o d != 0 DomainError.  mackey_to_json
writes canonical coordinates, which parse_mackey reads back.
"""

from . import DomainError, ParseError
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
        res = mk.AbMap(fixed, und, _int_matrix(data.get("res") or []))
        tr_ = mk.AbMap(und, fixed, _int_matrix(data.get("tr") or []))
        sig = mk.AbMap(und, und, _int_matrix(data.get("sigma") or []))
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


def _int_matrix(rows):
    """A JSON matrix, checked to be a list of rows of integers."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(type(x) is int for r in rows for x in r)):
        raise ParseError("matrix entries must be integers, got %r" % (rows,))
    return rows


def parse_complex(data):
    from . import complexes as cx
    unknown = set(data) - {"kind", "k", "terms", "diffs"}
    if unknown:
        raise ParseError("unknown fields in complex: %s" % sorted(unknown))
    kind = data.get("kind")
    if kind == "sigma-sphere":
        k = data.get("k", 0)
        if type(k) is not int:
            raise ParseError("k must be an integer, got %r" % (k,))
        return cx.sign_sphere(k)
    if kind != "complex":
        raise ParseError("unknown complex kind %r" % kind)
    CELLS = {"Zbar": mk.zbar, "ZbarC2": mk.zbar_c2}
    terms = {}
    for deg, cells in _degree_items(data, "terms"):
        if not isinstance(cells, list):
            raise ParseError("cells at degree %d must be a list, got %r" % (deg, cells))
        parts = []
        for c in cells:
            if type(c) is not str or c not in CELLS:
                raise ParseError("unknown cell %r (use Zbar or ZbarC2)" % (c,))
            parts.append(CELLS[c]())
        terms[deg] = mk.direct_sum(parts)
    diffs = {}
    for n, mats in _degree_items(data, "diffs"):
        if n not in terms or (n - 1) not in terms:
            raise ParseError("differential at %d has no source or target" % n)
        src, tgt = terms[n], terms[n - 1]
        try:
            diffs[n] = mk.MackeyMap(
                src, tgt, mk.AbMap(src.fixed, tgt.fixed, _int_matrix(mats["fixed"])),
                mk.AbMap(src.underlying, tgt.underlying, _int_matrix(mats["underlying"])))
        except (KeyError, TypeError, IllFormedMap) as e:
            raise ParseError("malformed differential at %d: %s" % (n, e))
    C = cx.MackeyComplex(terms, diffs)
    try:
        C.check()
    except cx.ComplexError as e:
        raise DomainError(str(e))
    return C


def _degree_items(data, field):
    """The (degree, value) pairs of a complex's "terms" or "diffs" object."""
    obj = data.get(field, {})
    if not isinstance(obj, dict):
        raise ParseError("%s must be an object keyed by degree" % field)
    try:
        items = [(int(key), value) for key, value in obj.items()]
    except ValueError as e:
        raise ParseError("%s keys must be integer degrees: %s" % (field, e))
    if len({n for n, _ in items}) < len(items):
        raise ParseError("%s names a degree twice: %s" % (field, sorted(obj)))
    return items


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
