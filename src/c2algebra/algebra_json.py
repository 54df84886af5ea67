"""JSON of algebras with involution: {"base": "Z" | "Q" | "Z[1/2]" | "Z/m",
"gens": [{"name": "x", "sigma": "x"}, ...], "rels": ["y^2 - x^3 - 1", ...],
"weights": {"x": 2, ...}}, sigma images (default: the generator) and
relations as polynomial strings, weights integers >= 1 (default 1); "rels"
and "weights" are optional.  Each relation must be monic in a pure power of
a variable.  A field of the wrong JSON type raises ParseError; a sigma that
is not an involution or does not keep the relation ideal DomainError.
run_hh, the body of hh, reads the parsed algebra's Hochschild homology from
the small complex of koszul when its ring splits by variable, else from the
bar complex of trace, and loads only the one it reads.
"""

from . import DomainError, ParseError, compact_json, load_json, render_invariants
from .polyring import BaseRing, PolyRing, RingError, RingInvolution, parse_poly


def parse_algebra(data):
    """The checked RingInvolution sigma of an algebra object, on its ring."""
    allowed = {"base", "gens", "rels", "weights"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError("unknown fields in algebra: %s" % sorted(unknown))
    if type(data.get("base")) is not str:
        raise ParseError("base must be a string, got %r" % (data.get("base"),))
    try:
        base = BaseRing.parse(data["base"])
    except RingError as e:
        raise ParseError("unsupported base ring: %s" % e)
    gens = data.get("gens")
    if not (isinstance(gens, list) and all(isinstance(g, dict) for g in gens)):
        raise ParseError("gens must be a list of generator objects, got %r" % (gens,))
    names = []
    for g in gens:
        unknown = set(g) - {"name", "sigma"}
        if unknown:
            raise ParseError("unknown fields in generator: %s" % sorted(unknown))
        name = g.get("name")
        if not (type(name) is str and name.isidentifier()):
            raise ParseError("each generator needs a variable name, got %r" % (name,))
        if type(g.get("sigma", "")) is not str:
            raise ParseError("sigma(%s) must be a polynomial string, got %r"
                             % (name, g["sigma"]))
        names.append(name)
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names")
    rels_text = data.get("rels", [])
    if not (isinstance(rels_text, list) and all(type(t) is str for t in rels_text)):
        raise ParseError("rels must be a list of polynomial strings, got %r" % (rels_text,))
    weights = _generator_weights(data.get("weights", {}), names)
    plain = PolyRing(base, names, weights=weights)
    try:
        rel_polys = [parse_poly(plain, t) for t in rels_text]
    except RingError as e:
        raise ParseError("bad relation: %s" % e)
    rules = _relations_to_rules(plain, rel_polys, rels_text)
    ring = PolyRing(base, names, rules=rules, weights=weights)
    try:
        images = [parse_poly(ring, g.get("sigma", g["name"])) for g in gens]
    except RingError as e:
        raise ParseError("bad sigma image: %s" % e)
    omega = RingInvolution(ring, images)
    if not omega.is_involution():
        raise DomainError("sigma is not an involution")
    bad = omega.broken_rule()
    if bad is not None:
        raise DomainError("relation ideal is not sigma-stable (offending "
                          "relation: %s)" % rels_text[bad])
    return omega


def _generator_weights(weights, names):
    """The "weights" object of an algebra as a list over the generators:
    each named generator's weight an integer >= 1, absent ones 1."""
    if not isinstance(weights, dict):
        raise ParseError("weights must be an object from generator names to "
                         "integers, got %r" % (weights,))
    unknown = set(weights) - set(names)
    if unknown:
        raise ParseError("weights of unknown generators: %s" % sorted(unknown))
    for name, w in weights.items():
        if type(w) is not int or w < 1:
            raise ParseError("the weight of %s must be an integer >= 1, got %r" % (name, w))
    return [weights.get(n, 1) for n in names]


def _relations_to_rules(ring, rel_polys, rels_text):
    rules = {}
    for text, r in zip(rels_text, rel_polys):
        candidates = []
        for i in range(ring.n):
            lead = None
            for mono, c in r.items():
                if mono[i] and all(e == 0 for j, e in enumerate(mono) if j != i):
                    # a unit +-1 of the base: -1 over Z/m is stored as m - 1
                    if c in (1, ring.base.neg(1)):
                        if lead is None or mono[i] > lead[0]:
                            lead = (mono[i], mono, c)
            if lead is None:
                continue
            p, mono, c = lead
            if any(m[i] >= p for m in r if m != mono):
                continue
            if i in rules:
                continue
            candidates.append((p, i, mono, c))
        if not candidates:
            raise ParseError("relation %r is not monic in a pure power of a "
                             "variable" % text)
        # prefer the smallest leading power (y^2 = f(x) over x^d = ...)
        p, i, mono, c = min(candidates)
        rest = {m: cc for m, cc in r.items() if m != mono}
        repl = {m: ring.base.neg(ring.base.mul(cc, c)) for m, cc in rest.items()}
        rules[i] = (p, repl)
    return rules


def run_hh(args, out):
    sigma = parse_algebra(load_json(args.algebra))
    if sigma.ring.splits_by_variable():
        from .koszul import hochschild_complex
    else:
        from .trace import hochschild_complex
    C = hochschild_complex(sigma, args.nmax + 1, args.weight)
    rows = [{"n": n, "hh": list(C.invariants(n))} for n in range(0, args.nmax + 1)]
    if args.format == "json":
        out(compact_json({"weight": args.weight, "rows": rows}))
    else:
        for r in rows:
            out("HH_%d = %s" % (r["n"], render_invariants(tuple(r["hh"]))))
    return 0
