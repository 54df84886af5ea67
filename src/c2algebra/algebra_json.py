"""JSON of algebras with involution: {"base": "Z" | "Q" | "Z[1/2]" | "Z/m",
"gens": [{"name": "x", "sigma": "x"}, ...], "rels": ["y^2 - x^3 - 1", ...],
"weights": {"x": 2, ...}}, sigma images (default: the generator) and
relations as polynomial strings, weights integers >= 1 (default 1); "rels"
and "weights" are optional.  Each relation must be monic in a pure power of
a variable.  A field of the wrong JSON type raises ParseError; a sigma that
is not an involution or does not keep the relation ideal DomainError.
run_hh, the body of hh, reads the parsed algebra's Hochschild homology from
the small complex of koszul when its ring splits by variable, else from the
bar complex of trace, and loads only the one it reads.  run_dihedral, the
body of dihedral, checks the request with sigma.require_weight and then
reads HC, HD and HD' of a rule-free ring over Q or Z[1/2] whose sigma is a
signed permutation in closed form (dihedral_de_rham, from the
sigma-character of the involutive de Rham complex), with no chain complex
and no other module; every other ring reads the (b, B)-bicomplex of trace.
"""

from . import DomainError, ParseError, compact_json, load_json, render_invariants
from .polyring import BaseRing, PolyRing, RingError, RingInvolution, parse_poly


def parse_algebra(data):
    """The checked RingInvolution sigma of an algebra object, on its ring."""
    unknown = set(data) - {"base", "gens", "rels", "weights"}
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
    units = (1, ring.base.neg(1))  # -1 over Z/m is stored as m - 1
    for text, r in zip(rels_text, rel_polys):
        candidates = []
        for i in range(ring.n):
            # the highest pure power of x_i with coefficient +-1 leads
            pure = [(mono[i], mono, c) for mono, c in r.items()
                    if c in units and 0 < mono[i] == sum(mono)]
            if pure and i not in rules:
                p, mono, c = max(pure)
                if all(m[i] < p for m in r if m != mono):
                    candidates.append((p, i, mono, c))
        if not candidates:
            raise ParseError("relation %r is not monic in a pure power of a "
                             "variable" % text)
        # prefer the smallest leading power (y^2 = f(x) over x^d = ...)
        p, i, mono, c = min(candidates)
        rules[i] = (p, {m: ring.base.neg(ring.base.mul(cc, c))
                        for m, cc in r.items() if m != mono})
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


def dihedral_de_rham(sigma, n_max, weight):
    """HC, HD and HD' in degrees 0..n_max of a rule-free ring over Q or
    Z[1/2] whose sigma is a signed permutation, in the form of
    trace.dihedral_homology (the dict of their lists under "hc", "hd" and
    "hd_prime"), read from the sigma-character of Omega^k_w
    (RingInvolution.form_character) with no chain complex.  At weight
    w >= 1 the weight-w de Rham complex is exact over Q, since the Euler
    field E = sum w_i x_i d/dx_i gives d i_E + i_E d = w, and sigma commutes
    with d.  So HC_n = Omega^n_w / d Omega^(n-1)_w is Omega^n_w - HC_(n-1)
    as a virtual sigma-representation, and HD_n, its part where sigma acts
    by (-1)^n, is (HC_n + (-1)^n tr sigma)/2.  At weight 0, and on the ground
    ring, HC_n is H^0_dR = Q in each even degree n = 2j, where sigma acts by
    (-1)^j (Loday, Cyclic Homology, Thm 3.4.12).  Free ranks over Z[1/2] are
    those over Q."""
    hc, hd, c, t = [], [], 0, 0
    for n in range(n_max + 1):
        if weight:
            dim, tr = sigma.form_character(n, weight)
            c, t = dim - c, tr - t
        else:
            c = t = 1 - n % 2
            t *= (-1) ** (n // 2)
        hc.append(c)
        hd.append((c + (-1) ** n * t) // 2)
    return {"hc": hc, "hd": hd, "hd_prime": [c - d for c, d in zip(hc, hd)]}


def run_dihedral(args, out):
    sigma = parse_algebra(load_json(args.algebra))
    sigma.require_weight(args.weight, halves=True)
    ring = sigma.ring
    # the closed form serves a smooth ring (no rules) in characteristic 0 whose
    # sigma permutes the variables up to sign; the bar complex serves the rest
    if ring.base.kind == "Z/m" or ring.rules or None in sigma.signed_permutation():
        from .trace import dihedral_homology
        data = dihedral_homology(sigma, args.nmax, args.weight)
    else:
        data = dihedral_de_rham(sigma, args.nmax, args.weight)
    if args.format == "json":
        out(compact_json(data))
    else:
        for n, row in enumerate(zip(data["hc"], data["hd"], data["hd_prime"])):
            out("n=%d: HC=%d HD=%d HD'=%d" % (n, *row))
    return 0
