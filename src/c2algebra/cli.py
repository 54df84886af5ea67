"""Batch front end: parse presented rings and Lewis diagrams from JSON,
dispatch computations, emit pretty text or JSON.

Exit codes: 0 success, 1 domain error, 2 parse/schema error.  All numeric
output is exact; identical jobs produce byte-identical output.  The JSON
interchange formats:

Mackey functor
    {"fixed": [0, 2], "underlying": [0], "res": [[1]], "tr": [[2]],
     "sigma": [[1]]}
  groups are invariant-factor lists (0 = Z), matrices row-major over those
  generators.

Algebra with involution
    {"base": "Z" | "Q" | "Z[1/2]" | "Z/m",
     "gens": [{"name": "x", "sigma": "x"}, ...],
     "rels": ["y^2 - x^3 - 1", ...],
     "weights": {"x": 2, ...}}
  names are variable names; sigma images (default: the generator itself)
  and relations are polynomial strings; weights map generator names to
  integers >= 1 (default 1) and grade the weight blocks.  "rels" and
  "weights" are optional.  Each relation must be monic in a pure power of
  some variable, and the relation ideal must be sigma-stable.  A field of
  the wrong JSON type is a parse error.

Complex (for slice-check)
    {"kind": "sigma-sphere", "k": -1}
  or an explicit {"kind": "complex", "terms": {"0": ["Zbar"], ...},
  "diffs": {"1": {"fixed": [[...]], "underlying": [[...]]}}} with terms
  given as lists of cell names Zbar / ZbarC2.

The default truncation is 8, overridable with MACKEY_TRUNC.
"""

import argparse
import json
import os
import sys

from . import DEFAULT_TRUNCATION, EngineError

# Each command imports the layers it runs inside its own functions, so that
# a process loads (and compiles) no layer it does not call.


class ParseError(Exception):
    pass


class DomainError(EngineError):
    pass


def default_truncation():
    v = os.environ.get("MACKEY_TRUNC")
    if v is None:
        return DEFAULT_TRUNCATION
    try:
        if int(v) >= 0:
            return int(v)
    except ValueError:
        pass
    raise ParseError("MACKEY_TRUNC must be an integer >= 0, got %r" % v)


# ---------------------------------------------------------------------------
# parsing

def parse_input(data):
    """Dispatch a JSON object to a domain object by its fields."""
    if not isinstance(data, dict):
        raise ParseError("top-level JSON must be an object")
    if "fixed" in data and "underlying" in data:
        return parse_mackey(data)
    if "base" in data and "gens" in data:
        return parse_algebra(data)
    if "kind" in data:
        return parse_complex(data)
    raise ParseError("unrecognized input object (expected a Mackey functor, "
                     "an algebra, or a complex)")


def parse_mackey(data):
    from .abelian import AbMap, FgAbGroup, IllFormedMap
    from . import mackey as mk
    allowed = {"fixed", "underlying", "res", "tr", "sigma"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError("unknown fields in Mackey functor: %s" % sorted(unknown))
    fixed = FgAbGroup.from_invariants(_invariant_list(data, "fixed"))
    und = FgAbGroup.from_invariants(_invariant_list(data, "underlying"))
    try:
        res = AbMap(fixed, und, _int_matrix(data.get("res") or []))
        tr_ = AbMap(und, fixed, _int_matrix(data.get("tr") or []))
        sig = AbMap(und, und, _int_matrix(data.get("sigma") or []))
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


def parse_algebra(data):
    """The checked RingInvolution sigma of an algebra object, on its ring."""
    from .polyring import BaseRing, PolyRing, RingError, RingInvolution, parse_poly
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
    gens = data.get("gens", [])
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


def parse_complex(data):
    from .abelian import AbMap, IllFormedMap
    from . import mackey as mk
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
                src, tgt, AbMap(src.fixed, tgt.fixed, _int_matrix(mats["fixed"])),
                AbMap(src.underlying, tgt.underlying, _int_matrix(mats["underlying"])))
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


# ---------------------------------------------------------------------------
# rendering

def mackey_to_json(M):
    """Canonical-coordinate JSON form; parse(emit(M)) is the identity."""
    fixed_inv = list(M.fixed.invariant_factors())
    und_inv = list(M.underlying.invariant_factors())
    return {
        "fixed": fixed_inv,
        "underlying": und_inv,
        "res": _canonical_matrix(M.res),
        "tr": _canonical_matrix(M.tr),
        "sigma": _canonical_matrix(M.sigma),
    }


def _canonical_matrix(f):
    rows = []
    cols = [f.target.canonical_coords(f(b)) for b in f.source.canonical_basis()]
    n = len(f.target.invariant_factors())
    for i in range(n):
        rows.append([c[i] for c in cols])
    return rows


def compact_json(data):
    """The one line of a --format json output: sorted keys, no spaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def render_lewis(M, fmt="pretty"):
    from .abelian import render_invariants
    if fmt == "json":
        return compact_json(mackey_to_json(M))
    data = mackey_to_json(M)
    lines = []
    lines.append("C2-level : %s" % render_invariants(tuple(data["fixed"])))
    lines.append("e-level  : %s" % render_invariants(tuple(data["underlying"])))
    lines.append("res   = %s" % data["res"])
    lines.append("tr    = %s" % data["tr"])
    lines.append("sigma = %s" % data["sigma"])
    return "\n".join(lines)


def group_to_json(G):
    return list(G.invariant_factors())


# ---------------------------------------------------------------------------
# commands

def _load(path_or_json):
    if path_or_json.strip().startswith("{"):
        text = path_or_json
    else:
        try:
            with open(path_or_json, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError("cannot read %s: %s" % (path_or_json, e))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (e.lineno, e.colno, e.msg))


def _algebra(args):
    """The parsed --algebra of an algebra command: its RingInvolution."""
    from .polyring import RingInvolution
    sigma = parse_input(_load(args.algebra))
    if not isinstance(sigma, RingInvolution):
        raise ParseError("%s expects an algebra" % args.command)
    return sigma


def cmd_mackey_show(args, out):
    from . import mackey as mk
    M = parse_input(_load(args.input))
    if not isinstance(M, mk.MackeyFunctor):
        raise ParseError("mackey-show expects a Mackey functor")
    out(render_lewis(M, args.format))
    return 0


def cmd_box(args, out):
    from . import mackey as mk
    L = parse_input(_load(args.left))
    R = parse_input(_load(args.right))
    if not (isinstance(L, mk.MackeyFunctor) and isinstance(R, mk.MackeyFunctor)):
        raise ParseError("box expects two Mackey functors")
    out(render_lewis(mk.box(L, R), args.format))
    return 0


def cmd_phi(args, out):
    from .abelian import render_invariants
    from . import mackey as mk
    M = parse_input(_load(args.input))
    if not isinstance(M, mk.MackeyFunctor):
        raise ParseError("phi expects a Mackey functor")
    G = mk.geometric_fixed_points(M)
    if args.format == "json":
        out(compact_json({"phi": group_to_json(G)}))
    else:
        out("Phi = %s" % render_invariants(G.invariant_factors()))
    return 0


def cmd_slice_check(args, out):
    from . import complexes as cx
    C = parse_input(_load(args.complex))
    if not isinstance(C, cx.MackeyComplex):
        raise ParseError("slice-check expects a complex")
    if args.coconnective:
        verdict = cx.is_regular_slice_coconnective(C, args.n)
        if args.format == "json":
            out(compact_json({"coconnective": verdict, "n": args.n}))
        else:
            out("regular-slice (%d)-coconnective: %s" % (args.n, verdict))
    else:
        verdict = cx.is_regular_slice_connective(C, args.n)
        if args.format == "json":
            out(compact_json({"connective": verdict, "n": args.n}))
        else:
            out("regular-slice (%d)-connective: %s"
                % (args.n, "true" if verdict else "false"))
    return 0


def cmd_tambara_free(args, out):
    from .polyring import BaseRing
    from . import tambara as tb
    base = BaseRing.parse(args.base)
    trunc = args.trunc if args.trunc is not None else default_truncation()
    if args.kind == "trivial":
        T = tb.free_involutive_trivial(base, args.names or ["x"], truncation=trunc)
    elif args.kind == "free":
        if args.names is not None:
            raise ParseError("--names applies to --kind trivial only: the free "
                             "kind's generators are x, x_s")
        T = tb.free_involutive_free(base, truncation=trunc)
    else:
        raise ParseError("kind must be trivial or free")
    # one sample covering both min(trunc, 4) and the weight 2 that the
    # cohomological verdict needs: samples are weight-ordered prefixes
    v = tb.validate_tambara(T, sample_weight=max(2, min(trunc, 4)))
    if v is not None:
        raise DomainError("Tambara axioms fail: %r" % v)
    info = {
        "kind": args.kind,
        "base": args.base,
        "truncation": trunc,
        "underlying": list(T.ring.names),
        "fixed_generators": sorted(name for name, _ in T.fixed_gens),
        "cohomological": tb.is_cohomological(T),
    }
    if args.kind == "free":
        rels = []
        for i in range(1, min(4, trunc // 2) + 1):
            for j in range(1, i + 1):
                rels.append({"i": i, "j": j, "holds": tb.free_relation_holds(T, i, j)})
        info["t_relations"] = rels
    if args.format == "json":
        out(compact_json(info))
    else:
        out("free %s involutive algebra over %s, truncation %d"
            % (args.kind, args.base, trunc))
        out("underlying generators: %s" % ", ".join(info["underlying"]))
        out("fixed generators: %s" % ", ".join(info["fixed_generators"]))
        out("cohomological: %s" % info["cohomological"])
        for r in info.get("t_relations", []):
            out("t_%(i)d * t_%(j)d relation holds: %(holds)s" % r)
    return 0


def cmd_hr_gr(args, out):
    from .abelian import render_invariants
    from . import complexes as cx
    from . import differentials as df
    sigma = _algebra(args)
    if sigma.ring.base.kind != "Z":
        raise DomainError("hr-gr computes Mackey homology over Z only, not over %s"
                          % sigma.ring.base)
    L = df.cotangent_module(df.presentation_of(sigma))
    # one sigma-orbit type per generator; a swapped pair at its first member
    label = "+".join(("trivial" if s == 1 else "sign") if k == j else "free"
                     for j, (k, s) in enumerate(df.signed_permutation(L)) if k >= j)
    trunc = default_truncation()
    weights = [args.weight] if args.weight is not None else list(range(0, min(5, trunc + 1)))
    blocks = []
    for w in weights:
        C = df.hkr_graded_piece(L, args.i, w)
        H = {n: cx.homology(C, n) for n in C.degrees()}
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


def cmd_cotangent(args, out):
    from . import differentials as df
    L = df.cotangent_module(df.presentation_of(_algebra(args)))
    ring = L.algebra
    info = {
        "generators": list(L.gen_names),
        "sigma": L.sigma_string(),
        "relations": {name: {g: ring.poly_string(c) for g, c in img.items()}
                      for name, img in L.relation_images},
    }
    gens, rels = L.reduced_presentation()
    info["reduced_generators"] = gens
    info["reduced_relations"] = [
        {g: ring.poly_string(c) for g, c in img.items()} for _name, img in rels]
    if args.format == "json":
        out(compact_json(info))
    else:
        out("cotangent generators: %s" % ", ".join(info["generators"]))
        for name, img in sorted(info["relations"].items()):
            body = " + ".join("(%s)%s" % (c, g) for g, c in sorted(img.items()))
            out("%s -> %s" % (name, body or "0"))
        out("reduced generators: %s" % ", ".join(gens))
    return 0


def cmd_derham(args, out):
    from .abelian import render_invariants
    from . import differentials as df
    complexes = df.de_rham_complex(df.presentation_of(_algebra(args)), args.imax,
                                   args.maxweight)
    table = {str(w): {str(n): {"h": list(C.invariants(-n)),
                               "dim": C.dims[-n]}
                      for n in range(0, args.imax + 1)}
             for w, C in complexes.items()}
    if args.format == "json":
        out(compact_json({"imax": args.imax, "table": table}))
    else:
        for w in sorted(table, key=int):
            out("weight %s:" % w)
            for n in sorted(table[w], key=int):
                cell = table[w][n]
                out("  Omega^%s dim %d, H^%s = %s"
                    % (n, cell["dim"], n, render_invariants(tuple(cell["h"]))))
    return 0


def cmd_hh(args, out):
    from .abelian import render_invariants
    sigma = _algebra(args)
    weight = args.weight
    degrees = range(0, args.nmax + 1)
    # the small complex when the ring splits by variable, else the bar complex
    if sigma.ring.splits_by_variable():
        from . import koszul
        groups = koszul.hh_groups(koszul.hochschild_complex(sigma, args.nmax + 1, weight),
                                  degrees)
    else:
        from . import trace as tr
        groups = tr.hh_groups(tr.hochschild_blocks(tr.InvolutiveAlgebra(sigma), args.nmax + 1,
                                                   weight), degrees)
    rows = [{"n": n, "hh": group_to_json(G)} for n, G in zip(degrees, groups)]
    if args.format == "json":
        out(compact_json({"weight": weight, "rows": rows}))
    else:
        for r in rows:
            out("HH_%d = %s" % (r["n"], render_invariants(tuple(r["hh"]))))
    return 0


def cmd_dihedral(args, out):
    from . import trace as tr
    D = tr.dihedral_homology(tr.InvolutiveAlgebra(_algebra(args)), args.nmax, weight=args.weight)
    data = {"hc": D.hc, "hd": D.hd, "hd_prime": D.hd_prime}
    if args.format == "json":
        out(compact_json(data))
    else:
        for n in range(0, args.nmax + 1):
            out("n=%d: HC=%d HD=%d HD'=%d" % (n, D.hc[n], D.hd[n], D.hd_prime[n]))
    return 0


# ---------------------------------------------------------------------------
# entry point

def nonnegative(text):
    """argparse type of the size options: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


def base_ring(text):
    """argparse type of --base: the name of a supported base ring, kept as
    written because the output echoes it."""
    from .polyring import BaseRing, RingError
    try:
        BaseRing.parse(text)
    except RingError as e:
        raise argparse.ArgumentTypeError(str(e))
    return text


def generator_names(text):
    """argparse type of --names: comma-separated distinct variable names."""
    names = text.split(",")
    if not all(n.isidentifier() for n in names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(
            "expected distinct comma-separated variable names, got %r" % text)
    return names


def build_parser():
    p = argparse.ArgumentParser(prog="c2algebra",
                                description="exact C2-equivariant algebra engine")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        sp.add_argument("--format", choices=("pretty", "json"), default="pretty")
        return sp

    sp = add("mackey-show", cmd_mackey_show)
    sp.add_argument("--input", required=True)
    sp = add("box", cmd_box)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp = add("phi", cmd_phi)
    sp.add_argument("--input", required=True)
    sp = add("slice-check", cmd_slice_check)
    sp.add_argument("--complex", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--coconnective", action="store_true")
    sp = add("tambara-free", cmd_tambara_free)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--base", type=base_ring, default="Z")
    sp.add_argument("--trunc", type=nonnegative)
    sp.add_argument("--names", type=generator_names)
    sp = add("cotangent", cmd_cotangent)
    sp.add_argument("--algebra", required=True)
    sp = add("derham", cmd_derham)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--imax", type=nonnegative, default=2)
    sp.add_argument("--maxweight", type=nonnegative, default=4)
    sp = add("hr-gr", cmd_hr_gr)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--weight", type=nonnegative)
    sp = add("hh", cmd_hh)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--nmax", type=nonnegative, default=4)
    sp.add_argument("--weight", type=nonnegative)
    sp = add("dihedral", cmd_dihedral)
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--nmax", type=nonnegative, default=4)
    sp.add_argument("--weight", type=nonnegative)
    return p


def run(argv, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    lines = []

    def out(s):
        lines.append(s)

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.fn(args, out)
    except ParseError as e:
        print("parse error: %s" % e, file=sys.stderr)
        return 2
    except EngineError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    try:
        print("\n".join(lines), file=stdout)
        stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does) and wants no more:
        # end quietly, with stdout on devnull, where the flush at exit
        # cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
