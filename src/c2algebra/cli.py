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
     "rels": ["y^2 - x^3 - 1", ...]}
  sigma images and relations are polynomial strings; each relation must be
  monic in a pure power of some variable, and the relation ideal must be
  sigma-stable.

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

from .abelian import AbMap, FgAbGroup, IllFormedMap, render_invariants
from . import mackey as mk
from . import complexes as cx
from . import tambara as tb
from . import trace as tr
from . import differentials as df
from .polyring import BaseRing, PolyRing, RingError, RingInvolution, parse_poly


class ParseError(Exception):
    pass


class DomainError(Exception):
    pass


def default_truncation():
    v = os.environ.get("MACKEY_TRUNC")
    if v is None:
        return tb.DEFAULT_TRUNCATION
    try:
        return int(v)
    except ValueError:
        raise ParseError("MACKEY_TRUNC must be an integer, got %r" % v)


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
    allowed = {"fixed", "underlying", "res", "tr", "sigma"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError("unknown fields in Mackey functor: %s" % sorted(unknown))
    try:
        fixed = FgAbGroup.from_invariants([int(d) for d in data["fixed"]])
        und = FgAbGroup.from_invariants([int(d) for d in data["underlying"]])
        res = AbMap(fixed, und, _int_matrix(data.get("res") or []))
        tr_ = AbMap(und, fixed, _int_matrix(data.get("tr") or []))
        sig = AbMap(und, und, _int_matrix(data.get("sigma") or []))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError("malformed Mackey functor: %s" % e)
    except Exception as e:
        raise ParseError("malformed Mackey functor: %s" % e)
    M = mk.MackeyFunctor(fixed, und, res, tr_, sig)
    v = mk.validate(M)
    if v is not None:
        raise DomainError("Lewis axioms fail: %r" % v)
    return M


def _int_matrix(rows):
    """A JSON matrix, checked to be a list of rows of integers."""
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(type(x) is int for r in rows for x in r)):
        raise ParseError("matrix entries must be integers, got %r" % (rows,))
    return rows


def parse_algebra(data):
    allowed = {"base", "gens", "rels", "weights"}
    unknown = set(data) - allowed
    if unknown:
        raise ParseError("unknown fields in algebra: %s" % sorted(unknown))
    try:
        base = BaseRing.parse(data["base"])
    except Exception as e:
        raise ParseError("unsupported base ring: %s" % e)
    gens = data.get("gens") or []
    names = []
    for g in gens:
        if not isinstance(g, dict) or "name" not in g:
            raise ParseError("each generator needs a name")
        names.append(g["name"])
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names")
    weights = [int((data.get("weights") or {}).get(n, 1)) for n in names]
    plain = PolyRing(base, names, weights=weights)
    rels_text = data.get("rels") or []
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
    if not omega.preserves_rules():
        bad = rels_text[0] if rels_text else "?"
        for t, p in zip(rels_text, rel_polys):
            moved = _map_poly_between(plain, ring, p)
            if not ring.equal(ring.apply_map(moved, omega.images), moved):
                bad = t
                break
        raise DomainError("relation ideal is not sigma-stable (offending "
                          "relation: %s)" % bad)
    try:
        return tr.InvolutiveAlgebra(base, ring, omega)
    except tr.TraceError as e:
        raise DomainError(str(e))


def _map_poly_between(src, tgt, poly):
    return tgt.normal_form({m: c for m, c in poly.items()})


def _relations_to_rules(ring, rel_polys, rels_text):
    rules = {}
    for text, r in zip(rels_text, rel_polys):
        candidates = []
        for i in range(ring.n):
            lead = None
            for mono, c in r.items():
                if mono[i] and all(e == 0 for j, e in enumerate(mono) if j != i):
                    if c in (1, -1) or getattr(c, "numerator", None) in (1, -1):
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


CELLS = {"Zbar": mk.zbar, "ZbarC2": mk.zbar_c2}


def parse_complex(data):
    unknown = set(data) - {"kind", "k", "terms", "diffs"}
    if unknown:
        raise ParseError("unknown fields in complex: %s" % sorted(unknown))
    kind = data.get("kind")
    if kind == "sigma-sphere":
        k = int(data.get("k", 0))
        return cx.suspend_sigma(cx.single(mk.zbar()), k) if k else cx.single(mk.zbar())
    if kind != "complex":
        raise ParseError("unknown complex kind %r" % kind)
    terms = {}
    for deg, cells in (data.get("terms") or {}).items():
        parts = []
        for c in cells:
            if c not in CELLS:
                raise ParseError("unknown cell %r (use Zbar or ZbarC2)" % c)
            parts.append(CELLS[c]())
        terms[int(deg)] = mk.direct_sum(parts)
    diffs = {}
    for deg, mats in (data.get("diffs") or {}).items():
        n = int(deg)
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


def render_lewis(M, fmt="pretty"):
    if fmt == "json":
        return json.dumps(mackey_to_json(M), sort_keys=True, separators=(",", ":"))
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


def cmd_mackey_show(args, out):
    M = parse_input(_load(args.input))
    if not isinstance(M, mk.MackeyFunctor):
        raise ParseError("mackey-show expects a Mackey functor")
    out(render_lewis(M, args.format))
    return 0


def cmd_box(args, out):
    L = parse_input(_load(args.left))
    R = parse_input(_load(args.right))
    if not (isinstance(L, mk.MackeyFunctor) and isinstance(R, mk.MackeyFunctor)):
        raise ParseError("box expects two Mackey functors")
    out(render_lewis(mk.box(L, R), args.format))
    return 0


def cmd_phi(args, out):
    M = parse_input(_load(args.input))
    if not isinstance(M, mk.MackeyFunctor):
        raise ParseError("phi expects a Mackey functor")
    G = mk.geometric_fixed_points(M)
    if args.format == "json":
        out(json.dumps({"phi": group_to_json(G)}, sort_keys=True,
                       separators=(",", ":")))
    else:
        out("Phi = %s" % render_invariants(G.invariant_factors()))
    return 0


def cmd_slice_check(args, out):
    C = parse_input(_load(args.complex))
    if not isinstance(C, cx.MackeyComplex):
        raise ParseError("slice-check expects a complex")
    try:
        if args.coconnective:
            verdict = cx.is_regular_slice_coconnective(C, args.n)
            if args.format == "json":
                out(json.dumps({"coconnective": verdict, "n": args.n},
                               sort_keys=True, separators=(",", ":")))
            else:
                out("regular-slice (%d)-coconnective: %s" % (args.n, verdict))
        else:
            verdict = cx.is_regular_slice_connective(C, args.n)
            if args.format == "json":
                out(json.dumps({"connective": verdict, "n": args.n},
                               sort_keys=True, separators=(",", ":")))
            else:
                out("regular-slice (%d)-connective: %s"
                    % (args.n, "true" if verdict else "false"))
    except cx.ComplexError as e:
        raise DomainError(str(e))
    return 0


def cmd_tambara_free(args, out):
    base = BaseRing.parse(args.base)
    trunc = args.trunc if args.trunc is not None else default_truncation()
    if args.kind == "trivial":
        T = tb.free_involutive_trivial(base, args.names.split(",") if args.names else ["x"],
                                       truncation=trunc)
    elif args.kind == "free":
        T = tb.free_involutive_free(base, truncation=trunc)
    else:
        raise ParseError("kind must be trivial or free")
    v = tb.validate_tambara(T)
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
        out(json.dumps(info, sort_keys=True, separators=(",", ":")))
    else:
        out("free %s involutive algebra over %s, truncation %d"
            % (args.kind, args.base, trunc))
        out("underlying generators: %s" % ", ".join(info["underlying"]))
        out("fixed generators: %s" % ", ".join(info["fixed_generators"]))
        out("cohomological: %s" % info["cohomological"])
        for r in info.get("t_relations", []):
            out("t_%(i)d * t_%(j)d relation holds: %(holds)s" % r)
    return 0


def _monogenic_kind(A):
    names = list(A.ring.names)
    if A.ring.rules:
        return None
    if len(names) == 1:
        img = A.omega.images[0]
        if A.ring.equal(img, A.ring.var(0)):
            return "trivial"
        return None
    if len(names) == 2:
        if A.ring.equal(A.omega.images[0], A.ring.var(1)) and \
                A.ring.equal(A.omega.images[1], A.ring.var(0)):
            return "free"
    return None


def cmd_hr_gr(args, out):
    A = parse_input(_load(args.algebra))
    if not isinstance(A, tr.InvolutiveAlgebra):
        raise ParseError("hr-gr expects an algebra")
    kind = _monogenic_kind(A)
    if kind is None:
        raise DomainError("hr-gr supports the monogenic free involutive algebras")
    trunc = default_truncation()
    weights = [args.weight] if args.weight is not None else list(range(0, min(5, trunc + 1)))
    blocks = []
    for w in weights:
        C = tr.hr_graded_pieces(kind, args.i, w, trunc)
        entry = {"weight": w, "homology": {}}
        if C.terms:
            lo, hi = min(C.degrees()), max(C.degrees())
            for n in range(lo, hi + 1):
                H = cx.homology(C, n)
                entry["homology"][str(n)] = mackey_to_json(H)
        blocks.append(entry)
    if args.format == "json":
        out(json.dumps({"algebra": kind, "i": args.i, "blocks": blocks},
                       sort_keys=True, separators=(",", ":")))
    else:
        out("gr^%d HR of the %s monogenic algebra" % (args.i, kind))
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
    A = parse_input(_load(args.algebra))
    if not isinstance(A, tr.InvolutiveAlgebra):
        raise ParseError("cotangent expects an algebra")
    pres = _involutive_presentation_of(A)
    try:
        L = df.cotangent_module(pres)
    except df.DifferentialError as e:
        raise DomainError(str(e))
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
        out(json.dumps(info, sort_keys=True, separators=(",", ":")))
    else:
        out("cotangent generators: %s" % ", ".join(info["generators"]))
        for name, img in sorted(info["relations"].items()):
            body = " + ".join("(%s)%s" % (c, g) for g, c in sorted(img.items()))
            out("%s -> %s" % (name, body or "0"))
        out("reduced generators: %s" % ", ".join(gens))
    return 0


def _involutive_presentation_of(A):
    """Recognize the presentations the cotangent machinery supports."""
    trunc = default_truncation()
    if not A.ring.rules:
        # free involutive algebra: variables fixed or swapped in pairs
        T = _free_tambara_from(A, trunc)
        return df.InvolutivePresentation.from_tambara(T)
    # hyperelliptic shape: gens x (trivial), y with sigma(y) = -y,
    # single relation y^2 = f(x)
    names = list(A.ring.names)
    if len(names) == 2 and len(A.ring.rules) == 1:
        iy = next(iter(A.ring.rules))
        ix = 1 - iy
        p, repl = A.ring.rules[iy]
        sig_y = A.omega.images[iy]
        if p == 2 and A.ring.equal(sig_y, A.ring.neg(A.ring.var(iy))) and \
                A.ring.equal(A.omega.images[ix], A.ring.var(ix)) and \
                all(m[iy] == 0 for m in repl):
            coeffs = []
            deg = max((m[ix] for m in repl), default=0)
            for k in range(deg + 1):
                key = tuple(k if t == ix else 0 for t in range(2))
                c = repl.get(key, 0)
                coeffs.append(c)
            return df.hyperelliptic_presentation(coeffs)
    raise DomainError("cotangent supports free involutive presentations and "
                      "hyperelliptic quotients")


def _free_tambara_from(A, trunc):
    names = list(A.ring.names)
    ring = PolyRing(A.base, names, weights=list(A.ring.weights), trunc=None)
    sigma = RingInvolution(ring, [ring.normal_form(dict(p)) for p in A.omega.images])
    fixed = [(n, ring.var_named(n)) for n in names
             if ring.equal(sigma.images[names.index(n)], ring.var_named(n))]
    return tb.TambaraPresentation(A.base, ring, sigma, fixed, trunc)


def cmd_derham(args, out):
    A = parse_input(_load(args.algebra))
    if not isinstance(A, tr.InvolutiveAlgebra):
        raise ParseError("derham expects an algebra")
    pres = _involutive_presentation_of(A)
    try:
        M = df.sign_fix(df.de_rham_complex(pres, args.imax, max_weight=args.maxweight))
    except df.DifferentialError as e:
        raise DomainError(str(e))
    table = {}
    for w in range(0, args.maxweight + 1):
        col = {}
        for n in range(0, args.imax + 1):
            H, _sig = df.inv_cochain_cohomology(M, n, w)
            col[str(n)] = {"h": group_to_json(H), "dim": M.dim(n, w)}
        table[str(w)] = col
    if args.format == "json":
        out(json.dumps({"imax": args.imax, "table": table}, sort_keys=True,
                       separators=(",", ":")))
    else:
        for w in sorted(table, key=int):
            out("weight %s:" % w)
            for n in sorted(table[w], key=int):
                cell = table[w][n]
                out("  Omega^%s dim %d, H^%s = %s"
                    % (n, cell["dim"], n, render_invariants(tuple(cell["h"]))))
    return 0


def cmd_hh(args, out):
    A = parse_input(_load(args.algebra))
    if not isinstance(A, tr.InvolutiveAlgebra):
        raise ParseError("hh expects an algebra")
    weight = args.weight
    if not A.is_finite_dimensional() and weight is None:
        raise DomainError("graded algebra: pass --weight")
    chains = tr.hochschild_chains(tr.DihedralComplex(A, args.nmax + 1, weight))
    rows = [{"n": n, "hh": group_to_json(chains.homology(n).group)}
            for n in range(0, args.nmax + 1)]
    if args.format == "json":
        out(json.dumps({"weight": weight, "rows": rows}, sort_keys=True,
                       separators=(",", ":")))
    else:
        for r in rows:
            out("HH_%d = %s" % (r["n"], render_invariants(tuple(r["hh"]))))
    return 0


def cmd_dihedral(args, out):
    A = parse_input(_load(args.algebra))
    if not isinstance(A, tr.InvolutiveAlgebra):
        raise ParseError("dihedral expects an algebra")
    weight = args.weight
    if not A.is_finite_dimensional() and weight is None:
        raise DomainError("graded algebra: pass --weight")
    try:
        D = tr.dihedral_homology(A, args.nmax, weight=weight)
    except tr.TraceError as e:
        raise DomainError(str(e))
    data = {"hc": D.hc, "hd": D.hd, "hd_prime": D.hd_prime}
    if args.format == "json":
        out(json.dumps(data, sort_keys=True, separators=(",", ":")))
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
    sp.add_argument("--base", default="Z")
    sp.add_argument("--trunc", type=nonnegative)
    sp.add_argument("--names")
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
    except DomainError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (tr.TraceError, tb.TambaraError, df.DifferentialError,
            cx.ComplexError, mk.MackeyError, RingError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print("\n".join(lines), file=stdout)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
