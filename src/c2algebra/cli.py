"""Batch front end: read argv by the command table; each command reads its
JSON input with the reader of its own kind (mackey_json.parse_mackey,
slices.parse_complex, algebra_json.parse_algebra), makes one engine call on
what it parsed and emits pretty text or JSON.  Exit codes: 0 success, 1
domain error (EngineError), 2 parse/schema error (ParseError), malformed
argv and a JSON object of another kind than the command reads included.
Identical jobs produce byte-identical output.  MACKEY_TRUNC overrides the
truncation 8.
"""

import json
import os
import sys
from types import SimpleNamespace

from . import DEFAULT_TRUNCATION, DomainError, EngineError, ParseError, render_invariants

# Each command imports the layers it runs inside its own functions, so that
# a process loads (and compiles) no layer it does not call.


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
# rendering

def compact_json(data):
    """The one line of a --format json output: sorted keys, no spaces."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def render_lewis(M, fmt="pretty"):
    from .mackey_json import mackey_to_json
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
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (e.lineno, e.colno, e.msg))
    if not isinstance(data, dict):
        raise ParseError("top-level JSON must be an object")
    return data


def _algebra(args):
    """The parsed --algebra of an algebra command: its RingInvolution."""
    from .algebra_json import parse_algebra
    return parse_algebra(_load(args.algebra))


def cmd_mackey_show(args, out):
    from .mackey_json import parse_mackey
    out(render_lewis(parse_mackey(_load(args.input)), args.format))
    return 0


def cmd_box(args, out):
    from . import mackey as mk
    from .mackey_json import parse_mackey
    L = parse_mackey(_load(args.left))
    R = parse_mackey(_load(args.right))
    out(render_lewis(mk.box(L, R), args.format))
    return 0


def cmd_phi(args, out):
    from . import mackey as mk
    from .mackey_json import parse_mackey
    G = mk.geometric_fixed_points(parse_mackey(_load(args.input)))
    if args.format == "json":
        out(compact_json({"phi": list(G.invariant_factors())}))
    else:
        out("Phi = %s" % render_invariants(G.invariant_factors()))
    return 0


def cmd_slice_check(args, out):
    from . import slices
    C = slices.parse_complex(_load(args.complex))
    if args.coconnective:
        kind, verdict = "coconnective", slices.is_regular_slice_coconnective(C, args.n)
        text = verdict
    else:
        kind, verdict = "connective", slices.is_regular_slice_connective(C, args.n)
        text = "true" if verdict else "false"
    if args.format == "json":
        out(compact_json({kind: verdict, "n": args.n}))
    else:
        out("regular-slice (%d)-%s: %s" % (args.n, kind, text))
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
    from . import complexes as cx
    from . import differentials as df
    from .mackey_json import mackey_to_json
    sigma = _algebra(args)
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
    L = df.CotangentPresentation(df.presentation_of(_algebra(args)))
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
    from . import differentials as df
    complexes = df.de_rham_complex(_algebra(args), args.imax, args.maxweight)
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
    sigma = _algebra(args)
    # the small complex when the ring splits by variable, else the bar complex
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


def cmd_dihedral(args, out):
    from . import trace as tr
    D = tr.dihedral_homology(_algebra(args), args.nmax, weight=args.weight)
    data = {"hc": D.hc, "hd": D.hd, "hd_prime": D.hd_prime}
    if args.format == "json":
        out(compact_json(data))
    else:
        for n in range(0, args.nmax + 1):
            out("n=%d: HC=%d HD=%d HD'=%d" % (n, D.hc[n], D.hd[n], D.hd_prime[n]))
    return 0


# ---------------------------------------------------------------------------
# entry point

# The command synopsis, printed by -h and --help; README.md shows it as is.
USAGE = """\
usage: c2algebra COMMAND --OPTION VALUE ... [--format pretty|json]

mackey-show --input M.json            render a Lewis diagram
box --left A.json --right B.json      box product
phi --input M.json                    geometric fixed points
slice-check --complex C.json --n N [--coconnective]
tambara-free --kind trivial|free [--base Z] [--trunc T] [--names x,y]
cotangent --algebra A.json
derham --algebra A.json [--imax I] [--maxweight W]
hr-gr --algebra A.json --i I [--weight W]
hh --algebra A.json [--nmax N] [--weight W]
dihedral --algebra A.json [--nmax N] [--weight W]"""


def nonnegative(text):
    """Converter of the size options: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise ParseError("must be >= 0, got %d" % n)
    return n


def base_ring(text):
    """Converter of --base: the name of a supported base ring, kept as
    written because the output echoes it."""
    from .polyring import BaseRing, RingError
    try:
        BaseRing.parse(text)
    except RingError as e:
        raise ParseError(str(e))
    return text


def generator_names(text):
    """Converter of --names: comma-separated distinct variable names."""
    names = text.split(",")
    if not all(n.isidentifier() for n in names) or len(set(names)) != len(names):
        raise ParseError("expected distinct comma-separated variable names, got %r" % text)
    return names


def output_format(text):
    """Converter of --format, which every command takes."""
    if text not in ("pretty", "json"):
        raise ParseError("expected pretty or json, got %r" % text)
    return text


REQUIRED = object()     # the default of an option that must be given
FLAG = (None, False)    # an option that takes no value

# The command table: each command's function and its options, as option ->
# (converter, default).  run calls the function through COMMANDS, whose
# values a wrapper may replace (as perfbench/tracer.py does).
COMMANDS = {
    "mackey-show": cmd_mackey_show,
    "box": cmd_box,
    "phi": cmd_phi,
    "slice-check": cmd_slice_check,
    "tambara-free": cmd_tambara_free,
    "cotangent": cmd_cotangent,
    "derham": cmd_derham,
    "hr-gr": cmd_hr_gr,
    "hh": cmd_hh,
    "dihedral": cmd_dihedral,
}
OPTIONS = {
    "mackey-show": {"input": (str, REQUIRED)},
    "box": {"left": (str, REQUIRED), "right": (str, REQUIRED)},
    "phi": {"input": (str, REQUIRED)},
    "slice-check": {"complex": (str, REQUIRED), "n": (int, REQUIRED), "coconnective": FLAG},
    "tambara-free": {"kind": (str, REQUIRED), "base": (base_ring, "Z"),
                     "trunc": (nonnegative, None), "names": (generator_names, None)},
    "cotangent": {"algebra": (str, REQUIRED)},
    "derham": {"algebra": (str, REQUIRED), "imax": (nonnegative, 2),
               "maxweight": (nonnegative, 4)},
    "hr-gr": {"algebra": (str, REQUIRED), "i": (int, REQUIRED), "weight": (nonnegative, None)},
    "hh": {"algebra": (str, REQUIRED), "nmax": (nonnegative, 4), "weight": (nonnegative, None)},
    "dihedral": {"algebra": (str, REQUIRED), "nmax": (nonnegative, 4),
                 "weight": (nonnegative, None)},
}


def read_argv(argv):
    """The command of argv with a value for each of its options, or None
    when argv asks for help.  Options are --name value or --name=value, the
    value always the next token (so --n -4 is n = -4); a repeated option
    keeps its last value.  Any other argv is a ParseError."""
    if not argv:
        raise ParseError("no command given; c2algebra --help lists them")
    command = argv[0]
    if command in ("-h", "--help"):
        return None
    if command not in COMMANDS:
        raise ParseError("unknown command %r; c2algebra --help lists them" % command)
    options = dict(OPTIONS[command], format=(output_format, "pretty"))
    args = {name: default for name, (_, default) in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, has_value, value = token.partition("=")
        name = option[2:]
        if not option.startswith("--") or name not in options:
            raise ParseError("%s takes no argument %r" % (command, token))
        convert, _ = options[name]
        if convert is None:
            if has_value:
                raise ParseError("%s takes no value" % option)
            args[name] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None:
                raise ParseError("%s needs a value" % option)
        try:
            args[name] = convert(value)
        except ValueError:
            raise ParseError("%s expects an integer, got %r" % (option, value)) from None
        except ParseError as e:
            raise ParseError("%s: %s" % (option, e)) from None
    missing = [name for name, value in args.items() if value is REQUIRED]
    if missing:
        raise ParseError("%s needs --%s" % (command, " and --".join(missing)))
    return SimpleNamespace(command=command, **args)


def run(argv, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout
    lines = []
    try:
        args = read_argv(argv)
        if args is None:
            lines.append(USAGE)
            code = 0
        else:
            code = COMMANDS[args.command](args, lines.append)
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
