"""Batch front end: read argv by the command table and run the command's
function, which imports its body from a module the command loads anyway
(mackey_json, slices, tambara, differentials, complexes, algebra_json).
Each body reads its JSON input with the reader of its own kind
(mackey_json.parse_mackey, slices.parse_complex, algebra_json.parse_algebra),
makes one engine call on what it parsed and emits pretty text or JSON.  No
module imports cli: under python -m it runs as __main__, and an import
would compile and run it a second time.  Exit codes: 0 success, 1
domain error (EngineError), 2 parse/schema error (ParseError), malformed
argv and a JSON object of another kind than the command reads included.
Identical jobs produce byte-identical output.  MACKEY_TRUNC overrides the
truncation 8.
"""

import os
import sys
from types import SimpleNamespace

from . import EngineError, ParseError

# ---------------------------------------------------------------------------
# commands: each imports its body where it runs, so that a process compiles
# no layer, and no other command's body, that it does not run

def cmd_mackey_show(args, out):
    from .mackey_json import run_mackey_show
    return run_mackey_show(args, out)


def cmd_box(args, out):
    from .mackey_json import run_box
    return run_box(args, out)


def cmd_phi(args, out):
    from .mackey_json import run_phi
    return run_phi(args, out)


def cmd_slice_check(args, out):
    from .slices import run_slice_check
    return run_slice_check(args, out)


def cmd_tambara_free(args, out):
    from .tambara import run_tambara_free
    return run_tambara_free(args, out)


def cmd_cotangent(args, out):
    from .differentials import run_cotangent
    return run_cotangent(args, out)


def cmd_derham(args, out):
    from .differentials import run_derham
    return run_derham(args, out)


def cmd_hr_gr(args, out):
    from .complexes import run_hr_gr
    return run_hr_gr(args, out)


def cmd_hh(args, out):
    from .algebra_json import run_hh
    return run_hh(args, out)


def cmd_dihedral(args, out):
    from .algebra_json import run_dihedral
    return run_dihedral(args, out)


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
