"""Check the tracer's call counts against cProfile's ncalls.

    python3 perfbench/crosscheck.py

For one job per workload it runs the CLI once under cProfile and once under
perfbench/tracer.py, each in a fresh process, and compares the call counts
behind the per-layer count metrics.  Prints one line per job and metric and
exits 1 on any mismatch.
"""

import cProfile
import io
import json
import os
import pstats
import sys
from contextlib import redirect_stdout

from run import MARKER, SRC, TRACER, spawn
from jobs import algebra

TARGETS = {   # metric -> (module, function or Class.method)
    "abelian.snf_calls": ("abelian", "smith_normal_form"),
    "abelian.solve_calls": ("abelian", "solve_integer"),
    "abelian.hnf_calls": ("abelian", "hermite_normal_form"),
    "polyring.mul_calls": ("polyring", "PolyRing.mul"),
    "polyring.normal_form_calls": ("polyring", "PolyRing.normal_form"),
    "polyring.coerce_calls": ("polyring", "BaseRing.coerce"),
    "trace.complex_builds": ("trace", "DihedralComplex.__init__"),
    "complexes.homology_calls": ("complexes", "homology"),
    "mackey.validate_calls": ("mackey", "validate"),
}

JOBS = {
    "sphere: slice-check S^{4 sigma}, n = 4":
        ["slice-check", "--complex", '{"kind":"sigma-sphere","k":4}', "--n", "4"],
    "bar: hh Q[x, x_s], weight 5, nmax 5":
        ["hh", "--algebra", algebra("Q", [("x", "x_s"), ("x_s", "x")]),
         "--weight", "5", "--nmax", "5"],
    "sweep: tambara-free --kind free":
        ["tambara-free", "--kind", "free"],
}


def profile_counts(argv):
    """In this process: run the CLI under cProfile, return ncalls per metric."""
    sys.path.insert(0, SRC)
    import importlib
    import c2algebra.cli as cli
    keys = {}
    for metric, (mod, qual) in TARGETS.items():
        obj = importlib.import_module("c2algebra." + mod)
        for part in qual.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
        keys[(code.co_filename, code.co_firstlineno, code.co_name)] = metric
    prof = cProfile.Profile()
    with redirect_stdout(io.StringIO()):
        prof.runcall(cli.run, argv)
    counts = dict.fromkeys(TARGETS, 0)
    for key, (_, ncalls, _, _, _) in pstats.Stats(prof).stats.items():
        if key in keys:
            counts[keys[key]] = ncalls
    return counts


def main():
    mismatches = 0
    for label, argv in JOBS.items():
        _, code, out, err, _ = spawn([sys.executable, os.path.abspath(__file__),
                                      "--profile"] + argv, 600)
        if code != 0:
            sys.exit("cProfile run failed: %s" % err.strip()[-300:])
        prof = json.loads(out)
        _, code, _, err, _ = spawn([sys.executable, TRACER] + argv, 600)
        lines = [ln for ln in err.splitlines() if ln.startswith(MARKER)]
        if code != 0 or not lines:
            sys.exit("traced run failed: %s" % err.strip()[-300:])
        traced = json.loads(lines[-1][len(MARKER):])
        print(label)
        for metric in TARGETS:
            same = prof[metric] == traced[metric]
            mismatches += not same
            print("  %-28s cProfile %8d  tracer %8d  %s"
                  % (metric, prof[metric], traced[metric], "ok" if same else "MISMATCH"))
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--profile"]:
        print(json.dumps(profile_counts(sys.argv[2:])))
    else:
        main()
