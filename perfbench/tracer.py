"""Run one c2algebra CLI job in this process with per-layer spans.

    python3 perfbench/tracer.py <cli argv ...>

Imports the package from ``src/`` of the checkout, wraps every public
function and every public method (plus ``__init__`` and ``__call__``) of the
public classes of each module, rebinds the names other modules imported with
``from .x import y`` (and functions held in module-level dicts), then calls
``cli.run(argv)``.  The job's stdout is passed through unchanged; the counters
are written to stderr as one line ``PERFBENCH-TRACE {json}``.  The exit code
is the CLI's.

A layer is a module.  A layer's self time is the time spent inside its spans
minus the time of the spans they opened.  Methods of ``BaseRing`` are hot
leaves: they are counted but not timed, so their cost stays in their caller's
self time.  Timings from this process carry the wrappers' overhead; the
benchmark reports end-to-end numbers only from untraced processes.
"""

import collections
import functools
import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("abelian", "polyring", "trace", "complexes", "mackey", "tambara",
          "differentials", "cli")
COUNT_ONLY_CLASSES = {"polyring.BaseRing"}
MARKER = "PERFBENCH-TRACE "


class Tracer:
    def __init__(self):
        self.calls = collections.Counter()       # per qualified name
        self.incl_s = collections.defaultdict(float)  # outermost activations
        self.self_s = collections.defaultdict(float)  # per layer
        self.snf_max_cells = 0
        self.snf_max_bits = 0
        self._open = []                           # child seconds per open span
        self._depth = collections.Counter()

    def timed(self, fn, layer, qual):
        calls, incl, self_s = self.calls, self.incl_s, self.self_s
        open_spans, depth = self._open, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[qual] += 1
            depth[qual] += 1
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                depth[qual] -= 1
                if not depth[qual]:
                    incl[qual] += dt
        return span

    def counted(self, fn, qual):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[qual] += 1
            return fn(*args, **kwargs)
        return count

    def snf_probe(self, fn):
        """Outermost wrapper of smith_normal_form: records the input shape
        and the largest entry of U, D and V, outside the SNF span."""
        @functools.wraps(fn)
        def probe(A):
            U, D, V = result = fn(A)
            cells = len(A) * (len(A[0]) if A else 0)
            self.snf_max_cells = max(self.snf_max_cells, cells)
            bits = max((abs(x).bit_length() for M in (U, D, V) for row in M
                        for x in row), default=0)
            self.snf_max_bits = max(self.snf_max_bits, bits)
            return result
        return probe

    def report(self, import_s):
        c, t = self.calls, self.incl_s
        cmd_s = sum(v for k, v in t.items() if k.startswith("cli.cmd_"))
        out = {
            "abelian.snf_calls": c["abelian.smith_normal_form"],
            "abelian.solve_calls": c["abelian.solve_integer"],
            "abelian.hnf_calls": c["abelian.hermite_normal_form"],
            "abelian.snf_s": t["abelian.smith_normal_form"],
            "abelian.snf_max_cells": self.snf_max_cells,
            "abelian.snf_max_bits": self.snf_max_bits,
            "polyring.mul_calls": c["polyring.PolyRing.mul"],
            "polyring.normal_form_calls": c["polyring.PolyRing.normal_form"],
            "polyring.coerce_calls": c["polyring.BaseRing.coerce"],
            "trace.complex_builds": c["trace.DihedralComplex.__init__"],
            "trace.complex_build_s": t["trace.DihedralComplex.__init__"],
            "complexes.suspend_s": t["complexes.suspend_sigma"],
            "complexes.homology_calls": c["complexes.homology"],
            "mackey.validate_calls": c["mackey.validate"],
            "tambara.validate_s": t["tambara.validate_tambara"],
            "cli.import_s": import_s,
            "cli.parse_s": t["cli.run"] - cmd_s,
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        return out


def _public(name):
    return not name.startswith("_") or name in ("__init__", "__call__")


def instrument(tracer, package):
    """Wrap the package's modules in place."""
    modules = {name: sys.modules[package + "." + name] for name in LAYERS}
    replaced = {}   # id(original function) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                qual = "%s.%s" % (layer, name)
                w = tracer.timed(obj, layer, qual)
                if qual == "abelian.smith_normal_form":
                    w = tracer.snf_probe(w)
                replaced[id(obj)] = w
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                cls_qual = "%s.%s" % (layer, name)
                for attr, raw in list(vars(obj).items()):
                    if not _public(attr):
                        continue
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if not inspect.isfunction(fn):
                        continue
                    qual = "%s.%s" % (cls_qual, attr)
                    if cls_qual in COUNT_ONLY_CLASSES:
                        w = tracer.counted(fn, qual)
                    else:
                        w = tracer.timed(fn, layer, qual)
                    setattr(obj, attr, kind(w) if kind else w)
    # names bound by `from .abelian import ...` and functions kept in dicts
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import c2algebra.cli as cli
    import_s = time.perf_counter() - t0
    for layer in LAYERS:
        __import__("c2algebra." + layer)
    tracer = Tracer()
    instrument(tracer, "c2algebra")
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        print(MARKER + json.dumps(tracer.report(import_s), sort_keys=True),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
