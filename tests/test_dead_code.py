"""src/c2algebra holds what the CLI runs: every function, class and method of
the package is reachable from cli.py, or is read by perfbench as a counter.

The walk starts at every top-level statement of cli.py, at the module-level
statements of the other modules (they run on import), and at the names that
perfbench/crosscheck.py's TARGETS and perfbench/tracer.py's report read as
strings.  From a reached definition it follows every name the definition's
code uses, resolved by name alone, so a use reaches each definition of that
name.  A top-level function or class is reached by a bare name or an
attribute (module.name); a method only by an attribute (x.name), so a local
variable that shares a method's name does not keep the method alive.  A
reached class reaches its class-level code and its dunder methods, which
Python calls implicitly; its other methods count only when named.  Uses
under tests/ do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "c2algebra"
PERFBENCH = ROOT / "perfbench"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names_used(nodes):
    """The uses in nodes: a bare name as itself, an attribute as "." + name."""
    for tree in nodes:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield "." + node.attr


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _definitions():
    """(label, uses that reach it, code nodes) of every top-level function
    and class and every method of the package, and the package's root
    code."""
    defs, roots = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in _parse(path).body:
            if module == "cli" or not _is_def(node):
                roots.append(node)
            top = (node.name, "." + node.name) if _is_def(node) else ()
            if isinstance(node, ast.FunctionDef):
                defs.append(("%s.%s" % (module, node.name), top, [node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
                own = [m for m in node.body if m not in methods] + node.bases
                defs.append(("%s.%s" % (module, node.name), top,
                             own + node.decorator_list))
                defs += [("%s.%s.%s" % (module, node.name, m.name), ("." + m.name,), [m])
                         for m in methods]
    return defs, roots


def _perfbench_names():
    """The definitions perfbench reads as strings, as attribute uses (it
    looks them up with getattr)."""
    names = set()
    for node in ast.walk(_parse(PERFBENCH / "crosscheck.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for pair in node.value.values:
                names.add("." + pair.elts[1].value.rsplit(".", 1)[-1])
    report = next(node for node in ast.walk(_parse(PERFBENCH / "tracer.py"))
                  if isinstance(node, ast.FunctionDef) and node.name == "report")
    for node in ast.walk(report):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            names.add("." + str(node.slice.value).rsplit(".", 1)[-1])
    return names


def test_every_top_level_definition_is_used():
    defs, roots = _definitions()
    assert defs and roots
    code_by_name = {}
    for _, uses, code in defs:
        for use in uses:
            code_by_name.setdefault(use, []).extend(code)
    seen = set()
    todo = set(_names_used(roots)) | _perfbench_names()
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= set(_names_used(code_by_name.get(name, ()))) - seen
    unreached = [label for label, uses, _ in defs if seen.isdisjoint(uses)]
    assert unreached == [], "%d definitions the CLI never reaches: %s" % (
        len(unreached), ", ".join(unreached))
