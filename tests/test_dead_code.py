"""Every top-level function and class of the package is used: its name
occurs in code (not in a string or comment) somewhere under src/, tests/ or
perfbench/ other than its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "c2algebra"


def _trees():
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_top_level_definition_is_used():
    used = set()
    defined = []
    for path, tree in _trees():
        used.update(_names_used(tree))
        if path.parent == PACKAGE:
            defined += [(path.name, node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert defined
    unused = [(module, name) for module, name in defined if name not in used]
    assert unused == [], "defined but never named elsewhere: %s" % unused
