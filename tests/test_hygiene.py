"""Dead code in the package: every import is used, and every private
module-level function or class is referenced somewhere in the package.
The Smith form stays inside `intlat`, where it presents quotients."""

import ast
from pathlib import Path

import coxfan

PACKAGE = Path(coxfan.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in MODULES}


def _loaded_names(node):
    """Names read under a node, as variables or as attributes."""
    read = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return {n.id for n in read if isinstance(n, ast.Name)} | {
        n.attr for n in read if isinstance(n, ast.Attribute)
    }


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused


def test_every_private_definition_is_referenced():
    trees = _trees()
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                continue
            others = [n for n in tree.body if n is not node]
            others += [t for m, t in trees.items() if m != name]
            if not any(node.name in _loaded_names(n) for n in others):
                unreferenced.append(f"{name}:{node.lineno} {node.name}")
    assert not unreferenced


def test_only_intlat_reads_the_smith_form():
    readers = sorted(
        name for name, tree in _trees().items()
        if name != "intlat.py"
        and "smith_normal_form" in _loaded_names(tree) | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    )
    assert not readers
