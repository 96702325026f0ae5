"""Dead-code guard over src/polyvem, read with the standard ast module:
every exception class is called (raised with a message or constructed)
somewhere, and every imported name is used by the module that imports
it."""

import ast
from pathlib import Path

import polyvem

SRC = Path(polyvem.__file__).resolve().parent

# (module, name) imports kept unused on purpose: solver's cell_geometry
# is a module attribute that the benchmark's tracer (perfbench/spans.py)
# looks up and rebinds
KEPT_IMPORTS = {("solver", "cell_geometry")}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_exception_class_is_raised_or_constructed():
    trees = _trees()
    classes = {node.name for node in trees["errors"].body
               if isinstance(node, ast.ClassDef)}
    # a raise with a message is a call, and so is a construction
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert classes and sorted(classes - called) == []


def test_every_imported_name_is_used():
    unused = set()
    for module, tree in _trees().items():
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused |= {(module, name) for name in imported if name not in used}
    assert sorted(unused - KEPT_IMPORTS) == []
