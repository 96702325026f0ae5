"""Dead-code guard over src/polyvem, read with the standard ast module:
every exception class is called (raised with a message or constructed)
somewhere, every imported name is used by the module that imports it,
and every public function, class and method is named somewhere outside
its own definition."""

import ast
import re
from collections import Counter
from pathlib import Path

import polyvem

SRC = Path(polyvem.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

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


def _named(tree):
    """Counter of the identifiers a tree names: variables, attributes,
    imported names, and the parts of a dotted-name string constant such
    as the benchmark tracer's "SparseSymMatrix.from_triplets"."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            out.update(node.value.split("."))
    return out


def _public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    classes of a tree, and of the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller():
    # tests do not count: a name that only a test calls is not needed
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    named = Counter()
    for path in paths:
        named += _named(ast.parse(path.read_text(), filename=str(path)))
    named.update(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = [f"{module}.{qualname}"
                for module, tree in _trees().items()
                for qualname, node in _public_definitions(tree)
                if named[node.name] <= _named(node)[node.name]]
    assert uncalled == []
