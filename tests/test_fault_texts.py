"""The texts of the geometric cell faults are written once, in
geometry.py, where CellBatch decides them; every other module reports
the batch's error. Read with the standard ast module; docstrings may
still name a fault."""

import ast
from pathlib import Path

import polyvem

SRC = Path(polyvem.__file__).resolve().parent

FAULT_TEXTS = ("star-shaped", "has zero length", "is not positive")


def _docstrings(tree):
    """The id of every docstring constant of a module, class or function."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)):
            out.add(id(node.body[0].value))
    return out


def _fault_texts(path):
    """The fault texts that a module's non-docstring constants hold."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    return {text for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip
            for text in FAULT_TEXTS if text in node.value}


def test_fault_texts_are_written_in_geometry_only():
    found = {path.stem: _fault_texts(path) for path in SRC.glob("*.py")}
    assert found.pop("geometry") == set(FAULT_TEXTS)
    assert {module: texts for module, texts in found.items() if texts} == {}
