"""Dead-code guard over src/polyvem, read with the standard ast module:
every exception class is called (raised with a message or constructed)
somewhere, every imported name is used by the module that imports it,
every public function, class and method is named somewhere outside
its own definition, every public attribute that a class sets on self
is read outside that class, and every optional parameter of a public
function or method is passed by some call in src/, demos/ or
perfbench/. Names match by bare identifier, so a call to another
function of the same name counts."""

import ast
import math
import re
from collections import Counter, defaultdict
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


def _program_trees():
    """The modules of src/, demos/ and perfbench/. Tests do not count: a
    name that only a test uses is not needed."""
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return [ast.parse(path.read_text(), filename=str(path))
            for path in paths]


def test_every_public_name_has_a_caller():
    named = Counter()
    for tree in _program_trees():
        named += _named(tree)
    named.update(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    uncalled = [f"{module}.{qualname}"
                for module, tree in _trees().items()
                for qualname, node in _public_definitions(tree)
                if named[node.name] <= _named(node)[node.name]]
    assert uncalled == []


def _attribute_reads(tree):
    """Counter of the attribute names a tree reads (x.name in a load)."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def _self_attributes(cls):
    """The public attribute names the methods of a class assign on self."""
    return {node.attr for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and not node.attr.startswith("_")}


def test_every_public_attribute_is_read_outside_its_class():
    # an attribute that only its own class reads is private state, and
    # one that nothing reads is dead
    read = Counter()
    for tree in _program_trees():
        read += _attribute_reads(tree)
    unread = [f"{module}.{node.name}.{attr}"
              for module, tree in _trees().items()
              for node in tree.body if isinstance(node, ast.ClassDef)
              for attr in sorted(_self_attributes(node))
              if read[attr] <= _attribute_reads(node)[attr]]
    assert unread == []


def _optional_parameters(tree):
    """(qualified name, callee, parameter, position) of every optional
    parameter of the public functions and methods of a tree, a class's
    __init__ included. The callee is the bare name a call uses (the
    class's for __init__); the position is the parameter's index among
    a call's positional arguments, None for a keyword-only one."""
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")):
            yield from _optional(node, node.name, node.name, method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and (item.name == "__init__"
                             or not item.name.startswith("_"))):
                    callee = (node.name if item.name == "__init__"
                              else item.name)
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield from _optional(item, f"{node.name}.{item.name}",
                                         callee, method=not static)


def _optional(func, qualname, callee, method):
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if method else 0  # self or cls is never passed by position
    for index in range(first, len(positional)):
        yield qualname, callee, positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield qualname, callee, arg.arg, None


def _passed(trees):
    """For each bare callee name in the trees: the number of positional
    arguments its widest call passes, and the keywords its calls pass.
    In a class body, cls(...) is a call to that class; a *args splat
    passes every position and a **kwargs splat every keyword."""
    widest, keywords = Counter(), defaultdict(set)

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "cls" and cls is not None:
                name = cls
            width = (math.inf if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
            widest[name] = max(widest[name], width)
            keywords[name].update(
                "**" if k.arg is None else k.arg for k in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in trees:
        visit(tree, None)
    return widest, keywords


def test_every_optional_parameter_is_passed_by_a_program_caller():
    # an option that only tests set, or nothing sets, is a second code
    # path that no program runs
    widest, keywords = _passed(_program_trees())
    unpassed = [f"{module}.{qualname}({param})"
                for module, tree in _trees().items()
                for qualname, callee, param, position
                in _optional_parameters(tree)
                if not (position is not None and widest[callee] > position)
                and not keywords[callee] & {param, "**"}]
    assert unpassed == []
