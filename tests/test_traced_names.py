"""The benchmark's tracer (perfbench/spans.py) rebinds polyvem functions
by name; a rename or a change of kind here breaks `--trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

import polyvem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for mod_name, attr, _ in _load_spans().TRACED:
        target = importlib.import_module(f"{polyvem.__name__}.{mod_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{mod_name}.{attr}"


def test_from_triplets_is_a_classmethod():
    from polyvem.linalg import SparseSymMatrix
    assert isinstance(SparseSymMatrix.__dict__["from_triplets"], classmethod)
