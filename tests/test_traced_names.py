"""The benchmark's tracer (perfbench/spans.py) rebinds polyvem functions
by name; a rename or a change of kind here breaks `--trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_cg_span_counts_match_the_matrix():
    # the traced per-layer CG counts (n, nnz, and from them the computed
    # flops and bytes per iteration) read the matrix that cg_solve gets
    from polyvem.linalg import cg_solve
    from polyvem.mesh import MeshFamilySpec, generate
    from polyvem.solver import apply_dirichlet, assemble, sinsin_problem

    mesh = generate(MeshFamilySpec("hexagon", 8))
    problem = sinsin_problem()
    system = apply_dirichlet(*assemble(mesh, problem), mesh, problem.g)
    A = system.matrix
    tracer = _load_spans().Tracer()
    result = tracer.wrap("linalg.cg_solve", cg_solve)(A, system.rhs)
    attrs = tracer.spans[0][5]
    assert attrs == {"iters": result.iterations, "n": A.n, "nnz": A.nnz}
    assert A.n == len(system.interior) and result.iterations > 0
    assert A.nnz == np.count_nonzero(A.to_dense())
