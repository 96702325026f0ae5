"""The benchmark's tracer (perfbench/spans.py) rebinds polyvem functions
by name; a rename or a change of kind here breaks `--trace 1` runs. Its
workloads (perfbench/workloads.py) use the mesh API directly."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import polyvem
from conftest import dense

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


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
    assert A.nnz == np.count_nonzero(dense(A))


def test_workloads_relabel_keeps_the_mesh():
    # relabel and _nverts read mesh.cells once per cell; a property that
    # rebuilt the list on every access would make polygon_file's set-up
    # quadratic in the cell count
    from polyvem.mesh import MeshFamilySpec, generate, validate

    workloads = _load("workloads")
    mesh = generate(MeshFamilySpec("hexagon", 8))
    assert mesh.cells is mesh.cells
    relabelled = workloads.relabel(polyvem, mesh, seed=3)
    assert validate(relabelled).ok
    assert relabelled.n_vertices == mesh.n_vertices
    hist = workloads._nverts(relabelled)
    assert hist == workloads._nverts(mesh) == Counter(
        len(loop) for loop in mesh.cells)
