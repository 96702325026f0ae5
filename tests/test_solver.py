import numpy as np
import pytest

from polyvem.element import build_element
from polyvem.errors import EmptyInterior
from polyvem.geometry import cell_geometry
from polyvem.linalg import dense_sym_eigen
from polyvem.mesh import (
    MeshFamilySpec,
    PolygonalMesh,
    boundary_vertices,
    generate,
    validate,
)
from polyvem.solver import (
    CSV_HEADER,
    PROBLEMS,
    ManufacturedProblem,
    SolveOptions,
    apply_dirichlet,
    assemble,
    convergence_study,
    error_norms,
    patch_problem,
    sinsin_problem,
    solve,
    write_csv,
)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_problem_fields_consistent(name):
    # finite-difference spot check that grad_u and f really belong to u
    p = PROBLEMS[name]()
    rng = np.random.default_rng(2024)
    pts = 0.1 + 0.8 * rng.random((20, 2))
    x, y = pts[:, 0], pts[:, 1]
    h = 1e-5
    gx = (p.u(x + h, y) - p.u(x - h, y)) / (2 * h)
    gy = (p.u(x, y + h) - p.u(x, y - h)) / (2 * h)
    ex_gx, ex_gy = p.grad_u(x, y)
    scale = 1.0 + np.abs(ex_gx).max() + np.abs(ex_gy).max()
    assert np.abs(gx - ex_gx).max() <= 1e-6 * scale
    assert np.abs(gy - ex_gy).max() <= 1e-6 * scale
    h = 1e-3
    lap = (p.u(x + h, y) + p.u(x - h, y) + p.u(x, y + h) + p.u(x, y - h)
           - 4.0 * p.u(x, y)) / (h * h)
    resid = np.abs(p.f(x, y) + lap)
    assert resid.max() <= 1e-4 * (1.0 + np.abs(p.f(x, y)).max())


def test_assemble_single_cell_is_local_K():
    mesh = generate(MeshFamilySpec("quad", 1))
    A, b = assemble(mesh, patch_problem())
    el = build_element(cell_geometry(mesh.cell_vertices(0)))
    assert np.allclose(A.to_dense(), el.K, atol=1e-14)
    assert np.allclose(b, 0.0, atol=0)  # patch source is exactly zero


def test_assemble_center_row_quad2():
    # every 0.5x0.5 cell has the same scale-invariant local K, so the
    # center row can be summed by hand
    mesh = generate(MeshFamilySpec("quad", 2))
    A, _ = assemble(mesh, patch_problem())
    dense = A.to_dense()
    expected_center = np.array(
        [-0.25, -0.5, -0.25, -0.5, 3.0, -0.5, -0.25, -0.5, -0.25])
    assert np.allclose(dense[4], expected_center, atol=1e-13)
    assert abs(dense[4].sum()) <= 1e-13


def test_assemble_kernel_is_constants():
    for spec in (MeshFamilySpec("quad", 4), MeshFamilySpec("hexagon", 4)):
        mesh = generate(spec)
        A, _ = assemble(mesh, patch_problem())
        dense = A.to_dense()
        nrm = np.linalg.norm(dense)
        assert np.abs(A @ np.ones(mesh.n_vertices)).max() <= 1e-12 * nrm
        w = dense_sym_eigen(dense)
        assert np.sum(np.abs(w) <= 1e-10 * nrm) == 1


def test_apply_dirichlet_quad2():
    mesh = generate(MeshFamilySpec("quad", 2))
    A, b = assemble(mesh, patch_problem())
    system = apply_dirichlet(A, b, mesh, lambda x, y: np.zeros_like(x))
    assert system.matrix.n == 1
    assert list(system.interior) == [4]


def test_empty_interior():
    mesh = generate(MeshFamilySpec("quad", 1))
    A, b = assemble(mesh, patch_problem())
    with pytest.raises(EmptyInterior):
        apply_dirichlet(A, b, mesh, lambda x, y: np.zeros_like(x))
    # solve still works: boundary data determines everything
    sol = solve(mesh, patch_problem())
    expected = 2.0 + 3.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
    assert np.allclose(sol.dof_values, expected, atol=1e-13)
    assert sol.cg_iterations == 0


def test_constant_solution():
    const = ManufacturedProblem(
        name="const",
        u=lambda x, y: np.full_like(x, 5.0),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x),
        g=lambda x, y: np.full_like(x, 5.0),
    )
    mesh = generate(MeshFamilySpec("perturbed_quad", 3, seed=2))
    sol = solve(mesh, const)
    assert np.abs(sol.dof_values - 5.0).max() <= 1e-12


def test_zero_data_gives_zero():
    zero = ManufacturedProblem(
        name="zero",
        u=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x),
        g=lambda x, y: np.zeros_like(x),
    )
    mesh = generate(MeshFamilySpec("quad", 4))
    sol = solve(mesh, zero)
    assert np.abs(sol.dof_values).max() == 0.0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", ["hexagon", "hanging_node"])
def test_patch_exact_on_randomly_perturbed_mesh(family, seed):
    # interior vertices moved by up to 0.2 h per coordinate, h = 1/n
    n = 8
    mesh = generate(MeshFamilySpec(family, n))
    interior = ~mesh.boundary_vertex_flags
    vertices = mesh.vertices.copy()
    vertices[interior] += np.random.default_rng(seed).uniform(
        -0.2 / n, 0.2 / n, (interior.sum(), 2))
    mesh = PolygonalMesh(vertices, mesh.cells)
    assert validate(mesh).ok
    p = patch_problem()
    sol = solve(mesh, p)
    exact = p.u(vertices[:, 0], vertices[:, 1])
    assert np.abs(sol.dof_values - exact).max() <= 1e-10


@pytest.mark.parametrize("family", ["quad", "perturbed_quad", "hexagon"])
def test_patch_exactness(family):
    p = patch_problem()
    mesh = generate(MeshFamilySpec(family, 4))
    sol = solve(mesh, p)
    exact = p.u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(sol.dof_values - exact).max() <= 1e-10
    report = error_norms(sol, p)
    assert report.err_H1 <= 1e-10
    assert report.err_L2 <= 1e-10


def test_boundary_dofs_exact():
    p = sinsin_problem()
    mesh = generate(MeshFamilySpec("quad", 4))
    sol = solve(mesh, p)
    bnd = boundary_vertices(mesh)
    g = p.g(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
    assert np.array_equal(sol.dof_values[bnd], g)


def test_error_norm_of_zero_solution():
    one = ManufacturedProblem(
        name="one",
        u=lambda x, y: np.ones_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x),
        g=lambda x, y: np.ones_like(x),
    )
    mesh = generate(MeshFamilySpec("quad", 2))
    sol = solve(mesh, one)
    sol.dof_values[:] = 0.0
    sol.cell_coeffs[:] = 0.0
    report = error_norms(sol, one)
    assert report.err_L2 == pytest.approx(1.0, abs=1e-12)
    assert report.err_H1 == pytest.approx(0.0, abs=1e-12)


def test_sinsin_rates_smoke():
    table = convergence_study(
        MeshFamilySpec("quad", 4), 3, sinsin_problem())
    assert table.eoc_H1[-1] == pytest.approx(1.0, abs=0.2)
    assert table.eoc_L2[-1] == pytest.approx(2.0, abs=0.4)
    hs = [r.h_max for r in table.rows]
    assert hs == sorted(hs, reverse=True)


# Jacobi-PCG counts of sinsin solves. A change to the matrix layout or
# the matvec may move the iterates by round-off, but these counts must
# not move; a count that does is a finding to report, not to re-freeze.
@pytest.mark.parametrize("family, n, seed, iterations", [
    ("hexagon", 64, 0, 124),
    ("hexagon", 32, 0, 72),
    ("triangle", 32, 0, 57),
    ("hanging_node", 32, 0, 116),
    ("perturbed_quad", 64, 1, 209),
    ("perturbed_quad", 64, 2, 210),
    ("perturbed_quad", 64, 3, 206),
])
def test_sinsin_cg_iterations_are_pinned(family, n, seed, iterations):
    mesh = generate(MeshFamilySpec(family, n, seed=seed))
    assert solve(mesh, sinsin_problem()).cg_iterations == iterations


def test_patch_study_rates_flagged():
    table = convergence_study(
        MeshFamilySpec("quad", 2), 2, patch_problem())
    assert all(r.err_L2 <= 1e-10 for r in table.rows)
    assert table.eoc_L2 == [None, None]
    assert table.eoc_H1 == [None, None]


def test_study_needs_two_levels():
    with pytest.raises(ValueError):
        convergence_study(MeshFamilySpec("quad", 4), 1, sinsin_problem())


def test_nu_policy_changes_little():
    p = sinsin_problem()
    mesh = generate(MeshFamilySpec("quad", 16))
    r_unit = error_norms(solve(mesh, p, SolveOptions(nu_policy="unit")), p)
    r_trace = error_norms(solve(mesh, p, SolveOptions(nu_policy="trace")), p)
    assert 0.5 <= r_unit.err_H1 / r_trace.err_H1 <= 2.0
    assert 0.5 <= r_unit.err_L2 / r_trace.err_L2 <= 2.0


def test_csv_schema(tmp_path):
    table = convergence_study(MeshFamilySpec("quad", 2), 2, sinsin_problem())
    out = tmp_path / "table.csv"
    write_csv(table, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[5] == "" and first[6] == ""  # no rate at the first level
    second = lines[2].split(",")
    assert second[5] != "" and second[6] != ""


def test_csv_deterministic_except_wall(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        write_csv(convergence_study(
            MeshFamilySpec("perturbed_quad", 2, seed=9), 2,
            sinsin_problem()), p)
    rows1 = [line.split(",") for line in p1.read_text().splitlines()]
    rows2 = [line.split(",") for line in p2.read_text().splitlines()]
    for r1, r2 in zip(rows1, rows2):
        assert r1[:-1] == r2[:-1]  # wall_ms is the only timing column
