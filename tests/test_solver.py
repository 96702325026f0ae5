import math
from dataclasses import replace

import numpy as np
import pytest

from polyvem import solver
from polyvem.element import ElementBatch, build_element
from polyvem.errors import NoConvergence
from polyvem.geometry import cell_geometry
from polyvem.linalg import _padded_matvec, dense_sym_eigen
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    PolygonalMesh,
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

from conftest import captured_triplets, dense, traced_peak


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
    assert np.allclose(dense(A), el.K, atol=1e-14)
    assert np.allclose(b, 0.0, atol=0)  # patch source is exactly zero


def test_assemble_center_row_quad2():
    # every 0.5x0.5 cell has the same scale-invariant local K, so the
    # center row can be summed by hand
    mesh = generate(MeshFamilySpec("quad", 2))
    A, _ = assemble(mesh, patch_problem())
    full = dense(A)
    expected_center = np.array(
        [-0.25, -0.5, -0.25, -0.5, 3.0, -0.5, -0.25, -0.5, -0.25])
    assert np.allclose(full[4], expected_center, atol=1e-13)
    assert abs(full[4].sum()) <= 1e-13


def test_assemble_kernel_is_constants():
    for spec in (MeshFamilySpec("quad", 4), MeshFamilySpec("hexagon", 4)):
        mesh = generate(spec)
        A, _ = assemble(mesh, patch_problem())
        full = dense(A)
        nrm = np.linalg.norm(full)
        assert np.abs(A @ np.ones(mesh.n_vertices)).max() <= 1e-12 * nrm
        w = dense_sym_eigen(full)
        assert np.sum(np.abs(w) <= 1e-10 * nrm) == 1


def test_apply_dirichlet_quad2():
    mesh = generate(MeshFamilySpec("quad", 2))
    A, b = assemble(mesh, patch_problem())
    system = apply_dirichlet(A, b, mesh, lambda x, y: np.zeros_like(x))
    assert system.matrix.n == 1
    assert list(system.interior) == [4]


def test_empty_interior():
    # every vertex is on the boundary: the system is 0 x 0, and the lift
    # holds g on every vertex, so it is the whole solution
    p = patch_problem()
    for family in ("quad", "triangle"):
        mesh = generate(MeshFamilySpec(family, 1))
        A, b = assemble(mesh, p)
        system = apply_dirichlet(A, b, mesh, p.g)
        assert system.matrix.n == 0
        assert system.rhs.shape == (0,) and system.interior.shape == (0,)
        x, y = mesh.vertices.T
        assert np.array_equal(system.lift, p.g(x, y))
        sol = solve(mesh, p)
        expected = 2.0 + 3.0 * x - y
        assert np.allclose(sol.dof_values, expected, atol=1e-13)
        assert sol.cg_iterations == 0
        assert sol.cg_residual == 0.0


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
    bnd = np.flatnonzero(mesh.boundary_vertex_flags)
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


# the same guard on the quadratic problem, one mesh of each family
@pytest.mark.parametrize("family, iterations", [
    ("quad", 87),
    ("perturbed_quad", 113),
    ("triangle", 123),
    ("hexagon", 117),
    ("hanging_node", 141),
])
def test_quadratic_cg_iterations_are_pinned(family, iterations):
    mesh = generate(MeshFamilySpec(family, 32, seed=0))
    assert solve(mesh, PROBLEMS["quadratic"]()).cg_iterations == iterations


def test_solve_raises_where_cg_does_not_converge(monkeypatch):
    # CG's own result, marked unconverged: a tiny tolerance is no
    # reliable stand-in, since CG can reach a residual of exactly 0
    real = solver.cg_solve
    monkeypatch.setattr(solver, "cg_solve", lambda A, b, tol: replace(
        real(A, b, tol), converged=False))
    with pytest.raises(NoConvergence,
                       match=r"^CG stalled at relative residual "
                             r"\d\.\d{3}e[-+]\d+ after \d+ iterations$"):
        solve(generate(MeshFamilySpec("hexagon", 8)), sinsin_problem())


@pytest.mark.parametrize("tol", [2.0, 1.0, 0.0, -1e-3, math.nan, math.inf])
def test_solve_rejects_a_tolerance_outside_the_open_unit_interval(tol):
    with pytest.raises(ValueError, match=r"^tol must lie in \(0, 1\)"):
        solve(generate(MeshFamilySpec("hexagon", 8)), sinsin_problem(),
              SolveOptions(tol=tol))


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


@pytest.mark.parametrize("nu_policy", ["unit", "trace"])
@pytest.mark.parametrize("family", FAMILIES)
def test_assembly_triplets_and_load_keep_the_group_order(
        monkeypatch, family, nu_policy):
    # the triplets are written group by group into one buffer; they must
    # be what np.repeat, np.tile and the concatenation of every group's
    # K give, and the per-group load sums what one np.add.at over all
    # groups sums
    mesh = generate(MeshFamilySpec(family, 8, seed=3))
    problem = sinsin_problem()
    [(_, rows, cols, values)] = captured_triplets(
        monkeypatch,
        lambda: solver._assemble_parts(mesh, problem, nu_policy, 4))
    _, b, _ = solver._assemble_parts(mesh, problem, nu_policy, 4)
    want = [np.concatenate(parts) for parts in zip(*(
        (np.repeat(loops, loops.shape[1], axis=1).ravel(),
         np.tile(loops, (1, loops.shape[1])).ravel(),
         ElementBatch.of(geo, nu_policy).K.ravel(),
         loops.ravel(),
         np.repeat(solver._integrals(geo, problem.f, 4) / loops.shape[1],
                   loops.shape[1]))
        for _, loops, geo in mesh.cell_groups()))]
    assert rows.dtype == cols.dtype == np.int64
    for got, ref in zip((rows, cols, values), want):
        assert np.array_equal(got, ref)
    load = np.zeros(mesh.n_vertices)
    np.add.at(load, want[3], want[4])
    assert np.array_equal(b, load)


def _solve_peak_per_triplet(family):
    """Traced peak bytes of solve per stiffness triplet, on sinsin at
    n=64. The geometry is the mesh's own cache and is built before the
    trace."""
    mesh = generate(MeshFamilySpec(family, 64))
    triplets = sum(loops.size * loops.shape[1]
                   for _, loops, _ in mesh.cell_groups())
    problem = sinsin_problem()
    return traced_peak(lambda: solve(mesh, problem)) / triplets


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_peak_memory_per_stiffness_triplet(family):
    # solve keeps one key and one value buffer for the triplets, the
    # element matrices of one slice of cells at a time and the CSR
    # matrix; CG builds a row-padded copy of the interior matrix, which
    # lives only while it runs
    assert _solve_peak_per_triplet(family) <= 100


@pytest.mark.parametrize("family", FAMILIES)
def test_solve_peak_memory_stays_near_the_triplet_buffers(family):
    # the key and value buffers take 16 bytes per triplet; the CSR build
    # sorts and sums in them. Its place tags and run starts take up to 9
    # bytes per triplet more, one pass at a time, the CSR arrays are
    # formed per distinct entry, and it gathers the runs' values a block
    # of runs at a time, so no sorted copy of every value is made
    assert _solve_peak_per_triplet(family) <= 64


def _relabelled(mesh, seed):
    """The same mesh with seed-chosen vertex numbers, cell order and
    loop start vertices."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    cells = [new_id[mesh.cells[ci]] for ci in rng.permutation(mesh.n_cells)]
    cells = [np.roll(loop, -int(rng.integers(len(loop)))) for loop in cells]
    return PolygonalMesh(vertices, cells)


@pytest.mark.parametrize("case", [*FAMILIES, "relabelled-hexagon"])
def test_dirichlet_rhs_is_the_matvec_residual(case):
    # apply_dirichlet's right-hand side is b - A @ lift, and cg_solve's
    # row-padded product sums as A @ x does, bit for bit
    family = "hexagon" if case == "relabelled-hexagon" else case
    mesh = generate(MeshFamilySpec(family, 16, seed=4))
    if case == "relabelled-hexagon":
        mesh = _relabelled(mesh, 3)
    problem = PROBLEMS["quadratic"]()
    A, b = assemble(mesh, problem)
    system = apply_dirichlet(A, b, mesh, problem.g)
    want = (b - A @ system.lift)[system.interior]
    assert system.rhs.dtype == want.dtype
    assert np.array_equal(system.rhs, want)
    rng = np.random.default_rng(1)
    for M, v in ((A, system.lift), (A, rng.standard_normal(A.n)),
                 (system.matrix, rng.standard_normal(system.matrix.n))):
        # below the cap on the longest row, so on the padded copy
        assert np.diff(M.indptr).max() <= 2 * M.nnz // M.n
        assert np.array_equal(_padded_matvec(M)(v), M @ v)


@pytest.mark.parametrize("offset", [1e4, 1e6])
@pytest.mark.parametrize("family", FAMILIES)
def test_translated_mesh_is_accepted_and_patch_exact(family, offset):
    # the cells' shoelace and centroid terms are formed about each cell's
    # own first vertex, so a far translation costs only the rounding of
    # the vertices (relative to offset) and not the star-shape check.
    # A tight CG tolerance keeps CG's own error below that rounding.
    base = generate(MeshFamilySpec(family, 8, seed=7))
    mesh = PolygonalMesh(base.vertices + offset, base.cells)
    assert validate(mesh).ok
    problem = patch_problem()
    rep = error_norms(solve(mesh, problem, SolveOptions(tol=1e-15)),
                      problem)
    assert rep.err_L2 <= 1e-13 * offset
    assert rep.err_H1 <= 1e-13 * offset


@pytest.mark.parametrize("k", [-200, 40, 120, 200, 354])
def test_error_norms_are_exact_under_power_of_two_scaling(k):
    # hexagon n=8 with its vertices scaled by 2^-k, on the quadratic
    # problem: every stage scales by a power of two, so err_L2 scales by
    # 2^-3k and err_H1 by 2^-2k exactly. At k=200 the squared L2 terms
    # lie below the float range, at k=-200 above it; 354 is the largest
    # k that validate accepts
    problem = PROBLEMS["quadratic"]()
    base = generate(MeshFamilySpec("hexagon", 8))
    want = error_norms(solve(base, problem), problem)
    mesh = PolygonalMesh(np.ldexp(base.vertices, -k), base.cells)
    assert validate(mesh).ok
    got = error_norms(solve(mesh, problem), problem)
    assert got.err_L2 == math.ldexp(want.err_L2, -3 * k)
    assert got.err_H1 == math.ldexp(want.err_H1, -2 * k)
    if k == 354:
        tinier = PolygonalMesh(np.ldexp(base.vertices, -k - 1), base.cells)
        assert not validate(tinier).ok


def _unscaled_error_norms(sol, problem, quad_order=4):
    """(err_L2, err_H1) summed in plain floats, pass by pass."""
    e_l2 = e_h1 = 0.0
    for ids, _, geo in sol.mesh.cell_groups():
        c = sol.cell_coeffs[ids]
        c1h = (c[:, 1] / geo.diameter)[:, None]
        c2h = (c[:, 2] / geo.diameter)[:, None]
        for cells, x, y, w in geo.quadrature(quad_order):
            proj = (c[cells, 0, None]
                    + c1h[cells] * (x - geo.centroid[cells, 0, None])
                    + c2h[cells] * (y - geo.centroid[cells, 1, None]))
            diff = problem.u(x, y) - proj
            e_l2 += float(np.einsum("cq,cq,cq->", w, diff, diff))
            gx, gy = problem.grad_u(x, y)
            dx = gx - c1h[cells]
            dy = gy - c2h[cells]
            e_h1 += float(np.einsum("cq,cq->", w, dx * dx + dy * dy))
    return math.sqrt(e_l2), math.sqrt(e_h1)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("family", FAMILIES)
def test_error_norms_round_as_the_unscaled_sums(family, name):
    # on a unit-square mesh nothing under- or overflows, so the scaled
    # sums must give the plain sums bit for bit
    mesh = generate(MeshFamilySpec(family, 16, seed=5))
    problem = PROBLEMS[name]()
    sol = solve(mesh, problem)
    report = error_norms(sol, problem)
    want = _unscaled_error_norms(sol, problem)
    assert (report.err_L2, report.err_H1) == want
