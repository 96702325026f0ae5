import numpy as np
import pytest

from polyvem.element import build_element
from polyvem.errors import DegenerateTriangle, InvertedSubTriangle
from polyvem.geometry import cell_geometry
from polyvem.harmonic_fem import (
    harmonic_stiffness,
    p1_global_solve,
    p1_stiffness,
    stability_report,
    subtriangulate,
)
from polyvem.linalg import dense_sym_eigen
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    PolygonalMesh,
    generate,
    validate,
)
from polyvem.solver import SolveOptions, patch_problem, sinsin_problem, solve

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
PENTAGON = np.array(
    [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0]])
HEXAGON = np.column_stack([np.cos(np.arange(6) * np.pi / 3),
                           np.sin(np.arange(6) * np.pi / 3)])
# 3x3 square with a notch cut to past the middle: not star-shaped
# with respect to its centroid
STAPLE = np.array([
    [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
    [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])

# energy inner products of the exact harmonic liftings on the unit
# square: the bilinear hats are harmonic, so this is the bilinear
# element stiffness (verified by direct integration)
SQUARE_HARMONIC = np.array([
    [2 / 3, -1 / 6, -1 / 3, -1 / 6],
    [-1 / 6, 2 / 3, -1 / 6, -1 / 3],
    [-1 / 3, -1 / 6, 2 / 3, -1 / 6],
    [-1 / 6, -1 / 3, -1 / 6, 2 / 3]])


def test_fan_counts():
    sub = subtriangulate(SQUARE, 0)
    assert len(sub.points) == 5
    assert len(sub.triangles) == 4
    tri = subtriangulate(TRIANGLE, 0)
    assert len(tri.points) == 4
    assert len(tri.triangles) == 3


def test_refinement_counts():
    sub = subtriangulate(SQUARE, 1)
    assert len(sub.points) == 13
    assert len(sub.triangles) == 16
    assert sub.boundary.sum() == 8
    sub = subtriangulate(SQUARE, 2)
    assert len(sub.points) == 41
    assert len(sub.triangles) == 64
    assert sub.boundary.sum() == 16


@pytest.mark.parametrize("poly", [PENTAGON, HEXAGON],
                         ids=["pentagon", "hexagon"])
@pytest.mark.parametrize("levels", range(6))
def test_subtriangulation_is_a_conforming_mesh(poly, levels):
    # a duplicated or hanging node would fail validation or add a
    # boundary vertex that the sub-mesh does not flag
    sub = subtriangulate(poly, levels)
    n, m = len(poly), 2 ** levels
    assert len(sub.points) == 1 + n * m * (m + 1) // 2
    assert len(sub.triangles) == n * m * m
    mesh = PolygonalMesh(sub.points, sub.triangles)
    assert validate(mesh).ok
    assert np.array_equal(mesh.boundary_vertex_flags, sub.boundary)


def test_refined_triangles_cover_polygon():
    sub = subtriangulate(PENTAGON, 2)
    total = 0.0
    for a, b, c in sub.triangles:
        pa, pb, pc = sub.points[a], sub.points[b], sub.points[c]
        area2 = ((pb[0] - pa[0]) * (pc[1] - pa[1])
                 - (pb[1] - pa[1]) * (pc[0] - pa[0]))
        assert area2 > 0
        total += area2 / 2
    assert total == pytest.approx(cell_geometry(PENTAGON).area, rel=1e-13)


def test_trace_is_interpolatory():
    sub = subtriangulate(SQUARE, 2)
    n = 4
    assert np.allclose(sub.trace[:, :n], np.eye(n), atol=0)
    # partition of unity along the whole boundary
    assert np.abs(sub.trace.sum(axis=0)[sub.boundary] - 1.0).max() == 0.0
    # interior rows carry no data
    assert np.abs(sub.trace[:, ~sub.boundary]).max() == 0.0
    # boundary nodes sit exactly on the square's edges
    pts = sub.points[sub.boundary]
    on_edge = ((pts[:, 0] == 0) | (pts[:, 0] == 1)
               | (pts[:, 1] == 0) | (pts[:, 1] == 1))
    assert on_edge.all()


def test_trace_linear_along_edges():
    sub = subtriangulate(SQUARE, 1)
    for p in range(len(sub.points)):
        if not sub.boundary[p]:
            continue
        x, y = sub.points[p]
        if y == 0.0:  # bottom edge: hats 0 and 1 interpolate x linearly
            assert sub.trace[0, p] == pytest.approx(1 - x, abs=1e-15)
            assert sub.trace[1, p] == pytest.approx(x, abs=1e-15)


def test_levels_range():
    with pytest.raises(ValueError):
        subtriangulate(SQUARE, -1)
    with pytest.raises(ValueError):
        subtriangulate(SQUARE, 6)


def test_fan_rejects_nonstar_cell():
    with pytest.raises(InvertedSubTriangle):
        subtriangulate(STAPLE, 0)


def test_p1_stiffness_reference_triangle():
    expected = np.array([
        [1.0, -0.5, -0.5],
        [-0.5, 0.5, 0.0],
        [-0.5, 0.0, 0.5]])
    assert np.allclose(p1_stiffness(TRIANGLE), expected, atol=1e-15)


def test_p1_stiffness_equilateral():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    k = p1_stiffness(tri)
    assert np.allclose(np.diag(k), 1 / np.sqrt(3), atol=1e-14)
    assert np.abs(k.sum(axis=1)).max() <= 1e-14


def test_p1_stiffness_degenerate():
    with pytest.raises(DegenerateTriangle):
        p1_stiffness([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])


def test_p1_stiffness_batch_matches_one_triangle_calls():
    sub = subtriangulate(PENTAGON, 2)
    stack = sub.points[sub.triangles]
    batch = p1_stiffness(stack)
    assert batch.shape == (len(stack), 3, 3)
    for t, k in zip(stack, batch):
        one = p1_stiffness(t)
        assert np.abs(k - one).max() <= 1e-15 * np.abs(one).max()


def test_p1_stiffness_batch_rejects_one_degenerate_triangle():
    flat = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    stack = np.array([TRIANGLE, TRIANGLE, flat, TRIANGLE])
    with pytest.raises(DegenerateTriangle):
        p1_stiffness(stack)


def _p1_stiffness_by_axis_sums(tri):
    e = tri[..., [2, 0, 1], :] - tri[..., [1, 2, 0], :]
    area2 = -(tri[..., 0] * e[..., 1]).sum(axis=-1)
    ee = (e[..., :, None, :] * e[..., None, :, :]).sum(axis=-1)
    return ee / (2.0 * area2)[..., None, None]


@pytest.mark.parametrize("family", FAMILIES)
def test_p1_stiffness_equals_the_sums_over_the_coordinate_axis(family):
    # the two-term sums x + y replace sums over the length-2 axis; they
    # may give -0.0 where the axis sum gives +0.0, which array_equal
    # accepts and assembly drops
    mesh = generate(MeshFamilySpec(family, 16))
    stacks = [mesh.vertices[loops] for _, loops, _ in mesh.cell_groups()
              if loops.shape[1] == 3]
    for ci in (0, mesh.n_cells // 2):
        sub = subtriangulate(mesh.vertices[mesh.cells[ci]], 4)
        stacks.append(sub.points[sub.triangles])
    for tri in stacks:
        assert np.array_equal(p1_stiffness(tri),
                              _p1_stiffness_by_axis_sums(tri))


def test_triangle_lifting_is_exact():
    expected = p1_stiffness(TRIANGLE)
    for levels in (0, 2):
        oracle = harmonic_stiffness(TRIANGLE, levels)
        assert np.abs(oracle - expected).max() <= 1e-10


def test_square_oracle_matches_bilinear_energy():
    oracle = harmonic_stiffness(SQUARE, 3)
    assert np.abs(oracle - SQUARE_HARMONIC).max() <= 2e-3
    # discrete liftings can only overshoot the true minimal energy
    assert np.diag(oracle).min() >= 2 / 3 - 1e-9


def test_oracle_row_sums_vanish():
    for poly in (SQUARE, PENTAGON):
        oracle = harmonic_stiffness(poly, 2)
        assert np.abs(oracle.sum(axis=1)).max() <= 1e-10


def test_oracle_psd_kernel_constants():
    oracle = harmonic_stiffness(PENTAGON, 2)
    assert np.allclose(oracle, oracle.T, atol=0)
    w = dense_sym_eigen(oracle)
    nrm = np.linalg.norm(oracle)
    assert np.sum(np.abs(w) <= 1e-10 * nrm) == 1
    assert w[1:].min() > 1e-10 * nrm


def test_oracle_cauchy_in_levels():
    o3 = harmonic_stiffness(SQUARE, 3)
    o4 = harmonic_stiffness(SQUARE, 4)
    assert np.abs(o3 - o4).max() <= 1e-3 * np.linalg.norm(o3)


def test_stability_triangle():
    el = build_element(cell_geometry(TRIANGLE))
    sc = stability_report(TRIANGLE, el.K, levels=3)
    assert sc.alpha_star_lower == pytest.approx(1.0, abs=1e-9)
    assert sc.alpha_star_upper == pytest.approx(1.0, abs=1e-9)


def test_stability_square():
    el = build_element(cell_geometry(SQUARE))
    sc = stability_report(SQUARE, el.K, levels=3)
    assert 0.2 <= sc.alpha_star_lower <= sc.alpha_star_upper <= 5.0
    # regression band pinned from a measured run: the lower bound is
    # attained on linear data (exactly 1), the upper on the hourglass
    # mode where the exact ratio is 1.5, approached from below
    assert sc.alpha_star_lower == pytest.approx(1.0, abs=1e-6)
    assert 1.45 <= sc.alpha_star_upper <= 1.5


def test_stability_pentagon():
    el = build_element(cell_geometry(PENTAGON))
    sc = stability_report(PENTAGON, el.K, levels=3)
    assert 0.05 <= sc.alpha_star_lower <= sc.alpha_star_upper <= 20.0
    # regression band pinned from a measured run
    assert sc.alpha_star_lower == pytest.approx(1.0, abs=1e-6)
    assert 1.15 <= sc.alpha_star_upper <= 1.3


def test_oracle_agrees_on_linear_data():
    # both matrices turn vertex values of a linear function into the
    # same boundary integrals, at any refinement level
    geom = cell_geometry(PENTAGON)
    el = build_element(geom)
    D = el.D
    for levels in (1, 2, 3):
        oracle = harmonic_stiffness(PENTAGON, levels)
        assert np.abs((el.K - oracle) @ D).max() <= 1e-8


def test_p1_global_patch_exact():
    p = patch_problem()
    mesh = generate(MeshFamilySpec("triangle", 4))
    dofs = p1_global_solve(mesh, p)
    exact = p.u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(dofs - exact).max() <= 1e-10


def test_p1_global_zero():
    from polyvem.solver import ManufacturedProblem
    zero = ManufacturedProblem(
        name="zero",
        u=lambda x, y: np.zeros_like(x),
        grad_u=lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        f=lambda x, y: np.zeros_like(x),
        g=lambda x, y: np.zeros_like(x))
    mesh = generate(MeshFamilySpec("triangle", 4))
    assert np.abs(p1_global_solve(mesh, zero)).max() == 0.0


def test_p1_global_matches_driver():
    p = sinsin_problem()
    mesh = generate(MeshFamilySpec("triangle", 8))
    fem = p1_global_solve(mesh, p)
    vem = solve(mesh, p)
    assert np.abs(fem - vem.dof_values).max() <= 1e-10


def test_p1_global_needs_triangles():
    mesh = generate(MeshFamilySpec("quad", 4))
    with pytest.raises(ValueError):
        p1_global_solve(mesh, sinsin_problem())


def test_p1_global_names_lowest_non_triangle_cell():
    # groups run by vertex count, so the quad (cell 2) is grouped before
    # the pentagon (cell 1); the message must still name cell 1
    vertices = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                [2.0, 1.0], [1.5, 1.0], [0.0, 2.0], [1.0, 2.0]]
    cells = [[0, 1, 4], [1, 2, 5, 6, 4], [3, 4, 8, 7], [0, 4, 3]]
    mesh = PolygonalMesh(vertices, cells)
    with pytest.raises(ValueError, match="cell 1 has 5 vertices"):
        p1_global_solve(mesh, sinsin_problem())


def test_p1_global_no_interior():
    p = patch_problem()
    mesh = generate(MeshFamilySpec("triangle", 1))
    dofs = p1_global_solve(mesh, p)
    exact = p.u(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(dofs - exact).max() <= 1e-13
