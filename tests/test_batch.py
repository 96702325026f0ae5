"""The by-vertex-count cell batch against its one-cell slices, the
assembly's error reporting, and seeded properties of the element on
random star-shaped polygons."""

import numpy as np
import pytest

from polyvem.element import (
    NU_POLICIES,
    ElementBatch,
    build_element,
    consistency_check,
)
from polyvem import solver
from polyvem.errors import (
    InvertedSubTriangle,
    NonPositiveArea,
    VemError,
    ZeroLengthEdge,
)
from polyvem.geometry import CellBatch, cell_geometry, fan_quadrature
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    PolygonalMesh,
    generate,
    validate,
)
from polyvem.solver import assemble, sinsin_problem, solve

from conftest import captured_triplets

STAPLE = np.array([
    [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
    [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0],
])


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_matches_one_cell_slices(family):
    # bit for bit: a one-cell batch runs the same elementwise algebra, so
    # every array of the row equals the group batch's at that cell
    mesh = generate(MeshFamilySpec(family, 4, seed=3))
    for ids, _, geo in mesh.cell_groups():
        els = {nu: ElementBatch.of(geo, nu) for nu in NU_POLICIES}
        (_, x, y, w), = geo.quadrature(4)
        for k, ci in enumerate(ids):
            verts = mesh.cell_vertices(ci)
            g = cell_geometry(verts)
            for name, value in vars(g).items():
                assert np.array_equal(getattr(geo, name)[k], value), name
            quad = fan_quadrature(verts, order=4)
            assert np.array_equal(np.column_stack([x[k], y[k]]), quad.points)
            assert np.array_equal(w[k], quad.weights)
            for nu, el in els.items():
                for name, value in vars(build_element(g, nu)).items():
                    assert np.array_equal(getattr(el, name)[k], value), name


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_load_matches_one_cell_loads(family):
    mesh = generate(MeshFamilySpec(family, 4, seed=3))
    p = sinsin_problem()
    _, b = assemble(mesh, p)
    expected = np.zeros(mesh.n_vertices)
    for ci, loop in enumerate(mesh.cells):
        quad = fan_quadrature(mesh.cell_vertices(ci), order=4)
        expected[loop] += quad.integrate(p.f) / len(loop)
    assert _rel(b, expected) <= 1e-14


def test_max_diameter_is_the_largest_cell_diameter():
    for family in FAMILIES:
        mesh = generate(MeshFamilySpec(family, 4, seed=2))
        h = max(cell_geometry(mesh.cell_vertices(ci)).diameter
                for ci in range(mesh.n_cells))
        assert mesh.max_diameter() == h


def _two_bad_cells():
    """Hexagon mesh with one non-star cell and, at a higher index but in
    a group of fewer vertices, one clockwise cell."""
    mesh = generate(MeshFamilySpec("hexagon", 4))
    sizes = [len(c) for c in mesh.cells]
    low = sizes.index(6)
    high = next(ci for ci in range(low + 1, mesh.n_cells) if sizes[ci] < 6)
    base = mesh.vertices[mesh.cells[low]].min(axis=0)
    vertices = np.vstack([mesh.vertices, base + 0.01 * STAPLE])
    cells = [list(c) for c in mesh.cells]
    cells[low] = list(range(mesh.n_vertices, mesh.n_vertices + len(STAPLE)))
    cells[high] = cells[high][::-1]
    return PolygonalMesh(vertices, cells), low, high


def test_assembly_reports_the_lowest_failing_cell():
    mesh, low, high = _two_bad_cells()
    with pytest.raises(InvertedSubTriangle,
                       match=rf"^cell {low}: fan triangle"):
        assemble(mesh, sinsin_problem())
    cells = [list(c) for c in mesh.cells]
    cells[low] = list(np.array(cells[low])[[0, 7, 6, 5, 4, 3, 2, 1]])
    clockwise = PolygonalMesh(mesh.vertices, cells)
    with pytest.raises(NonPositiveArea, match=rf"^cell {low}: signed area"):
        assemble(clockwise, sinsin_problem())


@pytest.mark.parametrize("low, high", [(700, 1500), (1500, 2100)])
def test_solve_names_the_lowest_bad_cell_across_element_slices(low, high):
    # quad n=48 is one group of 2304 cells, three element slices; a
    # clockwise cell and one with a collapsed edge sit in two of them
    mesh = generate(MeshFamilySpec("quad", 48))
    [(ids, _, _)] = mesh.cell_groups()
    assert len(ids) > 2 * solver._CELLS_PER_SLICE
    assert low // solver._CELLS_PER_SLICE != high // solver._CELLS_PER_SLICE
    cells = [list(c) for c in mesh.cells]
    cells[low] = cells[low][::-1]
    cells[high][1] = cells[high][0]
    bad = PolygonalMesh(mesh.vertices, cells)
    with pytest.raises(NonPositiveArea) as one_cell:
        cell_geometry(bad.cell_vertices(low))
    with pytest.raises(NonPositiveArea) as got:
        solve(bad, sinsin_problem())
    assert str(got.value) == f"cell {low}: {one_cell.value}"
    # with the clockwise cell mended, the collapsed edge is the lowest
    cells[low] = cells[low][::-1]
    with pytest.raises(ZeroLengthEdge) as got:
        solve(PolygonalMesh(mesh.vertices, cells), sinsin_problem())
    assert str(got.value) == f"cell {high}: edge 0 has zero length"


@pytest.mark.parametrize("nu_policy", ["unit", "trace"])
@pytest.mark.parametrize("family, n", [("perturbed_quad", 40),
                                       ("hexagon", 64)])
def test_sliced_assembly_keeps_the_whole_group_elements(
        monkeypatch, family, n, nu_policy):
    # assembly builds each group's elements a slice of cells at a time;
    # its K and Pi_star must be what one ElementBatch of the whole group
    # gives, bit for bit
    mesh = generate(MeshFamilySpec(family, n, seed=3))
    groups = mesh.cell_groups()
    assert max(len(ids) for ids, _, _ in groups) > solver._CELLS_PER_SLICE
    parts = []
    [(_, _, _, values)] = captured_triplets(monkeypatch, lambda: parts.append(
        solver._assemble_parts(mesh, sinsin_problem(), nu_policy, 4)))
    [(_, _, projectors)] = parts
    whole = [ElementBatch.of(geo, nu_policy) for _, _, geo in groups]
    assert np.array_equal(values,
                          np.concatenate([el.K.ravel() for el in whole]))
    assert len(projectors) == len(whole)
    for (ids, _, Pi_star), (want_ids, _, _), el in zip(projectors, groups,
                                                       whole):
        assert ids is want_ids and np.array_equal(Pi_star, el.Pi_star)


def test_validate_lists_each_bad_cell_once_in_order():
    mesh, low, high = _two_bad_cells()
    cell_lines = [v for v in validate(mesh).violations if v.startswith("cell")]
    assert cell_lines == [
        f"cell {low}: fan triangle at edge 3 is inverted; polygon is not "
        "star-shaped with respect to its centroid",
        f"cell {high}: signed area -4.688e-02 is not positive; vertices "
        "must be counterclockwise and non-degenerate",
    ]


@pytest.mark.filterwarnings("error")
def test_degenerate_cells_raise_no_numpy_warnings():
    verts = [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    cells = [[0, 1, 2], [0, 2, 3, 4]]  # a flat triangle and a good quad
    mesh = PolygonalMesh(verts, cells)
    assert validate(mesh).violations[0].startswith(
        "cell 0: signed area 0.000e+00 is not positive")
    with pytest.raises(NonPositiveArea, match="^cell 0: "):
        assemble(mesh, sinsin_problem())
    batch = CellBatch(np.array([[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    assert batch.faulty().all()
    assert ElementBatch.of(batch).singular.all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loop", [[], [4], [4, 5]], ids=["0", "1", "2"])
def test_cells_of_fewer_than_3_vertices_fail_as_degenerate(loop):
    # a mesh built in the library skips read_json's validation; its short
    # cell is flagged by the batch like any other degenerate cell
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
             [0.5, 0.5], [0.2, 0.7]]
    mesh = PolygonalMesh(verts, [[0, 1, 2, 3], loop])
    violations = validate(mesh).violations
    assert "cell 1: fewer than 3 distinct vertices" in violations
    assert mesh.max_diameter() == np.sqrt(2.0)
    for run in (assemble, solve):
        with pytest.raises(VemError, match="^cell 1: "):
            run(mesh, sinsin_problem())


# ---------------------------------------------------------------------------
# seeded properties on random star-shaped polygons


def _random_polygons(rng, count):
    """Star-shaped polygons around the origin with 3 to 8 vertices whose
    centroid-fan triangles are all positive."""
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.r_[angles, angles[0] + 2.0 * np.pi])
        if gaps.min() < 0.1 or gaps.max() > 0.9 * np.pi:
            continue
        r = rng.uniform(0.6, 1.0, n)
        poly = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
        if not CellBatch(poly[None]).faulty()[0]:
            out.append(poly)
    return out


def _stiffness(poly, nu_policy):
    return build_element(cell_geometry(poly), nu_policy=nu_policy).K


@pytest.mark.parametrize("nu_policy", ["unit", "trace"])
def test_stiffness_invariant_under_similarity_maps(nu_policy):
    rng = np.random.default_rng(20240611)
    for poly in _random_polygons(rng, 40):
        K = _stiffness(poly, nu_policy)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = rng.uniform(-10.0, 10.0, 2)
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        for mapped in (poly + shift, poly @ rot.T, scale * poly,
                       scale * poly @ rot.T + shift):
            assert _rel(_stiffness(mapped, nu_policy), K) <= 1e-11


@pytest.mark.parametrize("nu_policy", ["unit", "trace"])
def test_batch_invariant_under_rigid_motion_and_scaling(nu_policy):
    # each polygon and its rotated, scaled and translated copy in one
    # batch; the shift is in units of the copy's scale, since a shift far
    # beyond the cell size rounds its vertices by |shift| * eps
    rng = np.random.default_rng(20261018)
    polys = _random_polygons(rng, 200)
    for n in range(3, 9):
        p = np.array([q for q in polys if len(q) == n])
        m = len(p)
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        c, s = np.cos(theta), np.sin(theta)
        rot_T = np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, m)
        shift = scale[:, None] * rng.uniform(-10.0, 10.0, (m, 2))
        moved = scale[:, None, None] * p @ rot_T + shift[:, None, :]
        el = ElementBatch.of(CellBatch(np.concatenate([p, moved])), nu_policy)
        for k in range(m):
            assert _rel(el.K[m + k], el.K[k]) <= 1e-12
            assert _rel(el.nu[m + k], el.nu[k]) <= 1e-12
        for k in range(2 * m):
            residual = consistency_check(el.K[k], el.D[k], el.B[k])
            assert residual <= 1e-12 * np.abs(el.K[k]).max()


def test_stiffness_rank_and_kernel_on_random_polygons():
    rng = np.random.default_rng(7)
    for poly in _random_polygons(rng, 60):
        g = cell_geometry(poly)
        el = build_element(g)
        n = len(poly)
        scale = np.linalg.norm(el.K)
        w = np.linalg.eigvalsh(el.K)
        assert abs(w[0]) <= 1e-12 * scale
        assert w[1] > 1e-10 * scale
        assert np.abs(el.K @ np.ones(n)).max() <= 1e-12 * scale
        assert consistency_check(el.K, el.D, el.B) <= 1e-12 * scale


def test_batch_of_random_polygons_matches_one_cell_path():
    rng = np.random.default_rng(11)
    polys = [p for p in _random_polygons(rng, 80) if len(p) == 5]
    geo = CellBatch(np.array(polys))
    el = ElementBatch.of(geo, "trace")
    for k, poly in enumerate(polys):
        one = build_element(cell_geometry(poly), nu_policy="trace")
        assert _rel(el.K[k], one.K) <= 1e-14
        assert el.nu[k] == pytest.approx(one.nu, rel=1e-14)


def test_one_cell_errors_keep_their_types():
    with pytest.raises(InvertedSubTriangle):
        fan_quadrature(STAPLE)
    with pytest.raises(VemError):
        cell_geometry(STAPLE[::-1])


@pytest.mark.parametrize("nu_policy", ["unit", "trace"])
@pytest.mark.parametrize("family", FAMILIES)
def test_in_place_stiffness_is_the_out_of_place_sum(family, nu_policy):
    # K is formed in the memory of S = (I - Pi)^T (I - Pi) as S *= nu,
    # S += Kc; that must round exactly as Kc + nu * S
    mesh = generate(MeshFamilySpec(family, 8))
    for _, _, geo in mesh.cell_groups():
        el = ElementBatch.of(geo, nu_policy)
        Kc = np.swapaxes(el.Pi_star, 1, 2) @ el.G_tilde @ el.Pi_star
        R = np.eye(el.K.shape[1]) - el.Pi
        S = np.swapaxes(R, 1, 2) @ R
        nu = (np.ones(len(geo)) if nu_policy == "unit"
              else 0.5 * np.trace(Kc, axis1=1, axis2=2))
        assert np.array_equal(el.nu, nu)
        assert np.array_equal(el.K, Kc + nu[:, None, None] * S)


@pytest.mark.parametrize("family", FAMILIES)
def test_edge_lengths_equal_the_sum_over_the_coordinate_axis(family):
    mesh = generate(MeshFamilySpec(family, 16))
    for _, _, geo in mesh.cell_groups():
        d = np.roll(geo.vertices, -1, axis=1) - geo.vertices
        want = np.sqrt((d * d).sum(axis=-1))
        assert np.array_equal(geo.edge_lengths, want)


def _lapack_projector(el):
    """Pi_star and the singular flags of a batch from LAPACK det and
    solve, the way the element formed them before the adjugate."""
    with np.errstate(all="ignore"):
        det = np.linalg.det(el.G)
        norm = np.linalg.norm(el.G, axis=(-2, -1))
        singular = ~(np.abs(det) >= 1e-12 * norm ** 3)
        G = np.where(singular[:, None, None], np.eye(3), el.G)
        return np.linalg.solve(G, el.B), singular


def _batches_of_fine_cells():
    for family in FAMILIES:
        mesh = generate(MeshFamilySpec(family, 8, seed=3))
        for _, _, geo in mesh.cell_groups():
            yield geo
    polys = _random_polygons(np.random.default_rng(23), 200)
    for n in range(3, 9):
        yield CellBatch(np.array([p for p in polys if len(p) == n]))


def test_adjugate_projector_matches_the_lapack_solve():
    for geo in _batches_of_fine_cells():
        el = ElementBatch.of(geo)
        want, singular = _lapack_projector(el)
        assert not singular.any() and not el.singular.any()
        err = np.abs(el.Pi_star - want).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * np.abs(want).max(axis=(1, 2)))


def test_singular_flags_match_the_lapack_determinant():
    mesh, _, _ = _two_bad_cells()
    flat = PolygonalMesh(
        [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0, 1, 2], [0, 2, 3, 4]])
    batches = [geo for m in (mesh, flat) for _, _, geo in m.cell_groups()]
    batches.append(CellBatch(np.zeros((1, 3, 2))))
    elements = [ElementBatch.of(geo) for geo in batches]
    # a square whose D repeats a monomial column: G is rank deficient
    el = build_element(cell_geometry(STAPLE[[0, 1, 2, 7]]))
    D = el.D.copy()
    D[:, 2] = D[:, 1]
    elements.append(ElementBatch(D[None], el.B[None]))
    flagged = 0
    for el in elements:
        assert np.array_equal(el.singular, _lapack_projector(el)[1])
        flagged += el.singular.sum()
    assert flagged >= 3
