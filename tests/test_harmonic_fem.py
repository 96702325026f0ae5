import itertools
import re

import numpy as np
import pytest
from conftest import traced_peak

from polyvem import harmonic_fem
from polyvem.element import build_element
from polyvem.errors import (
    AsymmetricMatrix,
    DegenerateTriangle,
    InvertedSubTriangle,
    NoConvergence,
    VemError,
)
from polyvem.geometry import cell_geometry
from polyvem.harmonic_fem import (
    MAX_LEVELS,
    harmonic_stiffness,
    p1_global_solve,
    p1_stiffness,
    stability_report,
    subtriangulate,
)
from polyvem.linalg import (
    CGResult,
    SparseSymMatrix,
    cg_solve,
    dense_sym_eigen,
)
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


def test_a_lifting_that_does_not_converge_raises(monkeypatch):
    # every hat's CG reports a stall; the first solved hat's names it. On
    # the square that is hat 3: 0, 2 and 1 are fixed. CG starts from the
    # guess, and its figure is already relative to the hat's |b|
    monkeypatch.setattr(
        harmonic_fem, "cg_solve",
        lambda A, b, tol, x0: CGResult(np.zeros(A.n), 7, 0.5, False))
    with pytest.raises(NoConvergence, match=r"^lifting of hat 3 stalled at "
                                            r"relative residual 5\.000e-01$"):
        harmonic_stiffness(SQUARE, 2)


def test_a_lifting_solved_from_zero_names_its_own_residual(monkeypatch):
    # every start is positive at the centroid, so none is zero: CG gets
    # the hat's fan-linear start as x0, and its figure is named as it is
    # from any start
    starts = []

    def stalled(A, b, tol, x0):
        starts.append(x0)
        return CGResult(np.zeros(A.n), 7, 0.5, False)

    monkeypatch.setattr(harmonic_fem, "cg_solve", stalled)
    with pytest.raises(NoConvergence, match=r"^lifting of hat 3 stalled at "
                                            r"relative residual 5\.000e-01$"):
        harmonic_stiffness(SQUARE, 2)
    _, _, guesses = _interior_guesses(SQUARE, 2)
    assert len(starts) == 1 and np.array_equal(starts[0], guesses[3])


def _per_hat_harmonic_stiffness(poly, levels):
    """The oracle with one CG solve per hat, the last one included."""
    sub = subtriangulate(poly, levels)
    A = harmonic_fem._submesh_stiffness(sub)
    interior = np.flatnonzero(~sub.boundary)
    liftings = sub.trace
    products = np.empty_like(liftings)
    reduced = A.restrict(interior)
    for i, lifting in enumerate(liftings):
        result = cg_solve(reduced, -(A @ lifting)[interior], tol=1e-13)
        assert result.converged
        lifting[interior] = result.x
        products[i] = A @ lifting
    matrix = liftings @ products.T
    return (matrix + matrix.T) / 2.0


def _random_star_polygons(rng, count):
    """Polygons of 3 to 7 corners, star-shaped about their centroids;
    every other one gets an extra vertex inside a random edge, so three
    of its vertices are collinear."""
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 8))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.r_[angles, angles[0] + 2.0 * np.pi])
        if gaps.min() < 0.1 or gaps.max() > 0.9 * np.pi:
            continue
        r = rng.uniform(0.6, 1.0, n)
        poly = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
        if len(out) % 2:
            k, t = int(rng.integers(n)), rng.uniform(0.25, 0.75)
            poly = np.insert(poly, k + 1,
                             (1 - t) * poly[k] + t * poly[(k + 1) % n], axis=0)
        try:
            subtriangulate(poly, 0)
        except VemError:
            continue
        out.append(poly)
    return out


def _largest_cell(family):
    mesh = generate(MeshFamilySpec(family, 4))
    return mesh.vertices[max(mesh.cells, key=len)]


ORACLE_CELLS = ([_largest_cell(f) for f in FAMILIES]
                + _random_star_polygons(np.random.default_rng(25), 20))


def _cut_square(eps):
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0 - eps],
                     [1.0 - eps, 1.0], [0.0, 1.0]])


ILL_SHAPED = {
    **{f"cut-corner-{eps:g}": _cut_square(eps)
       for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)},
    "L-hexagon": np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                           [1.0, 2.0], [0.0, 2.0]]),
    "side-in-16": np.array([[k / 16, 0.0] for k in range(17)]
                           + [[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("levels", range(5))
def test_oracle_matches_one_solve_per_hat(levels):
    # three liftings come from 1, x and y, not from solves of their own
    for poly in ORACLE_CELLS:
        reference = _per_hat_harmonic_stiffness(poly, levels)
        oracle = harmonic_stiffness(poly, levels)
        assert np.abs(oracle - reference).max() <= (
            1e-12 * np.abs(reference).max())


def _triplet_matrix(sub, kernels):
    t = sub.triangles
    return SparseSymMatrix.from_triplets(
        len(sub.points), np.repeat(t, 3, axis=1), np.tile(t, (1, 3)), kernels)


def _fan_triangles(sub):
    """The (N, 3, 2) fan triangles (v_i, v_{i+1}, c) of a sub-mesh."""
    n = len(sub.trace)
    return np.stack([sub.points[:n], np.roll(sub.points[:n], -1, axis=0),
                     np.broadcast_to(sub.points[n], (n, 2))], axis=1)


def _from_triplets(sub):
    """The sub-mesh matrix built by from_triplets, each sub-triangle's
    kernel taken from the module's p1_stiffness of its fan triangle. Fan
    triangle i holds sub-triangles i m**2 .. (i + 1) m**2 - 1; each is the
    fan triangle scaled by +-1/m, and the corner order (a cyclic shift)
    and the sign are found from its edge vectors, which must match to
    round-off."""
    n = len(sub.trace)
    m = int(np.sqrt(len(sub.triangles) // n))
    tri = sub.points[sub.triangles]
    fans = _fan_triangles(sub)
    i = np.arange(len(tri)) // (m * m)
    fan = fans[i]
    edges = m * (tri[:, 1:] - tri[:, :1])
    best, corners = np.full(len(tri), np.inf), np.zeros((len(tri), 3), int)
    for shift, sign in itertools.product(range(3), (1.0, -1.0)):
        perm = np.roll([0, 1, 2], -shift)
        gap = np.abs(edges - sign * (fan[:, perm[1:]] - fan[:, perm[:1]]))
        gap = gap.max(axis=(1, 2))
        better = gap < best
        best[better] = gap[better]
        corners[better] = perm
    assert best.max() <= 1e-12 * m * np.abs(fan).max()
    kernels = harmonic_fem.p1_stiffness(fans)
    return _triplet_matrix(sub, kernels[
        i[:, None, None], corners[:, :, None], corners[:, None, :]])


def _nonzeros(A):
    rows = np.repeat(np.arange(A.n), np.diff(A.indptr))
    keep = A.data != 0
    return rows[keep], A.indices[keep], A.data[keep]


@pytest.mark.parametrize("levels", range(MAX_LEVELS + 1))
def test_the_cached_plan_builds_the_from_triplets_matrix(levels):
    # the same entries, with the exact zeros that from_triplets drops
    # kept, and the same bits of A @ x
    rng = np.random.default_rng(levels)
    for poly in ORACLE_CELLS + list(ILL_SHAPED.values()):
        sub = subtriangulate(poly, levels)
        A, B = harmonic_fem._submesh_stiffness(sub), _from_triplets(sub)
        assert A.n == B.n
        for got, want in zip(_nonzeros(A), _nonzeros(B)):
            assert np.array_equal(got, want)
        x = rng.standard_normal(A.n)
        assert np.array_equal(A @ x, B @ x)


@pytest.mark.parametrize("levels", range(MAX_LEVELS + 1))
def test_the_gathered_matrix_matches_one_kernel_per_sub_triangle(levels):
    # similar triangles have the same P1 stiffness, so the fan kernels
    # give each sub-triangle's own kernel up to its coordinates' rounding
    for poly in ORACLE_CELLS:
        sub = subtriangulate(poly, levels)
        A = harmonic_fem._submesh_stiffness(sub)
        B = _triplet_matrix(sub, p1_stiffness(sub.points[sub.triangles]))
        keys = [np.repeat(np.arange(M.n), np.diff(M.indptr)) * M.n
                + M.indices for M in (A, B)]
        at = np.searchsorted(keys[0], keys[1])
        assert np.array_equal(keys[0][at], keys[1])
        want = np.zeros(A.nnz)
        want[at] = B.data
        assert np.abs(A.data - want).max() <= 1e-13 * np.abs(want).max()


def test_the_submesh_stiffness_computes_only_the_fan_kernels(monkeypatch):
    shapes = []

    def spy(triangles):
        shapes.append(np.shape(triangles))
        return p1_stiffness(triangles)

    monkeypatch.setattr(harmonic_fem, "p1_stiffness", spy)
    for poly in (TRIANGLE, PENTAGON, _regular_polygon(16)):
        shapes.clear()
        harmonic_fem._submesh_stiffness(subtriangulate(poly, 3))
        assert shapes == [(len(poly), 3, 2)]


def test_the_submesh_stiffness_peak_memory_on_a_16_gon_at_level_5():
    # 16 4**5 sub-triangles share 16 kernels: no (T, 3, 3) stack of them
    # is formed, only the (9 T,) gather of the plan's kernel index
    sub = subtriangulate(_regular_polygon(16), 5)
    assert traced_peak(
        lambda: harmonic_fem._submesh_stiffness(sub)) <= 2.5 * 2 ** 20


@pytest.mark.parametrize("levels", range(MAX_LEVELS + 1))
def test_a_subtriangulation_shares_nothing_it_may_write(levels):
    for poly in ORACLE_CELLS[:6]:
        first = subtriangulate(poly, levels)
        want = (first.points.copy(), first.trace.copy())
        first.points[:] = np.nan
        first.trace[:] = np.nan
        again = subtriangulate(poly, levels)
        assert np.array_equal(again.points, want[0])
        assert np.array_equal(again.trace, want[1])
        plan = harmonic_fem._plan(len(poly), levels)
        assert again.triangles is plan.triangles
        for array in plan:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]


def test_a_16_gon_plan_at_level_5_holds_no_hat_traces():
    # the (16, M) traces alone would take 1.03 MiB; the shared numbering,
    # triangles and CSR pattern take 2.53 MiB
    plan = harmonic_fem._plan(16, 5)
    assert sum(array.nbytes for array in plan) <= 2.6 * 2 ** 20


def test_the_plan_cache_is_bounded_and_the_oracle_survives_its_evictions():
    # the plans of ten vertex counts fill the cache; then every oracle
    # cell, up to 8 vertices at levels 0-4, stays at round-off of the
    # reference, which solves each hat to 1e-13 where the oracle stops
    # at 1e-8: the matrix's error is quadratic in the liftings' errors
    for n in range(3, 13):
        harmonic_fem._plan(n, MAX_LEVELS)
    info = harmonic_fem._plan.cache_info()
    assert info.currsize == info.maxsize == 8
    for levels in range(5):
        for poly in ORACLE_CELLS:
            reference = _per_hat_harmonic_stiffness(poly, levels)
            oracle = harmonic_stiffness(poly, levels)
            assert np.abs(oracle - reference).max() <= (
                1e-13 * np.abs(reference).max())


def test_an_asymmetric_submesh_stiffness_raises_as_from_triplets_does(
        monkeypatch):
    # an entry's mirror made to differ by 1e-12 relative, past the 1e-14
    # that both allow. from_triplets names its worst summed entry; the
    # sub-mesh checks the fan kernels, so it names the first kernel's
    # K[0, 1] - K[1, 0] of largest magnitude
    def skewed(triangles):
        k = p1_stiffness(triangles)
        k[..., 0, 1] *= 1.0 + 1e-12
        return k

    sub = subtriangulate(PENTAGON, 2)
    kernels = skewed(_fan_triangles(sub))
    resid = kernels[:, 0, 1] - kernels[:, 1, 0]
    worst = resid[np.abs(resid).argmax()]
    monkeypatch.setattr(harmonic_fem, "p1_stiffness", skewed)
    with pytest.raises(AsymmetricMatrix,
                       match="^triplets are not symmetric "):
        _from_triplets(sub)
    with pytest.raises(AsymmetricMatrix) as got:
        harmonic_fem._submesh_stiffness(sub)
    assert str(got.value) == (
        f"triplets are not symmetric (residual {worst:.3e} "
        f"against max entry {np.abs(kernels).max():.3e})")


def _regular_polygon(n):
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


SOLVE_COUNT_CELLS = {
    **{n: _regular_polygon(n) for n in range(3, 9)},
    "hanging_node": ORACLE_CELLS[4],
    "side-in-16": ILL_SHAPED["side-in-16"],
}


@pytest.mark.parametrize("n", SOLVE_COUNT_CELLS)
def test_the_oracle_solves_one_lifting_fewer_than_it_has_hats(
        monkeypatch, n):
    # named for the rule it replaced, the last lifting as one minus the
    # others: now N - 3 hats are solved, and 1, x and y give the other
    # three, so a triangle solves none. Collinear runs (a hanging node,
    # a side in 16 pieces) still leave three hats that span a triangle
    calls = []

    def counted(A, b, tol, x0):
        calls.append(len(b))
        return cg_solve(A, b, tol, x0)

    poly = SOLVE_COUNT_CELLS[n]
    monkeypatch.setattr(harmonic_fem, "cg_solve", counted)
    harmonic_stiffness(poly, 2)
    assert len(calls) == max(len(poly) - 3, 0)


def _doubled_areas(local, triples):
    p, q, r = (local[list(t)].T for t in zip(*triples))
    return np.abs((q[0] - p[0]) * (r[1] - p[1])
                  - (q[1] - p[1]) * (r[0] - p[0]))


def test_the_fixed_hats_span_a_well_shaped_triangle():
    # at least half the area of the largest triangle on three vertices,
    # also with collinear runs; ties go to the lowest index
    for poly in ORACLE_CELLS + list(ILL_SHAPED.values()):
        local = poly - poly.mean(axis=0)
        largest = _doubled_areas(
            local, itertools.combinations(range(len(poly)), 3)).max()
        fixed = _doubled_areas(local, [harmonic_fem._fixed_hats(local)])
        assert fixed[0] >= 0.5 * largest
    assert harmonic_fem._fixed_hats(SQUARE - 0.5) == [0, 2, 1]


def _liftings(monkeypatch, poly, levels):
    """harmonic_stiffness(poly, levels), with its sub-mesh, whose trace
    holds the liftings on return."""
    subs = []

    def kept(poly, levels):
        subs.append(subtriangulate(poly, levels))
        return subs[-1]

    monkeypatch.setattr(harmonic_fem, "subtriangulate", kept)
    return harmonic_stiffness(poly, levels), subs[-1]


@pytest.mark.parametrize("levels", range(5))
def test_the_liftings_reproduce_1_x_and_y(monkeypatch, levels):
    # the fixed liftings make every interior node's sums exact, to
    # round-off of the cell's size, however far the solved liftings are
    # from their limits, and however far the cell is from the origin
    cells = ORACLE_CELLS + list(ILL_SHAPED.values())
    for poly in cells + [poly + 1e4 for poly in cells]:
        _, sub = _liftings(monkeypatch, poly, levels)
        interior = np.flatnonzero(~sub.boundary)
        centroid = sub.points[len(poly)]
        local = poly - centroid
        values = sub.trace[:, interior]
        scale = np.abs(local).max()
        assert np.abs(values.sum(axis=0) - 1.0).max() <= 1e-13
        assert np.abs(values.T @ local - (sub.points[interior] - centroid)
                      ).max() <= 1e-13 * scale


@pytest.mark.parametrize("levels", [2, 4])
def test_the_oracle_does_not_depend_on_where_the_cell_lies(levels):
    for poly in ORACLE_CELLS[:5]:
        near = harmonic_stiffness(poly, levels)
        far = harmonic_stiffness(poly + 1e4, levels)
        assert np.abs(far - near).max() <= 1e-10 * np.abs(near).max()


def _fan_linear_starts(sub, levels):
    """(N, M) fan-linear starts of the N hats at every sub-mesh node.
    Each node's barycentric coordinates in its fan triangle k (c, v_k,
    v_{k+1}), rounded to multiples of 1/m, m = 2**levels, give its
    lattice place (k, a, b); hat i's start there is (a [k = i] +
    b [k + 1 = i] + (m - a - b) w_i) / m, for the centroid weights
    w_i = (|T_{i-1}| + |T_i|) / (2 sum |T_k|) of the fan triangles."""
    n, m = len(sub.trace), 2 ** levels
    v = sub.points[:n] - sub.points[n]
    d = sub.points - sub.points[n]
    after = np.roll(v, -1, axis=0)

    def cross(p, q):
        return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]

    areas = cross(v, after)
    first = cross(d[:, None], after) / areas
    second = cross(v, d[:, None]) / areas
    k = np.argmax(np.minimum(np.minimum(first, second),
                             1.0 - first - second), axis=1)
    nodes = np.arange(len(d))
    a = np.rint(m * first[nodes, k])
    b = np.rint(m * second[nodes, k])
    w = (areas + np.roll(areas, 1)) / (2.0 * areas.sum())
    hats = np.arange(n)[:, None]
    return ((m - a - b) * w[:, None] + a * (k == hats)
            + b * ((k + 1) % n == hats)) / m


def _interior_guesses(poly, levels):
    """The sub-mesh of poly, its interior nodes, and the fan-linear
    starts of its N hats there as an (N, I) array."""
    sub = subtriangulate(poly, levels)
    interior = np.flatnonzero(~sub.boundary)
    return sub, interior, _fan_linear_starts(sub, levels)[:, interior]


def _solved_hats(poly):
    """The hats that harmonic_stiffness lifts by CG, in its order."""
    sub = subtriangulate(poly, 0)
    fixed = harmonic_fem._fixed_hats(sub.points[:len(poly)]
                                     - sub.points[len(poly)])
    return [i for i in range(len(poly)) if i not in fixed]


@pytest.mark.parametrize("levels", range(5))
def test_the_lifting_starts_are_fan_linear(monkeypatch, levels):
    # each solve starts from its hat's fan-linear start; the N starts sum
    # to 1, x and y at every node, equal the traces on the boundary, and
    # lie strictly between 0 and 1 inside
    starts = []

    def recorded(A, b, tol, x0):
        starts.append(x0.copy())
        return cg_solve(A, b, tol, x0)

    monkeypatch.setattr(harmonic_fem, "cg_solve", recorded)
    for poly in ORACLE_CELLS:
        starts.clear()
        harmonic_stiffness(poly, levels)
        sub = subtriangulate(poly, levels)
        interior = np.flatnonzero(~sub.boundary)
        full = _fan_linear_starts(sub, levels)
        hats = _solved_hats(poly)
        assert len(starts) == len(hats)
        for i, x0 in zip(hats, starts):
            assert np.array_equal(x0, full[i, interior])
        local = poly - sub.points[len(poly)]
        scale = np.abs(local).max()
        assert np.abs(full.sum(axis=0) - 1.0).max() <= 1e-13
        assert np.abs(full.T @ local - (sub.points - sub.points[len(poly)])
                      ).max() <= 1e-13 * scale
        assert np.array_equal(full[:, sub.boundary],
                              sub.trace[:, sub.boundary])
        inside = full[:, interior]
        assert inside.min() > 0.0 and inside.max() < 1.0


# a diamond with a cap at either end, centred on the origin. At level
# 0, vertex 4 and the centroid share no entry of the sub-mesh matrix, as
# both angles opposite their spoke are right angles, so hat 4's
# right-hand side is exactly 0. The far corners 2 and 6 and the cap 0
# are the fixed hats, so hat 4 is solved. (On a hexagon family cell both
# caps are the farthest vertices, and both are fixed.)
APEX_OCTAGON = np.array([[0.0, -1.0], [0.5, -0.5], [2.0, 0.0], [0.5, 0.5],
                         [0.0, 1.0], [-0.5, 0.5], [-2.0, 0.0], [-0.5, -0.5]])


def test_a_hat_with_a_zero_right_hand_side_gets_the_zero_lifting(monkeypatch):
    # its guess is not zero, and CG, given b = 0, returns zero at once
    # whatever its start
    calls = []

    def recorded(A, b, tol, x0):
        calls.append((b.copy(), tol, x0))
        return cg_solve(A, b, tol, x0)

    monkeypatch.setattr(harmonic_fem, "cg_solve", recorded)
    assert 4 in _solved_hats(APEX_OCTAGON)
    oracle, sub = _liftings(monkeypatch, APEX_OCTAGON, 0)
    _, interior, guesses = _interior_guesses(APEX_OCTAGON, 0)
    assert guesses[4, 0] > 0.0
    zero = [(tol, x0) for b, tol, x0 in calls if not b.any()]
    assert len(zero) == 1
    assert zero[0][0] == harmonic_fem._LIFTING_TOL
    assert np.array_equal(zero[0][1], guesses[4])
    assert np.array_equal(sub.trace[4, interior], np.zeros(1))
    reference = _per_hat_harmonic_stiffness(APEX_OCTAGON, 0)
    assert np.abs(oracle - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("levels", [2, 4])
def test_each_correction_stops_where_a_solve_from_zero_would(
        monkeypatch, levels):
    # CG gets each solved hat's own b, its guess as x0 and the lifting
    # tolerance, so its test |r| <= tol |b| is that of a solve from zero;
    # it takes as many iterations as a solve from zero for the correction,
    # on b' = b - A_II guess to the tolerance tol |b| / |b'|
    calls = []

    def recorded(A, b, tol, x0):
        calls.append((b.copy(), tol, x0.copy()))
        return cg_solve(A, b, tol, x0)

    monkeypatch.setattr(harmonic_fem, "cg_solve", recorded)
    for poly in ORACLE_CELLS[:5]:
        calls.clear()
        harmonic_stiffness(poly, levels)
        sub, interior, guesses = _interior_guesses(poly, levels)
        A = harmonic_fem._submesh_stiffness(sub)
        reduced = A.restrict(interior)
        hats = _solved_hats(poly)
        assert len(calls) == len(hats) == max(len(poly) - 3, 0)
        for (b, tol, x0), i in zip(calls, hats):
            assert np.array_equal(b, -(A @ sub.trace[i])[interior])
            assert np.array_equal(x0, guesses[i])
            assert tol == harmonic_fem._LIFTING_TOL
            residual = b - reduced @ x0
            nb, nr = np.linalg.norm(b), np.linalg.norm(residual)
            assert nr < nb
            assert (cg_solve(reduced, b, tol, x0).iterations
                    == cg_solve(reduced, residual, tol * nb / nr).iterations)


def test_the_oracle_cg_iterations_over_the_five_families(monkeypatch):
    # every cell of the five families at n=4, seed 7, level 4: 25,675
    # iterations for N - 1 solves from zero, 12,380 for N - 1 solves from
    # the mean value coordinates, 5,254 for N - 3 of them, and 4,627 for
    # N - 3 solves from the fan-linear starts
    iterations = []

    def counted(A, b, tol, x0):
        result = cg_solve(A, b, tol, x0)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(harmonic_fem, "cg_solve", counted)
    for family in FAMILIES:
        mesh = generate(MeshFamilySpec(family, 4, seed=7))
        for ci in range(mesh.n_cells):
            harmonic_stiffness(mesh.cell_vertices(ci), 4)
    assert sum(iterations) <= 4_800


def test_the_oracle_peak_memory_on_a_16_gon_at_level_5():
    # the peak, 5.14 MiB, is in a lifting's CG solve: its vectors and the
    # (nnz,) temporaries of each CSR product (the centroid's 17-entry row
    # rules out the padded copy), beside A, its interior part and the
    # liftings. The sub-mesh matrix's build peaks at 3.2 MiB. The starts
    # share one (M,) buffer, where (N, M) stacks of them would pass 6 MiB
    poly = _regular_polygon(16)
    harmonic_fem._plan(16, 5)
    assert traced_peak(lambda: harmonic_stiffness(poly, 5)) <= 6 * 2 ** 20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ILL_SHAPED)
def test_ill_shaped_cells_match_one_solve_per_hat(name):
    # tiny edges, a reflex corner and 16 collinear vertices: the starts
    # raise no numpy warning, and the matrix stays at round-off
    poly = ILL_SHAPED[name]
    reference = _per_hat_harmonic_stiffness(poly, 4)
    oracle = harmonic_stiffness(poly, 4)
    assert np.abs(oracle - reference).max() <= 1e-12 * np.abs(reference).max()


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
        f=lambda x, y: np.zeros_like(x))
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
