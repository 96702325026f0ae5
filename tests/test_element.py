import re

import numpy as np
import pytest

from polyvem.element import (
    ElementBatch,
    _monomials,
    build_element,
    consistency_check,
)
from polyvem.errors import SingularG
from polyvem.geometry import cell_geometry
from polyvem.linalg import dense_sym_eigen
from polyvem.mesh import PolygonalMesh
from polyvem.solver import ManufacturedProblem, _assemble_parts

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([
    [0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0],
])
L_SHAPE = np.array([
    [0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0],
])
RIGHT_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_basis_at_centroid():
    g = cell_geometry(UNIT_SQUARE)
    # the monomials at the centroid and one unit step along x and along y
    steps = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    D = _monomials(g.centroid + steps, g.centroid, np.asarray(g.diameter))
    assert D[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    grads = (D[1:] - D[0]).T
    expected = np.array(
        [[0.0, 0.0], [1.0 / np.sqrt(2.0), 0.0], [0.0, 1.0 / np.sqrt(2.0)]])
    assert np.allclose(grads, expected, atol=1e-15)


def test_matrix_D_unit_square():
    g = cell_geometry(UNIT_SQUARE)
    D = build_element(g).D
    a = 0.5 / np.sqrt(2.0)
    assert D[0] == pytest.approx([1.0, -a, -a], abs=1e-15)
    assert np.allclose(D[:, 0], 1.0, atol=0)
    expected = np.array([[1, -a, -a], [1, a, -a], [1, a, a], [1, -a, a]])
    assert np.allclose(D, expected, atol=1e-15)


def test_matrix_B_unit_square():
    B = build_element(cell_geometry(UNIT_SQUARE)).B
    s = 1.0 / (2.0 * np.sqrt(2.0))
    assert np.allclose(B[0], 0.25, atol=0)
    assert B[1] == pytest.approx(np.array([-1, 1, 1, -1]) * s, abs=1e-15)
    assert B[2] == pytest.approx(np.array([-1, -1, 1, 1]) * s, abs=1e-15)


def test_matrix_B_row_sums():
    for poly in (UNIT_SQUARE, PENTAGON, L_SHAPE):
        B = build_element(cell_geometry(poly)).B
        assert B[0].sum() == pytest.approx(1.0, abs=1e-14)
        assert B[1].sum() == pytest.approx(0.0, abs=1e-14)
        assert B[2].sum() == pytest.approx(0.0, abs=1e-14)


def test_G_unit_square():
    el = build_element(cell_geometry(UNIT_SQUARE))
    assert np.allclose(el.G, np.diag([1.0, 0.5, 0.5]), atol=1e-14)
    assert np.allclose(el.G_tilde, np.diag([0.0, 0.5, 0.5]), atol=1e-14)


def test_G_equals_BD():
    for poly in (PENTAGON, L_SHAPE):
        el = build_element(cell_geometry(poly))
        assert np.allclose(el.G, el.B @ el.D, atol=1e-14)


def test_projector_reproduces_linears():
    for poly in (UNIT_SQUARE, PENTAGON, L_SHAPE):
        el = build_element(cell_geometry(poly))
        assert np.allclose(el.Pi_star @ el.D, np.eye(3), atol=1e-13)


def test_projector_idempotent():
    el = build_element(cell_geometry(PENTAGON))
    assert np.abs(el.Pi @ el.Pi - el.Pi).max() <= 1e-12


def test_triangle_projection_is_identity():
    el = build_element(cell_geometry(RIGHT_TRIANGLE))
    assert np.allclose(el.Pi, np.eye(3), atol=1e-13)


def test_triangle_stiffness_frozen():
    # hand P1 computation on the unit right triangle
    expected = np.array([
        [1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    for policy in ("unit", "trace"):
        el = build_element(cell_geometry(RIGHT_TRIANGLE), nu_policy=policy)
        assert np.allclose(el.K, expected, atol=1e-13)


def test_unit_square_stiffness_frozen():
    # consistency part 0.25(ss^T + tt^T), s=(-1,1,1,-1), t=(-1,-1,1,1),
    # plus hourglass stabilization 0.25 zz^T, z=(1,-1,1,-1)
    expected = 0.25 * (4.0 * np.eye(4) - np.ones((4, 4)))
    el = build_element(cell_geometry(UNIT_SQUARE))
    assert np.allclose(el.K, expected, atol=1e-13)
    assert el.nu == 1.0


def test_trace_policy_square():
    el = build_element(cell_geometry(UNIT_SQUARE), nu_policy="trace")
    # trace of the consistency part is 2, so the coefficient is again 1
    assert el.nu == pytest.approx(1.0, abs=1e-13)


def test_bad_policy():
    with pytest.raises(ValueError):
        build_element(cell_geometry(UNIT_SQUARE), "foo")


def test_stiffness_kernel_and_spectrum():
    for poly in (UNIT_SQUARE, PENTAGON, L_SHAPE):
        el = build_element(cell_geometry(poly))
        N = len(poly)
        nrm = np.linalg.norm(el.K)
        assert np.abs(el.K - el.K.T).max() <= 1e-12 * nrm
        assert np.abs(el.K @ np.ones(N)).max() <= 1e-12 * nrm
        w = dense_sym_eigen(el.K)
        assert w[0] >= -1e-12 * nrm
        assert np.sum(np.abs(w) > 1e-10 * nrm) == N - 1


def test_consistency_part_rank_two():
    for poly in (UNIT_SQUARE, PENTAGON, L_SHAPE):
        el = build_element(cell_geometry(poly))
        Kc = el.Pi_star.T @ el.G_tilde @ el.Pi_star
        w = dense_sym_eigen(Kc)
        assert np.sum(np.abs(w) > 1e-10 * np.linalg.norm(Kc)) == 2


def test_consistency_check_small():
    for poly in (UNIT_SQUARE, PENTAGON, L_SHAPE):
        el = build_element(cell_geometry(poly))
        assert (consistency_check(el.K, el.D, el.B)
                <= 1e-12 * np.linalg.norm(el.K))


def test_consistency_immune_to_stabilization():
    el = build_element(cell_geometry(PENTAGON))
    D, B = el.D, el.B
    R = np.eye(len(D)) - el.Pi
    K_doubled = el.K + R.T @ R  # stabilization coefficient 2 instead of 1
    r1 = consistency_check(el.K, D, B)
    r2 = consistency_check(K_doubled, D, B)
    assert abs(r1 - r2) <= 1e-13 * np.linalg.norm(el.K)


def _projected_gradient(g, dofs):
    """Gradient of the energy projection in physical coordinates."""
    return build_element(g).Pi_star[1:] @ dofs / g.diameter


def test_average_gradient_linear_fields():
    for poly in (UNIT_SQUARE, L_SHAPE):
        g = cell_geometry(poly)
        gx = _projected_gradient(g, poly[:, 0])
        assert gx == pytest.approx([1.0, 0.0], abs=1e-13)
        gc = _projected_gradient(g, np.full(len(poly), 3.25))
        assert gc == pytest.approx([0.0, 0.0], abs=1e-13)


def test_average_gradient_matches_projector():
    # the cell average of the gradient, (1/|P|) sum_i ((v_i + v_{i+1})/2)
    # |E_i| n_i by the divergence theorem, is the projected gradient
    g = cell_geometry(PENTAGON)
    rng = np.random.default_rng(5)
    dofs = rng.standard_normal(5)
    vbar = 0.5 * (dofs + np.roll(dofs, -1))
    average = (vbar * g.edge_lengths) @ g.edge_normals / g.area
    assert _projected_gradient(g, dofs) == pytest.approx(average, abs=1e-13)


def test_local_load_values():
    # each vertex of a one-cell mesh gets an equal share of the integral
    mesh = PolygonalMesh(UNIT_SQUARE, [[0, 1, 2, 3]])

    def load(f):
        problem = ManufacturedProblem("load", u=None, grad_u=None, f=f)
        return _assemble_parts(mesh, problem, "unit", 2)[1]

    assert load(lambda x, y: np.ones_like(x)) == pytest.approx(
        [0.25] * 4, abs=1e-14)
    assert load(lambda x, y: np.zeros_like(x)) == pytest.approx(
        [0.0] * 4, abs=0)
    assert load(lambda x, y: x) == pytest.approx([0.125] * 4, abs=1e-14)


def test_translation_invariance():
    g0 = cell_geometry(PENTAGON)
    el0 = build_element(g0)
    shifted = PENTAGON + np.array([3.7, -1.2])
    g1 = cell_geometry(shifted)
    el1 = build_element(g1)
    assert np.abs(el0.D[:, 1:] - el1.D[:, 1:]).max() <= 1e-12
    assert np.abs(el0.B - el1.B).max() <= 1e-12
    assert np.abs(el0.G - el1.G).max() <= 1e-12
    assert np.abs(el0.K - el1.K).max() <= 1e-12


def test_scaling_covariance():
    el0 = build_element(cell_geometry(PENTAGON))
    el1 = build_element(cell_geometry(2.5 * PENTAGON))
    assert np.abs(el0.K - el1.K).max() <= 1e-12


def test_singular_G_detected():
    g = cell_geometry(UNIT_SQUARE)
    el = build_element(g)
    D = el.D.copy()
    D[:, 2] = D[:, 1]  # duplicate monomial column makes G rank deficient
    batch = ElementBatch(D[None], el.B[None])
    assert batch.singular[0]
    error = batch.g_error(0)
    assert isinstance(error, SingularG)
    # vertices and centroid moved onto the line y = x give build_element
    # that same D (the edges, and so B, are kept)
    g.vertices = g.vertices[:, [0, 0]]
    g.centroid = g.centroid[[0, 0]]
    with pytest.raises(SingularG, match=f"^{re.escape(str(error))}$"):
        build_element(g)
