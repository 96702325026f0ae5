import numpy as np
import pytest

from polyvem.errors import InvertedSubTriangle, NonPositiveArea, ZeroLengthEdge
from polyvem.geometry import cell_geometry, fan_quadrature

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

# irregular pentagon used as a fixture throughout the suite
PENTAGON = np.array([
    [0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0],
])


def test_unit_square_basics():
    g = cell_geometry(UNIT_SQUARE)
    assert g.area == pytest.approx(1.0, abs=1e-15)
    assert g.centroid == pytest.approx([0.5, 0.5], abs=1e-15)
    assert g.diameter == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_pentagon_exact_values():
    g = cell_geometry(PENTAGON)
    # hand shoelace: 2A = 0 + 6 + 7.5 + 3 + 0 = 16.5
    assert g.area == pytest.approx(8.25, abs=1e-13)
    # centroid sum (74.25, 69.75) / (6 * 8.25)
    assert g.centroid == pytest.approx([1.5, 31.0 / 22.0], abs=1e-13)
    assert g.diameter == pytest.approx(np.sqrt(14.5), abs=1e-13)


def test_translation_invariance():
    g = cell_geometry(PENTAGON + np.array([10.0, -7.0]))
    assert g.area == pytest.approx(8.25, abs=1e-12)
    assert g.centroid == pytest.approx(
        [11.5, 31.0 / 22.0 - 7.0], abs=1e-12)


def test_unit_square_edges():
    g = cell_geometry(UNIT_SQUARE)
    lengths, normals = g.edge_lengths, g.edge_normals
    assert lengths == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-15)
    expected = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(normals, expected, atol=1e-15)


def test_edge_normal_closure():
    # sum of length-weighted outward normals of a closed polygon vanishes
    g = cell_geometry(PENTAGON)
    lengths, normals = g.edge_lengths, g.edge_normals
    assert np.allclose((lengths[:, None] * normals).sum(axis=0), 0.0, atol=1e-13)
    assert np.allclose((normals ** 2).sum(axis=1), 1.0, atol=1e-14)


def test_clockwise_rejected():
    with pytest.raises(NonPositiveArea):
        cell_geometry(UNIT_SQUARE[::-1])


def test_collinear_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(NonPositiveArea):
        cell_geometry(flat)


def test_zero_length_edge_rejected():
    bad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroLengthEdge):
        cell_geometry(bad)


@pytest.mark.parametrize("order", [2, 4])
def test_quadrature_weights_sum_to_area(order):
    rule = fan_quadrature(PENTAGON, order=order)
    assert rule.weights.sum() == pytest.approx(8.25, abs=1e-12)
    assert np.all(rule.weights > 0)


def test_quadrature_point_counts():
    assert len(fan_quadrature(UNIT_SQUARE, order=2).points) == 12
    assert len(fan_quadrature(UNIT_SQUARE, order=4).points) == 24


def test_order2_exact_for_quadratics():
    rule = fan_quadrature(UNIT_SQUARE, order=2)
    assert rule.integrate(lambda x, y: x * x) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert rule.integrate(lambda x, y: x * y) == pytest.approx(0.25, abs=1e-14)


def test_constant_integrand():
    rule = fan_quadrature(PENTAGON, order=2)
    assert rule.integrate(lambda x, y: 1.0) == pytest.approx(8.25, abs=1e-12)
    assert rule.integrate(lambda x, y: 2) == pytest.approx(16.5, abs=1e-12)


def test_order4_exact_for_quartics():
    rule = fan_quadrature(UNIT_SQUARE, order=4)
    assert rule.integrate(lambda x, y: x ** 4 + y ** 4) == pytest.approx(0.4, abs=1e-13)
    assert rule.integrate(lambda x, y: x * x * y * y) == pytest.approx(1.0 / 9.0, abs=1e-13)


def test_quadrature_bad_order():
    # the batch's own check: fan_quadrature makes none of its own
    with pytest.raises(ValueError, match="^unsupported quadrature order 3"):
        fan_quadrature(UNIT_SQUARE, order=3)


def test_non_star_polygon_rejected():
    # staple: 3x3 square with a 1x2 notch; the centroid lands in the notch
    staple = np.array([
        [0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
        [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0],
    ])
    with pytest.raises(InvertedSubTriangle):
        fan_quadrature(staple, order=2)


def test_fan_quadrature_reports_a_zero_length_edge_as_cell_geometry_does():
    # vertex 2 repeats vertex 1; the fan triangle on edge 1 has no area
    poly = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    for build in (cell_geometry, fan_quadrature):
        with pytest.raises(ZeroLengthEdge, match="^edge 1 has zero length$"):
            build(poly)


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0], [1.0, 0.0]], [0.0, 1.0, 2.0], np.zeros((4, 3))])
def test_a_polygon_is_three_or_more_points_in_the_plane(vertices):
    with pytest.raises(ValueError, match="^polygon must be an"):
        cell_geometry(vertices)


def test_cell_geometry_bundle():
    g = cell_geometry(PENTAGON)
    assert len(g.vertices) == 5
    assert g.area == pytest.approx(8.25, abs=1e-13)
    assert g.diameter == pytest.approx(np.sqrt(14.5), abs=1e-13)
    assert len(g.edge_lengths) == 5
    assert g.edge_normals.shape == (5, 2)
