"""One rule for a bad cell: CellBatch decides each geometric fault, and
read_json/validate, solve, cell_geometry, fan_quadrature and
subtriangulate report it with the same class and the same text, solve
and validate behind a "cell k: " prefix."""

import numpy as np
import pytest

from polyvem.element import build_element
from polyvem.errors import (
    InvertedSubTriangle,
    NonPositiveArea,
    SingularG,
    ValidationError,
    ZeroLengthEdge,
)
from polyvem.geometry import cell_geometry, fan_quadrature
from polyvem.harmonic_fem import subtriangulate
from polyvem.mesh import PolygonalMesh, read_json, validate, write_json
from polyvem.solver import patch_problem, solve

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
# the square with a second copy of its corner (1, 0) as vertex 4
SQUARE_AND_COPY = SQUARE + [[1.0, 0.0]]
STAPLE = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
          [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]]
_T = 2 * np.pi * np.arange(5) / 5
PENTAGON = np.column_stack([np.cos(_T), np.sin(_T)]).tolist()

NOT_STAR = "polygon is not star-shaped with respect to its centroid"
AREA = "vertices must be counterclockwise and non-degenerate"

# (vertices, loop, class, text, whether the fault is the fan's)
CASES = {
    "clockwise": (SQUARE, [0, 3, 2, 1], NonPositiveArea,
                  f"signed area -1.000e+00 is not positive; {AREA}", False),
    "coincident": (SQUARE_AND_COPY, [0, 1, 4, 2, 3], ZeroLengthEdge,
                   "edge 1 has zero length", False),
    "staple": (STAPLE, list(range(8)), InvertedSubTriangle,
               f"fan triangle at edge 3 is inverted; {NOT_STAR}", True),
    "pentagram": (PENTAGON, [0, 2, 4, 1, 3], InvertedSubTriangle,
                  f"fan winds more than once about the centroid; {NOT_STAR}",
                  True),
    # clockwise and with a zero-length edge: the edge is checked first
    "edge-before-area": (SQUARE_AND_COPY, [0, 3, 2, 1, 4], ZeroLengthEdge,
                         "edge 3 has zero length", False),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", CASES)
def test_every_path_reports_a_bad_cell_in_the_same_words(case, tmp_path):
    vertices, loop, kind, text, fan_fault = CASES[case]
    mesh = PolygonalMesh(vertices, [loop])
    poly = mesh.cell_vertices(0)
    for one_cell in (fan_quadrature, lambda p: subtriangulate(p, 1)):
        with pytest.raises(kind) as got:
            one_cell(poly)
        assert str(got.value) == text
    if fan_fault:  # the element needs no fan
        cell_geometry(poly)
    else:
        with pytest.raises(kind) as got:
            cell_geometry(poly)
        assert str(got.value) == text
    with pytest.raises(kind) as got:
        solve(mesh, patch_problem())
    assert str(got.value) == f"cell 0: {text}"
    cell_lines = [v for v in validate(mesh).violations
                  if v.startswith("cell")]
    assert cell_lines == [f"cell 0: {text}"]
    path = tmp_path / "cell.json"
    write_json(mesh, path)
    with pytest.raises(ValidationError) as got:
        read_json(path)
    assert str(got.value).startswith(f"cell 0: {text}")


def test_solve_checks_edges_area_g_then_the_fan():
    # the staple flattened to a thousandth of a millionth of its height:
    # edges and area pass, G is singular, and the fan is still inverted
    poly = np.array(STAPLE) * [1.0, 1e-9]
    mesh = PolygonalMesh(poly, [list(range(8))])
    fan = f"fan triangle at edge 3 is inverted; {NOT_STAR}"
    with pytest.raises(InvertedSubTriangle, match=f"^{fan}$"):
        fan_quadrature(poly)
    with pytest.raises(SingularG) as one_cell:
        build_element(cell_geometry(poly))
    with pytest.raises(SingularG) as got:
        solve(mesh, patch_problem())
    assert str(got.value) == f"cell 0: {one_cell.value}"
    # validate builds no elements, so it names the fan
    assert validate(mesh).violations == [f"cell 0: {fan}"]
