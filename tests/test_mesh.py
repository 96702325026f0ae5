import numpy as np
import pytest

from polyvem.errors import (
    ParseError,
    UnsupportedResolution,
    ValidationError,
)
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    PolygonalMesh,
    XorShift64Star,
    boundary_vertices,
    generate,
    read_json,
    validate,
    write_json,
)


def test_xorshift_reference_stream():
    # first outputs of the documented recurrence, frozen from an
    # independent uint64 implementation
    rng = XorShift64Star(1)
    assert rng.next_u64() == 0x47E4CE4B896CDD1D
    assert rng.next_u64() == 0xABCFA6A8E079651D
    assert rng.next_u64() == 0xB9D10D8FEB731F57


def test_xorshift_zero_seed_replaced():
    rng = XorShift64Star(0)
    assert rng.next_u64() == 0x0D83B3E29A21487A


def test_xorshift_uniform_range():
    rng = XorShift64Star(42)
    assert rng.uniform() == pytest.approx(0.33908526400192196, abs=0)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_quad_counts():
    m = generate(MeshFamilySpec("quad", 2))
    assert m.n_vertices == 9
    assert m.n_cells == 4
    assert m.n_edges == 12
    assert len(boundary_vertices(m)) == 8


def test_quad_n1_boundary():
    m = generate(MeshFamilySpec("quad", 1))
    assert sorted(boundary_vertices(m)) == [0, 1, 2, 3]


def test_quad_center_is_interior():
    m = generate(MeshFamilySpec("quad", 2))
    inner = [vi for vi in range(9) if vi not in boundary_vertices(m)]
    assert len(inner) == 1
    assert m.vertices[inner[0]] == pytest.approx([0.5, 0.5])


def test_triangle_counts():
    m = generate(MeshFamilySpec("triangle", 1))
    assert m.n_vertices == 4
    assert m.n_cells == 2


def test_hanging_node_structure():
    m = generate(MeshFamilySpec("hanging_node", 2))
    # hand enumeration: 4 refined subcells, 2 pentagon parents, 1 plain quad
    assert m.n_cells == 7
    assert m.n_vertices == 14
    sizes = sorted(len(c) for c in m.cells)
    assert sizes == [4, 4, 4, 4, 4, 5, 5]


def test_hanging_node_boundary_midpoints():
    m = generate(MeshFamilySpec("hanging_node", 2))
    bnd = set(boundary_vertices(m))
    coords = [tuple(m.vertices[vi]) for vi in bnd]
    assert (0.25, 0.0) in coords
    assert (0.0, 0.25) in coords


def test_hexagon_n2():
    m = generate(MeshFamilySpec("hexagon", 2))
    assert m.n_cells == 5
    assert validate(m).ok


def test_hexagon_requires_n2():
    with pytest.raises(UnsupportedResolution):
        generate(MeshFamilySpec("hexagon", 1))


def test_hanging_node_requires_even():
    with pytest.raises(UnsupportedResolution):
        generate(MeshFamilySpec("hanging_node", 3))


def test_unknown_family():
    with pytest.raises(ValueError):
        generate(MeshFamilySpec("voronoi", 4))


def test_bad_perturbation():
    with pytest.raises(ValueError):
        generate(MeshFamilySpec("perturbed_quad", 4, perturbation=0.5))


@pytest.mark.parametrize("family,n", [
    ("quad", 4), ("perturbed_quad", 4), ("triangle", 4),
    ("hexagon", 2), ("hexagon", 5), ("hanging_node", 2), ("hanging_node", 4),
])
def test_families_validate_and_tile(family, n):
    m = generate(MeshFamilySpec(family, n))
    assert validate(m).ok
    from polyvem.geometry import polygon_area
    total = sum(polygon_area(m.cell_vertices(ci)) for ci in range(m.n_cells))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_perturbed_boundary_fixed_and_seeded():
    a = generate(MeshFamilySpec("perturbed_quad", 4, seed=7))
    b = generate(MeshFamilySpec("perturbed_quad", 4, seed=7))
    c = generate(MeshFamilySpec("perturbed_quad", 4, seed=8))
    assert a == b
    assert a != c
    for vi in boundary_vertices(a):
        x, y = a.vertices[vi]
        assert min(x, y, 1 - x, 1 - y) == pytest.approx(0.0, abs=0)
    # interior vertices actually moved
    interior = [vi for vi in range(a.n_vertices)
                if vi not in boundary_vertices(a)]
    ref = generate(MeshFamilySpec("quad", 4))
    moved = np.abs(a.vertices[interior] - ref.vertices[interior]).max()
    assert 0 < moved <= 0.25 / 4


def test_refinement_halves_diameter():
    for family in ("quad", "triangle"):
        h1 = generate(MeshFamilySpec(family, 3)).max_diameter()
        h2 = generate(MeshFamilySpec(family, 6)).max_diameter()
        assert abs(h2 - 0.5 * h1) <= 1e-14


def test_validate_reports_clockwise_cell():
    m = generate(MeshFamilySpec("quad", 2))
    cells = [list(c) for c in m.cells]
    cells[1] = cells[1][::-1]
    bad = PolygonalMesh(m.vertices, cells)
    report = validate(bad)
    assert not report.ok
    assert any("cell 1" in v and "area" in v for v in report.violations)


def test_validate_reports_nonmanifold_edge():
    # three triangles glued to one edge
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 1.0]]
    cells = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    report = validate(PolygonalMesh(verts, cells))
    assert any("non-manifold" in v for v in report.violations)


def test_validate_reports_duplicate_vertices():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0 + 1e-15, 1.0]]
    cells = [[0, 1, 2], [0, 2, 3]]
    report = validate(PolygonalMesh(verts, cells))
    assert any("closer than" in v for v in report.violations)


def test_validate_reports_orphan_vertex():
    verts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [5.0, 5.0]]
    report = validate(PolygonalMesh(verts, [[0, 1, 2]]))
    assert any("vertex 3" in v for v in report.violations)


def test_json_round_trip(tmp_path):
    for spec in (MeshFamilySpec("quad", 2),
                 MeshFamilySpec("perturbed_quad", 3, seed=5),
                 MeshFamilySpec("hexagon", 3)):
        m = generate(spec)
        p = tmp_path / f"{spec.family}.json"
        write_json(m, p)
        assert read_json(p) == m


def test_json_byte_determinism(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(generate(MeshFamilySpec("perturbed_quad", 4, seed=3)), p1)
    write_json(generate(MeshFamilySpec("perturbed_quad", 4, seed=3)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        read_json(p)
    p.write_text('{"vertices": [[0, 0]]}')
    with pytest.raises(ParseError, match="cells"):
        read_json(p)
    p.write_text('{"vertices": [[0, 0], [1]], "cells": []}')
    with pytest.raises(ParseError, match=r"vertices\[1\]"):
        read_json(p)


def test_json_rejects_bad_index(tmp_path):
    p = tmp_path / "oob.json"
    p.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": [[0,1,5]]}')
    with pytest.raises(ValidationError):
        read_json(p)


def test_json_rejects_degenerate_cell(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text(
        '{"vertices": [[0,0],[0.5,0],[1,0]], "cells": [[0,1,2]]}')
    with pytest.raises(ValidationError, match="area"):
        read_json(p)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_non_finite_coordinates(tmp_path, bad):
    p = tmp_path / "nan.json"
    p.write_text('{"vertices": [[0,0],[1,0],[1,%s],[0,1]], '
                 '"cells": [[0,1,2,3]]}' % bad)
    with pytest.raises(ValidationError, match="vertex 2 has a non-finite"):
        read_json(p)


def test_json_rejects_coordinates_beyond_float_range(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text('{"vertices": [[0,0],[1,0],[1,%s],[0,1]], '
                 '"cells": [[0,1,2,3]]}' % ("9" * 400))
    with pytest.raises(ValidationError, match="vertex 2 .* too large"):
        read_json(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [
    pytest.param(lambda v: v * 1e300, id="1e300"),
    # the bounding box spans more than the largest float
    pytest.param(lambda v: (2 * v - 1) * 1.5e308, id="pm1.5e308"),
])
def test_json_huge_coordinates_report_no_close_vertices(tmp_path, scale):
    # the closeness tolerance scales with the bounding box diagonal,
    # which must not overflow for coordinates near 1e300
    mesh = generate(MeshFamilySpec("quad", 2))
    p = tmp_path / "scaled.json"
    write_json(PolygonalMesh(scale(mesh.vertices), mesh.cells), p)
    with pytest.raises(ValidationError) as info:
        read_json(p)
    assert "closer than" not in str(info.value)


def test_mesh_rejects_non_finite_coordinates():
    with pytest.raises(ValidationError, match="vertex 1"):
        PolygonalMesh([[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def test_json_ignores_unknown_keys(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": [[0,1,2]],'
                 ' "comment": "hi"}')
    m = read_json(p)
    assert m.n_cells == 1


def test_families_tuple():
    assert FAMILIES == ("quad", "perturbed_quad", "triangle",
                        "hexagon", "hanging_node")
