import hashlib
import json
import time

import numpy as np
import pytest

from polyvem.cli import main
from polyvem.errors import (
    IndexOutOfRange,
    ParseError,
    UnsupportedResolution,
    ValidationError,
)
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    PolygonalMesh,
    XorShift64Star,
    generate,
    read_json,
    to_json_text,
    validate,
    write_json,
)

from conftest import folded_fan, traced_peak


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
    assert len(m.edges) == 12
    assert m.boundary_vertex_flags.sum() == 8


def test_quad_n1_boundary():
    m = generate(MeshFamilySpec("quad", 1))
    assert np.flatnonzero(m.boundary_vertex_flags).tolist() == [0, 1, 2, 3]


def test_quad_center_is_interior():
    m = generate(MeshFamilySpec("quad", 2))
    inner = np.flatnonzero(~m.boundary_vertex_flags)
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
    bnd = set(np.flatnonzero(m.boundary_vertex_flags))
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
    from polyvem.geometry import cell_geometry
    total = sum(cell_geometry(m.cell_vertices(ci)).area
                for ci in range(m.n_cells))
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 41))
def test_hexagon_cells_are_exact_polygons(n):
    m = generate(MeshFamilySpec("hexagon", n))
    assert validate(m).ok
    groups = m.cell_groups()
    assert sum(geo.area.sum() for _, _, geo in groups) == pytest.approx(
        1.0, abs=1e-12)
    # vertices lie on the lattice of spacing 1/(2n): compare exactly there
    lattice = np.rint(m.vertices * (2 * n)).astype(np.int64)
    for _, loops, _ in groups:
        assert (loops != np.roll(loops, -1, axis=1)).all()
        p = lattice[loops]
        a, b = p - np.roll(p, 1, axis=1), np.roll(p, -1, axis=1) - p
        assert (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0] != 0).all()


def test_perturbed_boundary_fixed_and_seeded():
    a = generate(MeshFamilySpec("perturbed_quad", 4, seed=7))
    b = generate(MeshFamilySpec("perturbed_quad", 4, seed=7))
    c = generate(MeshFamilySpec("perturbed_quad", 4, seed=8))
    assert a == b
    assert a != c
    for vi in np.flatnonzero(a.boundary_vertex_flags):
        x, y = a.vertices[vi]
        assert min(x, y, 1 - x, 1 - y) == pytest.approx(0.0, abs=0)
    # interior vertices actually moved
    interior = np.flatnonzero(~a.boundary_vertex_flags)
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


def _pentagon(order):
    t = 2 * np.pi * np.arange(5) / 5
    return PolygonalMesh(np.column_stack([np.cos(t), np.sin(t)]), [order])


def test_validate_reports_cell_winding_twice():
    # every fan triangle of the pentagram is positive; it winds twice
    # about its centroid, so its area counts the inner pentagon twice
    assert validate(_pentagon([0, 1, 2, 3, 4])).ok
    assert validate(_pentagon([0, 2, 4, 1, 3])).violations == [
        "cell 0: fan winds more than once about the centroid; polygon is "
        "not star-shaped with respect to its centroid"]


def test_validate_reports_cells_folded_about_a_vertex():
    # each triangle is positive and each edge at vertex 0 is paired, but
    # the fan winds twice about vertex 0
    verts, cells = folded_fan()
    assert validate(PolygonalMesh(verts, cells)).violations == [
        "vertex 0: the corner angles of its cells sum to 4 pi, not 2 pi "
        "(the cells fold over it)"]
    once = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    assert validate(PolygonalMesh(verts[:7], once)).ok


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


def test_validate_reports_each_vertex_of_a_close_cluster_once():
    # four vertices around a bin corner of the close-vertex search, and a
    # fifth near two of them; vertex 9 shares their x-range but not y.
    # Each vertex is named once, with an earlier close partner from its
    # own bin first: 8 with 7, which shares its bin, not 1, which does not
    tol = 4e-12 * float(np.hypot(0.25, 0.25))
    b = tol * np.floor(0.5 / tol)
    d = 0.3 * tol
    verts = [[0.0, 0.0], [b + d, b - d], [1.0, 0.0], [b - d, b - d],
             [1.0, 1.0], [b - d, b + d], [0.0, 1.0], [b + d, b + d],
             [b + 3 * d, b + 0.5 * d], [0.5, 0.25]]
    cells = [[0, 2, 1], [2, 4, 3], [4, 6, 5], [6, 0, 7], [0, 9, 8]]
    pairs = [(1, 3), (3, 5), (3, 7), (7, 8)]
    assert validate(PolygonalMesh(verts, cells)).violations == [
        f"vertices {i} and {j}: closer than 1e-12 of the domain diameter"
        for i, j in pairs]


def test_many_coincident_vertices_cost_linear_time_and_a_short_message(
        tmp_path, capsys):
    # 10^4 unreferenced vertices on one point inside quad n=8: validate
    # names each once, and the CLI's message names the first few
    k = 10_000
    mesh = generate(MeshFamilySpec("quad", 8))
    crowded = PolygonalMesh(
        np.vstack([mesh.vertices, np.full((k, 2), 0.3)]), mesh.cells)
    start = time.perf_counter()
    report = validate(crowded)
    assert time.perf_counter() - start < 2.0
    assert len(report.violations) <= 2 * k
    path = tmp_path / "crowded.json"
    write_json(crowded, path)
    assert main(["run", "--mesh", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: vertex 81: not referenced by any cell; ")
    assert err.endswith(" more\n") and len(err.encode()) < 4096


def test_two_coincident_groups_in_one_bin_cost_linear_time():
    # two groups of m coincident vertices at opposite corners of one bin
    # of the close-vertex search, appended to quad n=8: a vertex of the
    # later group stops at its own predecessor, not after the m vertices
    # of the earlier group, which are all more than tol away
    m = 4000
    mesh = generate(MeshFamilySpec("quad", 8))
    tol = 4e-12 * float(np.hypot(0.25, 0.25))
    b = tol * np.floor(0.3 / tol)
    groups = np.repeat([[b + 0.01 * tol], [b + 0.99 * tol]], m, axis=0)
    crowded = PolygonalMesh(
        np.vstack([mesh.vertices, np.hstack([groups, groups])]), mesh.cells)
    start = time.perf_counter()
    report = validate(crowded)
    assert time.perf_counter() - start < 1.0
    assert len(report.violations) <= 4 * m


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


def test_read_json_drops_the_parsed_document_before_validating(tmp_path):
    # the text and the parsed lists are dead once the mesh holds its
    # arrays, so validation's own peak does not sit on top of them: about
    # 15 bytes per byte of the file, and about 23 if they are kept
    p = tmp_path / "hexagon.json"
    write_json(generate(MeshFamilySpec("hexagon", 64)), p)
    read_json(p)  # allocations that only a first call makes stay out
    assert traced_peak(lambda: read_json(p)) <= 18 * p.stat().st_size


def test_json_byte_determinism(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(generate(MeshFamilySpec("perturbed_quad", 4, seed=3)), p1)
    write_json(generate(MeshFamilySpec("perturbed_quad", 4, seed=3)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of to_json_text(generate(spec)). The vertex numbering (first
# appearance in cell order), the cell order and the xorshift64* draw order
# are part of the mesh-file contract, so these digests must never move.
# hanging_node has no odd n.
PINNED_MESH_DIGESTS = [
    (("quad", 2),
     "a8f4eb88129c5d7c6b04479e5c0c84de9ecb8ff0a351357ca87d919c420bc0d8"),
    (("quad", 3),
     "d61e9ce55e1c9649ea0991482e6d53dd99ff6a12f676a0169b1ef418d9f64d77"),
    (("quad", 8),
     "b0b020b7e174a03af9f389c7b6d2c120c977d27c55b1549521c648fca1d66733"),
    (("quad", 64),
     "d6b7a350bedacff0b8a9b6b0c70e5b8a7c3e4b41d24e7cb8e74a62f35fb51672"),
    (("quad", 128),
     "3b91a83fd0557fb9c1be7078fc99023b897c08caee9a7e7aacef55be4a02d192"),
    (("perturbed_quad", 2),
     "5cc398a241fde40ed376e4a1a7c817f713fab2c12bc229e1daa4fe69f94c0c47"),
    (("perturbed_quad", 3),
     "2e8c226780ae9e37d73245ab2d4c88092f8524f78b293eb187c99fd82f5a2970"),
    (("perturbed_quad", 8),
     "e50c136abf2de43dffe082f8c403fe28603eb3ad27a72775792d8f055a3428d2"),
    (("perturbed_quad", 64),
     "30dd4791e4af082efc9b1f28a573e67f9168d6e97d67271b16c83716a902964d"),
    (("perturbed_quad", 128),
     "e0e84780894bdd2a21eacc7fe8e0b338e73c98651201eddc9e0c5d3d0e8adda6"),
    (("perturbed_quad", 8, 0.25, 7),
     "5cf5f3066a595bb31683c37341984d1a37978881d99a7b76ea29d4c811ed0fa5"),
    (("perturbed_quad", 8, 0.25, 12345),
     "cf66dae43b7beadcb9cc8649a51ad8a9b83e376203d8e6e3d60d27a7ea2535da"),
    # no perturbation gives the plain quad mesh
    (("perturbed_quad", 8, 0.0),
     "b0b020b7e174a03af9f389c7b6d2c120c977d27c55b1549521c648fca1d66733"),
    (("perturbed_quad", 8, 0.49),
     "624bc16f685d4936d495a0598f5d95a43a6f0c07b8a1302f6f81ec844b27d8aa"),
    (("triangle", 2),
     "55dfafe8a32129b4ade1496a4d0607e6cf74db0f066b298142c20a8526734623"),
    (("triangle", 3),
     "32da87cc709658dc86d76cda81b9144985126b62bebfad5af3d37b077580a94d"),
    (("triangle", 8),
     "cab0cc6b874a1c967bfd26eedb120512b9eb82da990345a9f8b6db714611a8e6"),
    (("triangle", 64),
     "e4a4750d353c4471b65d663c315788a05b51dd3f31f825db13a26017b526d1e2"),
    (("hexagon", 2),
     "a4cf446d4f8b605b6b644987cc06f500d17e7329e06fb2d2df3eebdd2f2d2bed"),
    (("hexagon", 3),
     "fea7332e3a06dacd882c7ff9be1803305adc5118d43d35510ac864596c55619b"),
    # the top-row cuts depend on 2n mod 3 and the row lengths on n mod 2
    (("hexagon", 4),
     "8a63eddd96a7c2ca68917be71134e4d13fcf9572714dd1df72d7b5064ddf9842"),
    (("hexagon", 5),
     "fa7b12ab204a92e36af47b27912475038fcb231eaa85838c48ecf10a7929decc"),
    (("hexagon", 6),
     "f05e95e07a88be0fc0d13acc0ccc3aeb8732042d3048d4a8ec06d3e58ed5713f"),
    (("hexagon", 7),
     "56b81ce3041d0b08a8d707c7618861f0cd8a85d8b50bc70e92e6a8a288a73129"),
    (("hexagon", 8),
     "9427971c0d3af363789e3314b7f3041b45465d08b58e4bad32f5589d5e05cfa3"),
    (("hexagon", 9),
     "f75db75efbae7cba3c2f748ec39b84a061624eb186a2528140f0822fba98986e"),
    (("hexagon", 10),
     "b5c5895861f7f56df21b36435e86b5c96fcf45073f1e7332011e3e501cab4db7"),
    (("hexagon", 64),
     "e54f40368fdbb5ce1b4809a97a6c06b320b90544539b07d120f24e94ccfb5714"),
    (("hexagon", 128),
     "ac75097858373ef2f2429bb36e7e83d73011249081b9ae303a554003472a2796"),
    (("hanging_node", 2),
     "2d3060cfc4e90da94469198d22e5f7b683feef8f5a8ffe14f390e2bc3e49f1b4"),
    (("hanging_node", 8),
     "5019f6e1009eea9d80b494a2676ca2f3b6a001e9a6038ef1c82c449954533e2a"),
    (("hanging_node", 64),
     "d374be87dcb4555088c4f748f3bea3ba6118b6708f07c12333afe8b3471690e8"),
]


@pytest.mark.parametrize(
    "spec,digest", PINNED_MESH_DIGESTS,
    ids=["-".join(map(str, spec)) for spec, _ in PINNED_MESH_DIGESTS])
def test_generated_mesh_json_is_pinned(spec, digest):
    text = to_json_text(generate(MeshFamilySpec(*spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def _first_bad_entry(doc):
    """The ParseError message of read_json's entry checks, one entry at
    a time, or None."""
    number = (int, float)
    for k, p in enumerate(doc["vertices"]):
        if not (type(p) is list and len(p) == 2
                and type(p[0]) in number and type(p[1]) in number):
            return f"vertices[{k}] must be a pair of numbers"
    for k, loop in enumerate(doc["cells"]):
        if not (type(loop) is list and set(map(type, loop)) <= {int}):
            return f"cells[{k}] must be an array of integer indices"
    return None


_BAD_ENTRIES = [{}, 0, 1.5, "ab", None, True, [], [0], [0, 1, 2], [True, 0],
                [0, None], ["0", 1], [[0], 1], [0, [1]], [0, {}], [0.5, False]]


def test_json_entry_errors_name_the_first_bad_entry(tmp_path):
    good = json.loads(to_json_text(generate(MeshFamilySpec("quad", 2))))
    docs = []
    for bad in _BAD_ENTRIES:
        for at in (0, 4, 8):
            verts = [list(v) for v in good["vertices"]]
            verts[at] = bad
            docs.append({"vertices": verts, "cells": good["cells"]})
            for k in (0, 3):
                cells = [list(c) for c in good["cells"]]
                cells[k] = [bad] if at == 0 else bad
                docs.append({"vertices": good["vertices"], "cells": cells})
                docs.append({"vertices": verts, "cells": cells})
    p = tmp_path / "bad.json"
    checked = 0
    for doc in docs:
        want = _first_bad_entry(doc)
        p.write_text(json.dumps(doc))
        if want is None:
            continue
        with pytest.raises(ParseError) as got:
            read_json(p)
        assert str(got.value) == want
        checked += 1
    assert checked > len(docs) // 2


def test_json_rejects_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"vertices": [], "cells": [], "by": "\xe9"}')
    with pytest.raises(ParseError, match=r"^byte 37: not UTF-8"):
        read_json(p)


def test_json_rejects_bad_index(tmp_path):
    p = tmp_path / "oob.json"
    p.write_text('{"vertices": [[0,0],[1,0],[0,1]], "cells": [[0,1,5]]}')
    with pytest.raises(ValidationError):
        read_json(p)


@pytest.mark.parametrize("index", ["9" * 20, "-" + "9" * 20])
def test_json_rejects_index_beyond_int64(tmp_path, index):
    # reported like any other bad index, not as an OverflowError
    p = tmp_path / "huge_index.json"
    p.write_text('{"vertices": [[0,0],[1,0],[0,1]], '
                 '"cells": [[0,1,2],[0,1,%s]]}' % index)
    with pytest.raises(ValidationError,
                       match=r"cell 1 references a vertex outside \[0, 3\)"):
        read_json(p)


_SQUARE_FAN_VERTICES = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
_SQUARE_FAN = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]


@pytest.mark.parametrize("cells,flat,sizes,violations", [
    (_SQUARE_FAN, [0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4], [3, 3, 3, 3], []),
    ([np.array(c) for c in _SQUARE_FAN],
     [0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4], [3, 3, 3, 3], []),
    ([np.array([0, 1, 4]), [1, 2, 4], (2, 3, 4), np.array([3, 0, 4])],
     [0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4], [3, 3, 3, 3], []),
    (np.array(_SQUARE_FAN),
     [0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4], [3, 3, 3, 3], []),
    ((c for c in _SQUARE_FAN),
     [0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 0, 4], [3, 3, 3, 3], []),
    ([[0, 1, 2, 3], []], [0, 1, 2, 3], [4, 0],
     ["cell 1: fewer than 3 distinct vertices",
      "vertex 4: not referenced by any cell"]),
    ([], [], [], [f"vertex {vi}: not referenced by any cell"
                  for vi in range(5)]),
    # vertex counts 3 and 6 only, with no 4- or 5-vertex cell between
    ([[0, 1, 4], [1, 2, 4, 3, 0, 4], [3, 0, 4], [2, 3, 4]],
     [0, 1, 4, 1, 2, 4, 3, 0, 4, 3, 0, 4, 2, 3, 4], [3, 6, 3, 3],
     ["cell 1: fan triangle at edge 1 is inverted; polygon is not "
      "star-shaped with respect to its centroid",
      "edge (0,3): traversed in the same direction twice",
      "edge (0,4): incident to 3 cells (non-manifold)",
      "edge (3,4): incident to 3 cells (non-manifold)"]),
], ids=["lists", "arrays", "mixed", "T-by-3-array", "generator",
        "empty-loop", "no-cells", "triangles-and-a-hexagon"])
def test_constructor_accepts_loop_forms(cells, flat, sizes, violations):
    m = PolygonalMesh(_SQUARE_FAN_VERTICES, cells)
    assert m._flat.dtype == np.int64 and m._flat.tolist() == flat
    assert m._sizes.tolist() == sizes and m.n_cells == len(sizes)
    assert [c.tolist() for c in m.cells] == [
        flat[s:s + n] for s, n in zip(np.cumsum([0] + sizes), sizes)]
    assert m.cells is m.cells
    # one group per vertex count that occurs, in ascending count, each
    # with its cells in ascending order
    groups = m.cell_groups()
    assert [loops.shape[1] for _, loops, _ in groups] == sorted(set(sizes))
    for ids, loops, _ in groups:
        assert ids.tolist() == [ci for ci, n in enumerate(sizes)
                                if n == loops.shape[1]]
        assert loops.tolist() == [m.cells[ci].tolist() for ci in ids]
    assert validate(m).violations == violations


@pytest.mark.parametrize("cells,ci", [
    ([[0, 1, 2], [0, 1, 9]], 1),
    ([[0, 1, 2], [], [0, 1, -1]], 2),
    ([[], [5, 0, 1]], 1),
    ([[0, 1, 2], [0, 1, 2**70]], 1),
    ([[0, 1, -2**70], [0, 1, 9]], 0),
])
def test_constructor_names_cell_with_bad_index(cells, ci):
    with pytest.raises(IndexOutOfRange, match=(
            f"^cell {ci} references a vertex outside \\[0, 5\\)$")):
        PolygonalMesh(_SQUARE_FAN_VERTICES, cells)


def test_cells_are_read_only_views_of_one_array():
    m = generate(MeshFamilySpec("hanging_node", 2))
    assert all(c.base is not None and not c.flags.writeable for c in m.cells)
    with pytest.raises(ValueError):
        m.cells[0][0] = 1


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
