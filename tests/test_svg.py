import numpy as np

from polyvem.mesh import MeshFamilySpec, generate
from polyvem.svg import COLOR_TABLE, mesh_scene, value_color


def test_color_table_shape():
    assert len(COLOR_TABLE) == 256
    assert COLOR_TABLE[0] == (68, 1, 84)
    assert COLOR_TABLE[255] == (253, 231, 37)
    assert all(len(c) == 3 for c in COLOR_TABLE)
    flat = [ch for c in COLOR_TABLE for ch in c]
    assert min(flat) >= 0 and max(flat) <= 255


def test_value_color_endpoints():
    assert value_color(0.0, 0.0, 1.0) == COLOR_TABLE[0]
    assert value_color(1.0, 0.0, 1.0) == COLOR_TABLE[255]
    assert value_color(0.999999, 0.0, 1.0) == COLOR_TABLE[255]
    assert value_color(-5.0, 0.0, 1.0) == COLOR_TABLE[0]  # clamped
    assert value_color(7.0, 0.0, 1.0) == COLOR_TABLE[255]
    # constant fields take the middle entry
    assert value_color(3.0, 3.0, 3.0) == COLOR_TABLE[128]


def test_wireframe_scene_geometry():
    mesh = generate(MeshFamilySpec("quad", 1))
    scene = mesh_scene(mesh, size=640.0)
    assert scene.width == 640.0 and scene.height == 640.0
    assert len(scene.paths) == 1
    points, fill = scene.paths[0]
    assert fill is None
    # unit square maps to 20 px margins, y axis flipped
    assert sorted(map(tuple, points)) == [
        (20.0, 20.0), (20.0, 620.0), (620.0, 20.0), (620.0, 620.0)]


def test_filled_scene_and_svg_text():
    mesh = generate(MeshFamilySpec("quad", 2))
    values = np.array([0.0, 1.0, 1.0, 2.0])
    scene = mesh_scene(mesh, values, colorbar=True)
    assert scene.colorbar == (0.0, 2.0)
    assert scene.width == 720.0  # extra room for the bar
    fills = [fill for _, fill in scene.paths]
    assert fills[0] == COLOR_TABLE[0]
    assert fills[3] == COLOR_TABLE[255]
    assert fills[1] == fills[2] == COLOR_TABLE[128]
    text = scene.to_svg()
    assert text.startswith("<svg ")
    assert text.count("<path ") == 4
    assert text == scene.to_svg()  # rendering is pure


def test_svg_bytes_stable():
    mesh = generate(MeshFamilySpec("hexagon", 3))
    a = mesh_scene(mesh, size=480.0).to_svg()
    b = mesh_scene(generate(MeshFamilySpec("hexagon", 3)), size=480.0).to_svg()
    assert a == b
