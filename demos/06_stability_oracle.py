"""
Measuring the element against harmonic liftings
===============================================

The element never builds its shape functions, but they exist: each
one extends a boundary hat harmonically into the cell. A P1 solve on
a refined sub-triangulation recovers them numerically, giving a
reference stiffness to compare against. Two things are measured: the
two matrices act identically on linear data (consistency), and their
generalized eigenvalues stay in a narrow band (stability).
"""

import numpy as np

from polyvem.element import build_element
from polyvem.geometry import cell_geometry
from polyvem.harmonic_fem import (
    harmonic_stiffness,
    stability_report,
    subtriangulate,
)
from polyvem.mesh import MeshFamilySpec, generate

pentagon = np.array(
    [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0]])

# the sub-triangulation fans from the centroid and refines 4-way
for levels in range(4):
    sub = subtriangulate(pentagon, levels)
    print(f"levels {levels}: {len(sub.points):4d} points, "
          f"{len(sub.triangles):4d} triangles")

el = build_element(cell_geometry(pentagon))
oracle = harmonic_stiffness(pentagon, levels=3)

np.set_printoptions(precision=4, suppress=True)
print("\nelement K:\n", el.K)
print("\nharmonic reference:\n", oracle)

# on a triangle the two coincide exactly; on a general polygon they
# differ only in how the nonpolynomial modes are weighted
sc = stability_report(pentagon, el.K, levels=3)
print(f"\npentagon spectral bounds: "
      f"[{sc.alpha_star_lower:.4f}, {sc.alpha_star_upper:.4f}]")

triangle = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
el_tri = build_element(cell_geometry(triangle))
sc_tri = stability_report(triangle, el_tri.K, levels=2)
print(f"triangle spectral bounds: "
      f"[{sc_tri.alpha_star_lower:.6f}, {sc_tri.alpha_star_upper:.6f}]")

# sweep a whole mesh: every cell stays inside a mild band
mesh = generate(MeshFamilySpec("hexagon", 4))
lows, highs = [], []
for ci in range(mesh.n_cells):
    verts = mesh.cell_vertices(ci)
    el_c = build_element(cell_geometry(verts))
    sc_c = stability_report(verts, el_c.K, levels=2)
    lows.append(sc_c.alpha_star_lower)
    highs.append(sc_c.alpha_star_upper)
print(f"\nhexagon mesh, {mesh.n_cells} cells: alpha_lower in "
      f"[{min(lows):.4f}, {max(lows):.4f}], alpha_upper in "
      f"[{min(highs):.4f}, {max(highs):.4f}]")
