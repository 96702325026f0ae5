"""
Polygon geometry: areas, centroids, diameters, quadrature
=========================================================

Every quantity the element needs from a cell comes from a handful of
closed-form polygon formulas plus a fan quadrature rule. This script
walks through them on a square and on an irregular pentagon.
"""

import numpy as np

from polyvem.geometry import cell_geometry, fan_quadrature

square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
pentagon = np.array(
    [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0]])

for name, poly in (("unit square", square), ("pentagon", pentagon)):
    g = cell_geometry(poly)
    print(name)
    print("  area     ", g.area)
    print("  centroid ", g.centroid)
    print("  diameter ", g.diameter)

# the geometry bundle also carries edge lengths and outward normals
geom = cell_geometry(pentagon)
print("\npentagon edges")
for length, normal in zip(geom.edge_lengths, geom.edge_normals):
    print(f"  |E| = {length:.4f}   n = ({normal[0]:+.4f}, {normal[1]:+.4f})")

# outward normals of a closed polygon sum (weighted by length) to zero
print("sum of |E| n:", geom.edge_lengths @ geom.edge_normals)

# quadrature by fanning the polygon into triangles from the centroid;
# the order-2 rule integrates quadratics exactly, order 4 quartics
quad = fan_quadrature(pentagon, order=2)
print("\nintegral of 1 over pentagon:", quad.integrate(lambda x, y: 1.0 + 0 * x))
print("exact area:                  ", geom.area)

quad4 = fan_quadrature(pentagon, order=4)
moment = quad4.integrate(lambda x, y: (x - geom.centroid[0]) ** 2)
print("second moment about centroid x:", moment)

# centered first moments vanish by the definition of the centroid
mx = quad4.integrate(lambda x, y: x - geom.centroid[0])
my = quad4.integrate(lambda x, y: y - geom.centroid[1])
print("first moments (should be ~0):", mx, my)
