"""Polygon geometry and quadrature.

A polygon is an (N, 2) float array of vertices in counterclockwise order,
N >= 3, no repeated points. All tolerances are relative to the polygon
scale so behaviour does not depend on physical units.

All cells with the same vertex count N are handled together: CellBatch
takes them as one (C, N, 2) stack and computes every per-cell quantity
in a single vectorized pass. cell_geometry and fan_quadrature run the
same batch on a stack of one polygon, so there is one code path:
cell_geometry returns that batch's row.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InvertedSubTriangle, NonPositiveArea, ZeroLengthEdge

# Symmetric Gauss rules on the reference triangle, barycentric coordinates.
# Each row of the point table is (l1, l2, l3); weights sum to one and are
# scaled by the physical triangle area on use.
_TRI_POINTS_DEG2 = np.array([
    [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
])
_TRI_WEIGHTS_DEG2 = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

_A4 = 0.816847572980459
_B4 = 0.091576213509771
_C4 = 0.108103018168070
_D4 = 0.445948490915965
_TRI_POINTS_DEG4 = np.array([
    [_A4, _B4, _B4],
    [_B4, _A4, _B4],
    [_B4, _B4, _A4],
    [_C4, _D4, _D4],
    [_D4, _C4, _D4],
    [_D4, _D4, _C4],
])
_TRI_WEIGHTS_DEG4 = np.array([
    0.109951743655322, 0.109951743655322, 0.109951743655322,
    0.223381589678011, 0.223381589678011, 0.223381589678011,
])

_TRI_RULES = {
    2: (_TRI_POINTS_DEG2, _TRI_WEIGHTS_DEG2),
    4: (_TRI_POINTS_DEG4, _TRI_WEIGHTS_DEG4),
}

# Quadrature points per slice of CellBatch.quadrature, so the load and
# error sums keep their temporaries small whatever the mesh size.
_POINTS_PER_PASS = 1 << 14


def _as_polygon(vertices):
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise ValueError("polygon must be an (N, 2) array with N >= 3")
    return v


def _next_vertex(v):
    """Vertex i+1 (cyclic) at position i of a (..., N, 2) stack."""
    return np.concatenate((v[..., 1:, :], v[..., :1, :]), axis=-2)


def _diameters(v):
    """Largest vertex-to-vertex distance of each polygon of a stack."""
    i, j = np.triu_indices(v.shape[-2], 1)
    diff = v[..., i, :] - v[..., j, :]
    diff *= diff
    # x + y rounds as a sum over the length-2 axis, at a fraction of its cost
    dist2 = diff[..., 0] + diff[..., 1]
    return np.sqrt(dist2.max(axis=-1, initial=0.0))


class CellBatch:
    """Geometry of C polygons that share the vertex count N.

    vertices is (C, N, 2), each polygon counterclockwise. Every per-cell
    quantity has the cell on axis 0: area (C,), centroid (C, 2),
    diameter (C,), edge_lengths (C, N), edge_normals (C, N, 2) and
    fan_areas (C, N), the signed areas of the centroid-fan triangles
    (c, v_i, v_{i+1}). Edge i runs from vertex i to vertex i+1.

    Construction never raises, whatever N is. A degenerate cell gets
    meaningless values and a flag in short_edge, bad_area or bad_fan;
    edge_error, area_error and fan_error turn a flag into the exception
    cell_geometry and fan_quadrature raise. Each test is written
    `not value > tol`, so a NaN fails it. A cell of fewer than 3
    vertices always fails one: its area is 0, and with one vertex so is
    its single edge.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        vn = _next_vertex(v)
        with np.errstate(all="ignore"):
            diameter = _diameters(v)
            d = vn - v
            lengths = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
            normals = np.stack([d[..., 1], -d[..., 0]], axis=-1)
            normals /= lengths[..., None]
            # cross, area, centroid and fan areas are formed about each
            # cell's first vertex (the origin when there is none): their
            # terms are then of the cell's size, not of its distance from
            # the origin
            origin = v[:, :1] if v.shape[1] else np.zeros((len(v), 1, 2))
            lv = v - origin
            vn -= origin
            x, y, xn, yn = lv[..., 0], lv[..., 1], vn[..., 0], vn[..., 1]
            cross = x * yn - xn * y
            area = 0.5 * cross.sum(axis=-1)
            centroid = ((lv + vn) * cross[..., None]).sum(axis=-2)
            centroid /= (6.0 * area)[:, None]
            cx, cy = centroid[:, None, 0], centroid[:, None, 1]
            fan = 0.5 * ((x - cx) * (yn - cy) - (xn - cx) * (y - cy))
            centroid += origin[:, 0]
            tol = 1e-14 * diameter
            self.short_edge = ~(lengths > tol[:, None])
            self.bad_area = ~(area > tol * diameter)
            self.bad_fan = ~(fan > (tol * diameter)[:, None])
        self.vertices = v
        self.area = area
        self.centroid = centroid
        self.diameter = diameter
        self.edge_lengths = lengths
        self.edge_normals = normals
        self.fan_areas = fan

    def __len__(self):
        return len(self.vertices)

    def faulty(self):
        """(C,) mask of the cells with any geometric flag set."""
        return (self.short_edge.any(axis=1) | self.bad_area
                | self.bad_fan.any(axis=1))

    def edge_error(self, k):
        """ZeroLengthEdge for cell k, or None."""
        short = np.flatnonzero(self.short_edge[k])
        if short.size:
            return ZeroLengthEdge(f"edge {int(short[0])} has zero length")
        return None

    def area_error(self, k):
        """NonPositiveArea for cell k, or None."""
        if self.bad_area[k]:
            return NonPositiveArea(
                f"signed area {self.area[k]:.3e} is not positive; vertices "
                "must be counterclockwise and non-degenerate")
        return None

    def fan_error(self, k):
        """InvertedSubTriangle for cell k, or None."""
        bad = np.flatnonzero(self.bad_fan[k])
        if bad.size:
            return InvertedSubTriangle(
                f"fan triangle at edge {int(bad[0])} is inverted; polygon "
                "is not star-shaped with respect to its centroid")
        return None

    def quadrature(self, order=2):
        """Fan quadrature of the cells, in slices of at most
        _POINTS_PER_PASS points, or of one cell where a cell has more.

        Yields (cells, x, y, w): the slice of cells covered, then the
        points and weights of those cells, each (c, Q). Each fan triangle
        carries a symmetric Gauss rule exact to the requested degree (2
        or 4); a cell's points run by fan triangle, then by rule point.
        Weights of flagged cells are meaningless.
        """
        if order not in _TRI_RULES:
            raise ValueError(
                f"unsupported quadrature order {order}; use 2 or 4")
        bary, w = _TRI_RULES[order]
        N = self.vertices.shape[1]
        step = _POINTS_PER_PASS // max(1, N * len(w))
        for cells, part in self._parts(step):
            v = part.vertices
            # the fan triangles' corners by coordinate, one GEMM for all
            corners = np.empty((2, len(v), N, 3))
            corners[..., 0] = part.centroid.T[..., None]
            corners[..., 1] = np.moveaxis(v, -1, 0)
            corners[..., 2] = np.moveaxis(_next_vertex(v), -1, 0)
            pts = (corners.reshape(-1, 3) @ bary.T).reshape(2, len(v), -1)
            wts = (part.fan_areas[:, :, None] * w).reshape(len(v), -1)
            yield cells, pts[0], pts[1], wts

    def _parts(self, step):
        """(cells, batch) for consecutive slices of at most step cells
        (at least one): the slice, and the CellBatch of those cells, made
        of views into this one's arrays."""
        step = max(1, step)
        for lo in range(0, len(self), step):
            cells = slice(lo, lo + step)
            yield cells, _view(self, cells, CellBatch)


def _view(batch, index, kind=SimpleNamespace):
    """A `kind`, made without calling its __init__, whose attributes are
    the batch's arrays at index: a slice of cells, one cell (a row), or
    None, which makes a row a one-cell batch (its scalars are numpy's)."""
    view = kind.__new__(kind)
    vars(view).update(
        (name, value[index]) for name, value in vars(batch).items())
    return view


def _one_cell(vertices):
    return CellBatch(_as_polygon(vertices)[None])


def _raise(error):
    if error is not None:
        raise error


def cell_geometry(vertices):
    """Area, centroid, diameter and edge data of one polygon: the row of
    its one-cell CellBatch, every array of the batch at cell 0."""
    b = _one_cell(vertices)
    _raise(b.edge_error(0) or b.area_error(0))
    return _view(b, 0)


@dataclass
class QuadratureRule:
    """Points (M, 2) and weights (M,); weights sum to the polygon area."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, f):
        """Integrate a vectorized callable f(x, y) over the polygon."""
        vals = np.broadcast_to(
            f(self.points[:, 0], self.points[:, 1]), self.weights.shape)
        return float(np.dot(self.weights, vals))


def fan_quadrature(vertices, order=2):
    """Quadrature on a polygon by fanning triangles from the centroid.

    Each triangle (centroid, v_i, v_{i+1}) carries a symmetric Gauss rule
    exact to the requested polynomial degree (2 or 4). A zero-length edge,
    a non-positive area or an inverted fan triangle (the polygon is not
    star-shaped about its centroid) raises rather than giving bad weights.
    """
    b = _one_cell(vertices)
    _raise(b.edge_error(0) or b.area_error(0) or b.fan_error(0))
    (_, x, y, w), = b.quadrature(order)
    return QuadratureRule(points=np.column_stack([x[0], y[0]]), weights=w[0])
