"""Reference stiffness matrices from harmonic liftings.

The element module never constructs its shape functions; it only uses
their projections.  This module builds the functions the element is
implicitly working with: for each polygon vertex the piecewise-linear
boundary hat is lifted harmonically into the cell by a P1 finite
element solve on a refined sub-triangulation.  The energy inner
products of those liftings form a reference stiffness matrix that the
polygonal element can be measured against, both for consistency (the
two matrices act identically on linear data) and for stability
(generalized eigenvalue bounds).

On a triangle the lifting is exact and the reference matrix collapses
to the classical P1 stiffness.  p1_stiffness computes it for a whole
stack of triangles in one vectorized pass; the sub-triangulation uses
it, and so does the global P1 solve on triangular meshes, which is the
production solve with p1_stiffness as its local stiffness.

None of this feeds the production VEM solve; it is verification
machinery only.
"""

from dataclasses import dataclass

import numpy as np

from .element import StabilityConstants
from .errors import DegenerateTriangle, NoConvergence
from .geometry import _one_cell
from .linalg import SparseSymMatrix, cg_solve, generalized_eig_bounds
from .solver import solve

MAX_LEVELS = 5


@dataclass
class SubTriangulation:
    """P1 mesh of one polygon: centroid fan, then uniform refinement.

    points      (M,2) sub-mesh nodes; the first N rows are the polygon
                vertices, row N is the centroid
    triangles   (T,3) vertex index triples, positively oriented
    boundary    (M,) bool mask, True for nodes on the polygon boundary
    trace       (N,M) hat boundary data: trace[i,p] is the value of the
                i-th boundary hat at node p (1 at vertex i, 0 at the
                other polygon vertices, linear along each edge, 0 at
                interior nodes where it is never used)
    """

    points: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    trace: np.ndarray


def subtriangulate(poly, levels):
    """Fan a polygon from its centroid c, then refine 4-way `levels` times.

    With m = 2**levels, fan triangle i (c, v_i, v_{i+1}) holds the nodes
    (i, a, b), a, b >= 0, a + b <= m, at (a v_i + b v_{i+1} + (m-a-b) c)/m.
    Node (i, 0, b) is (i+1, b, 0), so (i, 0, 0) is c; a + b = m is edge i.
    Rows 0..N-1 are the vertices (i, m, 0), row N is c, then come the
    nodes a >= 1 of each fan triangle in turn. Any CellBatch fault
    raises, so the fan covers the polygon exactly once.
    """
    if not 0 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in [0, {MAX_LEVELS}], got {levels}")
    geo = _one_cell(poly)
    v, c = geo.vertices[0], geo.centroid[0]
    n, m = len(v), 2 ** levels
    nxt = np.r_[1:n, 0]
    # the m(m+1)/2 nodes a >= 1 of one fan triangle: first the m nodes on
    # the edge, (m, 0) leading
    r, col = np.triu_indices(m)
    a, b = m - col, col - r
    own = n + np.arange(n)[:, None] * (len(a) - 1) + np.arange(len(a))
    own[:, 0] = np.arange(n)
    points = np.empty((n * len(a) + 1, 2))
    points[own] = (a[:, None] * v[:, None] + b[:, None] * v[nxt, None]
                   + (m - a - b)[:, None] * c) / m
    points[n] = c
    lattice = np.empty((n, m + 1, m + 1), dtype=np.int64)
    lattice[:, a, b] = own
    lattice[:, 0, 1:] = lattice[nxt, 1:, 0]
    lattice[:, 0, 0] = n
    # node (a, b) gives the upward triangle (a, b), (a-1, b+1), (a-1, b)
    # and, off the edge, the downward one (a, b+1), (a-1, b+1), (a, b)
    ta = np.r_[np.c_[a, a - 1, a - 1], np.c_[a, a - 1, a][m:]]
    tb = np.r_[np.c_[b, b + 1, b], np.c_[b + 1, b + 1, b][m:]]
    trace = np.zeros((n, len(points)))
    trace[np.arange(n)[:, None], own[:, :m]] = a[:m] / m
    trace[nxt[:, None], own[:, :m]] = b[:m] / m
    return SubTriangulation(
        points=points,
        triangles=lattice[:, ta, tb].reshape(-1, 3),
        boundary=trace.any(axis=0),
        trace=trace,
    )


def p1_stiffness(triangles):
    """Exact stiffness of the linear element on each triangle of a stack.

    A (3, 2) triangle gives its (3, 3) matrix, a (..., 3, 2) stack the
    (..., 3, 3) matrices. Raises DegenerateTriangle for the first
    triangle whose doubled area is not above 1e-14 times its squared
    diameter.
    """
    tri = np.asarray(triangles, dtype=float)
    if tri.shape[-2:] != (3, 2):
        raise ValueError(f"expected 3 vertices, got shape {tri.shape}")
    # e_i is the edge opposite vertex i; the hat gradients are constant,
    # grad lambda_i = e_i rotated by 90 degrees / (2A)
    e = tri[..., [2, 0, 1], :] - tri[..., [1, 2, 0], :]
    area2 = -(tri[..., 0] * e[..., 1]).sum(axis=-1)
    x, y = e[..., 0], e[..., 1]
    # x + y rounds as a sum over the length-2 axis, at a fraction of its
    # cost; only a zero can differ (-0.0 for +0.0), and a zero entry is
    # dropped in assembly
    bad = np.flatnonzero(area2 <= 1e-14 * (x * x + y * y).max(axis=-1))
    if bad.size:
        raise DegenerateTriangle(
            f"signed doubled area {area2.flat[bad[0]]:.3e}")
    ee = x[..., :, None] * x[..., None, :] + y[..., :, None] * y[..., None, :]
    return ee / (2.0 * area2)[..., None, None]


def _submesh_stiffness(sub):
    t = sub.triangles
    return SparseSymMatrix.from_triplets(
        len(sub.points), np.repeat(t, 3, axis=1), np.tile(t, (1, 3)),
        p1_stiffness(sub.points[t]))


def harmonic_stiffness(poly, levels=3):
    """(N, N) energy inner products of the P1 liftings of the boundary hats.

    Hats 0..N-2 are lifted by one CG solve each. The last needs none:
    the hats sum to one on the boundary (exactly, as the trace values
    are dyadic), and the lifting of the constant 1 is 1, since A @ 1 = 0.
    So the last lifting is one minus the others.
    """
    sub = subtriangulate(poly, levels)
    A = _submesh_stiffness(sub)
    interior = np.flatnonzero(~sub.boundary)
    liftings = sub.trace
    reduced = A.restrict(interior)
    for i, lifting in enumerate(liftings[:-1]):
        rhs = -(A @ lifting)[interior]
        result = cg_solve(reduced, rhs, tol=1e-13)
        if not result.converged:
            raise NoConvergence(
                f"lifting of hat {i} stalled at relative residual "
                f"{result.residual:.3e}")
        lifting[interior] = result.x
    liftings[-1, interior] = 1.0 - liftings[:-1, interior].sum(axis=0)
    products = np.array([A @ lifting for lifting in liftings])
    matrix = liftings @ products.T
    return (matrix + matrix.T) / 2.0


def stability_report(poly, K_vem, levels=3):
    """Eigenvalue bounds of the element stiffness against the reference."""
    lo, hi = generalized_eig_bounds(K_vem, harmonic_stiffness(poly, levels))
    return StabilityConstants(alpha_star_lower=lo, alpha_star_upper=hi)


def p1_global_solve(mesh, problem):
    """Classical P1 solve on an all-triangle mesh.

    The production solve, with SolveOptions' defaults and p1_stiffness as
    the local stiffness: the right-hand side rule (cell average of the
    load spread evenly over the vertices), the boundary treatment and CG
    are the polygonal driver's, so a comparison against it exercises
    only the element matrices.
    """
    odd = [(ids[0], loops.shape[1]) for ids, loops, _ in mesh.cell_groups()
           if loops.shape[1] != 3]
    if odd:
        ci, size = min(odd)
        raise ValueError(
            f"cell {ci} has {size} vertices; p1_global_solve "
            "needs an all-triangle mesh")
    return solve(mesh, problem, stiffness=p1_stiffness).dof_values
