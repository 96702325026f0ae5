"""Reference stiffness matrices from harmonic liftings.

The element module never constructs its shape functions; it only uses
their projections.  This module builds the functions the element is
implicitly working with: for each polygon vertex the piecewise-linear
boundary hat is lifted harmonically into the cell, in P1 finite
elements on a refined sub-triangulation.  An N-gon takes N-3 solves:
the liftings of 1, x and y are exact, and fix the other three.  The
energy inner products of those liftings form a reference stiffness
matrix that the polygonal element can be measured against, both for
consistency (the two matrices act identically on linear data) and for
stability (generalized eigenvalue bounds).

On a triangle the lifting is exact and the reference matrix collapses
to the classical P1 stiffness.  p1_stiffness computes it for a whole
stack of triangles in one vectorized pass. The sub-mesh matrix gathers
it from the N fan triangles, to which every sub-triangle is similar, and
the global P1 solve is the production solve with it as local stiffness.

None of this feeds the production VEM solve; it is verification
machinery only.
"""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .element import StabilityConstants
from .errors import DegenerateTriangle, NoConvergence
from .geometry import _one_cell
from .linalg import (SparseSymMatrix, _check_symmetric, cg_solve,
                     generalized_eig_bounds)
from .solver import solve

MAX_LEVELS = 5

# CG tolerance of each lifting. The matrix is liftings @ (A @ liftings).T,
# and an exact lifting is A-orthogonal to every interior perturbation, so
# its error is quadratic in the liftings' errors: 1e-8 leaves it at
# round-off, with a quarter fewer CG iterations than 1e-13
_LIFTING_TOL = 1e-8


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


# What the sub-mesh of an n-gon at a level shares with every other: the
# lattice numbering (own, a, b) of subtriangulate, its triangles and
# boundary, and the sub-mesh matrix's CSR pattern (indptr, indices).
# The entry of run k sums kernel[runs[k]:runs[k + 1]], in from_triplets'
# order, of the fan triangles' p1_stiffness, flattened (n, 3, 3). All
# are read-only; the hat traces, which a caller writes, are not kept.
_Plan = namedtuple("_Plan", "own a b triangles boundary indptr indices "
                   "kernel runs")


@functools.lru_cache(maxsize=8)
def _plan(n, levels):
    """The _Plan of an n-gon at a level, built once. Eight are kept, one
    per vertex count of a mesh at one level. A plan grows as n 4**levels:
    a 64-gon at level 5 takes 10.1 MiB, a 16-gon 2.53 MiB, and the 3- to
    6-gons of the five families at level 4 take 0.12-0.24 MiB."""
    m = 2 ** levels
    nxt = np.r_[1:n, 0]
    # the m(m+1)/2 nodes a >= 1 of one fan triangle: first the m nodes on
    # the edge, (m, 0) leading
    r, col = np.triu_indices(m)
    a, b = m - col, col - r
    own = n + np.arange(n)[:, None] * (len(a) - 1) + np.arange(len(a))
    own[:, 0] = np.arange(n)
    size = n * len(a) + 1
    lattice = np.empty((n, m + 1, m + 1), dtype=np.int64)
    lattice[:, a, b] = own
    lattice[:, 0, 1:] = lattice[nxt, 1:, 0]
    lattice[:, 0, 0] = n
    # node (a, b) gives the upward triangle (a, b), (a-1, b+1), (a-1, b)
    # and, off the edge, the downward one (a, b+1), (a-1, b+1), (a, b)
    ta = np.r_[np.c_[a, a - 1, a - 1], np.c_[a, a - 1, a][m:]]
    tb = np.r_[np.c_[b, b + 1, b], np.c_[b + 1, b + 1, b][m:]]
    triangles = lattice[:, ta, tb].reshape(-1, 3)
    # a sub-triangle is its fan triangle (v_i, v_{i+1}, c) scaled by 1/m,
    # upward, or by -1/m as (c, v_i, v_{i+1}), so it has the same kernel
    corners = np.array([[0, 1, 2]] * len(a) + [[2, 0, 1]] * (len(a) - m))
    boundary = np.zeros(size, dtype=bool)
    boundary[own[:, :m]] = True
    # triplet (k, i, j) sits at row triangles[k, i], column triangles[k, j]
    keys = (triangles[:, :, None] * size + triangles[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    entries, runs = np.unique(keys[order], return_index=True)
    rows, indices = np.divmod(entries, size)
    kernel = (9 * np.arange(n)[:, None, None, None] + 3 * corners[:, :, None]
              + corners[:, None, :]).ravel()[order]
    plan = _Plan(own, a, b, triangles, boundary,
                 np.searchsorted(rows, np.arange(size + 1)), indices, kernel,
                 runs)
    for array in plan:
        array.flags.writeable = False
    return plan


def subtriangulate(poly, levels):
    """Fan a polygon from its centroid c, then refine 4-way `levels` times.

    With m = 2**levels, fan triangle i (c, v_i, v_{i+1}) holds the nodes
    (i, a, b), a, b >= 0, a + b <= m, at (a v_i + b v_{i+1} + (m-a-b) c)/m.
    Node (i, 0, b) is (i+1, b, 0), so (i, 0, 0) is c; a + b = m is edge i.
    Rows 0..N-1 are the vertices (i, m, 0), row N is c, then come the
    nodes a >= 1 of each fan triangle in turn. Hat i is a/m on edge i
    and b/m on edge i-1; its trace is built anew on each call, as
    harmonic_stiffness writes the liftings into it. Any CellBatch fault
    raises, so the fan covers the polygon exactly once.
    """
    if not 0 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be in [0, {MAX_LEVELS}], got {levels}")
    geo = _one_cell(poly)
    v, c = geo.vertices[0], geo.centroid[0]
    n, m = len(v), 2 ** levels
    plan = _plan(n, levels)
    a, b = plan.a[:, None], plan.b[:, None]
    points = np.empty((len(plan.boundary), 2))
    points[plan.own] = (a * v[:, None] + b * v[np.r_[1:n, 0], None]
                        + (m - a - b) * c) / m
    points[n] = c
    hats, edges = np.arange(n)[:, None], plan.own[:, :m]
    trace = np.zeros((n, len(points)))
    trace[hats, edges] = plan.a[:m] / m
    trace[hats, np.roll(edges, 1, axis=0)] = plan.b[:m] / m
    return SubTriangulation(points=points, triangles=plan.triangles,
                            boundary=plan.boundary, trace=trace)


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
    # dropped in assembly or adds +-0 to a product of the sub-mesh matrix
    bad = np.flatnonzero(area2 <= 1e-14 * (x * x + y * y).max(axis=-1))
    if bad.size:
        raise DegenerateTriangle(
            f"signed doubled area {area2.flat[bad[0]]:.3e}")
    ee = x[..., :, None] * x[..., None, :] + y[..., :, None] * y[..., None, :]
    return ee / (2.0 * area2)[..., None, None]


def _submesh_stiffness(sub):
    """from_triplets of the P1 stiffness triplets of a subtriangulate
    result, gathered by its cached plan from the n fan triangles' kernels,
    the only ones p1_stiffness computes and the ones checked for
    symmetry. Entries that sum to exactly 0, as on the right angles of a
    quad's sub-mesh, stay in the pattern where from_triplets drops them:
    a finite x gives each product 0 * x[j] = +-0, and a row sum that
    starts at +0 is never -0, so adding it leaves A @ x bit for bit."""
    n = len(sub.trace)
    plan = _plan(n, (len(sub.triangles) // n).bit_length() // 2)
    fan = sub.points[np.c_[np.arange(n), np.r_[1:n, 0], np.full(n, n)]]
    kernels = p1_stiffness(fan)
    _check_symmetric(kernels, kernels - np.swapaxes(kernels, 1, 2))
    data = np.add.reduceat(kernels.ravel()[plan.kernel], plan.runs)
    return SparseSymMatrix(len(sub.points), plan.indptr, plan.indices, data)


def _fixed_hats(local):
    """Three vertices of a polygon that span a well-shaped triangle, from
    its (N, 2) vertices in coordinates local to the cell: a is the
    farthest from the origin, b the farthest from a, and c the farthest
    from the line ab, each the lowest index on a tie. Unless all
    vertices are collinear, c is off the line, so collinear runs, as at
    a hanging node, still give a triangle of positive area."""
    a = int(np.argmax((local * local).sum(axis=1)))
    d = local - local[a]
    b = int(np.argmax((d * d).sum(axis=1)))
    c = int(np.argmax(np.abs(d[b, 0] * d[:, 1] - d[b, 1] * d[:, 0])))
    return [a, b, c]


def harmonic_stiffness(poly, levels=3):
    """(N, N) energy inner products of the P1 liftings of the boundary hats.

    Only N-3 hats are lifted, each by one CG solve to |r| <= 1e-8 |b|
    from its fan-linear interpolant; NoConvergence names CG's residual.
    That start is linear on each fan triangle T_k, is hat i's trace on
    the boundary and w_i = (|T_{i-1}| + |T_i|) / (2 sum |T_k|) at the
    centroid, the fan's area centroid, so the N starts sum to 1, x and y
    at every node. The sub-mesh reproduces linear functions and the hats
    sum to one on the boundary (exactly, as the trace values are dyadic),
    so the liftings of the boundary traces of 1, x and y are 1, x and y.
    Three hats (a, b, c), chosen by _fixed_hats in coordinates local to
    the cell, take their interior values from these identities: with s
    the solved hats, they are C^-1 [1 - sum phi_s; x - sum x_s phi_s;
    y - sum y_s phi_s], for C = [1; x; y] at (a, b, c). Their errors are
    interior perturbations, as the solved liftings' are, so the matrix
    stays at round-off. A triangle needs no solve: its liftings are its
    barycentric coordinates.
    """
    sub = subtriangulate(poly, levels)
    A = _submesh_stiffness(sub)
    interior = np.flatnonzero(~sub.boundary)
    liftings = sub.trace
    n, m = len(liftings), 2 ** levels
    plan = _plan(n, levels)
    # 1, x and y at the sub-mesh nodes, x and y centred on the centroid,
    # so C does not depend on where the cell lies
    linear = np.ones((len(sub.points), 3))
    linear[:, 1:] = sub.points - sub.points[n]
    fixed = _fixed_hats(linear[:n, 1:])
    solved = [i for i in range(n) if i not in fixed]
    reduced = A.restrict(interior)
    # the sums of 1, x and y times the solved liftings, at the interior
    sums = np.zeros((3, len(interior)))
    # doubled fan-triangle areas, and from them each hat's centroid value
    p, q = linear[:n, 1:].T
    areas = p * np.roll(q, -1) - q * np.roll(p, -1)
    weights = (areas + np.roll(areas, 1)) / (2.0 * areas.sum())
    centre = m - plan.a - plan.b
    guess = np.empty(len(sub.points))
    for i in solved:
        # (a [k = i] + b [k + 1 = i] + (m - a - b) w_i) / m at node (k, a, b)
        guess[plan.own] = centre * weights[i]
        guess[plan.own[i]] += plan.a
        guess[plan.own[i - 1]] += plan.b
        guess[n] = m * weights[i]
        guess /= m
        result = cg_solve(reduced, -(A @ liftings[i])[interior],
                          tol=_LIFTING_TOL, x0=guess[interior])
        if not result.converged:
            raise NoConvergence(
                f"lifting of hat {i} stalled at relative residual "
                f"{result.residual:.3e}")
        liftings[i, interior] = result.x
        sums += linear[i][:, None] * result.x
    liftings[np.ix_(fixed, interior)] = np.linalg.solve(
        linear[fixed].T, linear[interior].T - sums)
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
