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

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .element import StabilityConstants
from .errors import AsymmetricMatrix, DegenerateTriangle, NoConvergence
from .geometry import _one_cell
from .linalg import SparseSymMatrix, cg_solve, generalized_eig_bounds
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
# lattice numbering (own, a, b) of subtriangulate, its triangles, trace
# and boundary, and the sub-mesh matrix's CSR pattern (indptr, indices).
# The entry of run k sums the triplets order[runs[k]:runs[k + 1]] of
# p1_stiffness(points[triangles]).ravel(), in from_triplets' order, and
# mirror[k] is the entry at its transposed position. All are read-only.
_Plan = namedtuple("_Plan", "own a b triangles trace boundary indptr "
                   "indices order runs mirror")


@functools.lru_cache(maxsize=8)
def _plan(n, levels):
    """The _Plan of an n-gon at a level, built once. Eight are kept, one
    per vertex count of a mesh at one level. Most of a plan is the (n, M)
    trace, which grows as n**2 4**levels: a 64-gon at level 5 takes
    28 MiB, an 8-gon 1.75 MiB, and the 3- to 6-gons of the five families
    at level 4 take 0.15-0.32 MiB."""
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
    trace = np.zeros((n, size))
    trace[np.arange(n)[:, None], own[:, :m]] = a[:m] / m
    trace[nxt[:, None], own[:, :m]] = b[:m] / m
    # triplet (k, i, j) sits at row triangles[k, i], column triangles[k, j]
    keys = (triangles[:, :, None] * size + triangles[:, None, :]).ravel()
    order = np.argsort(keys, kind="stable")
    entries, runs = np.unique(keys[order], return_index=True)
    rows, indices = np.divmod(entries, size)
    plan = _Plan(own, a, b, triangles, trace, trace.any(axis=0),
                 np.searchsorted(rows, np.arange(size + 1)), indices, order,
                 runs, np.searchsorted(entries, indices * size + rows))
    for array in plan:
        array.flags.writeable = False
    return plan


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
    plan = _plan(n, levels)
    a, b = plan.a[:, None], plan.b[:, None]
    points = np.empty((plan.trace.shape[1], 2))
    points[plan.own] = (a * v[:, None] + b * v[np.r_[1:n, 0], None]
                        + (m - a - b) * c) / m
    points[n] = c
    # the trace is a copy: harmonic_stiffness writes the liftings into it
    return SubTriangulation(points=points, triangles=plan.triangles,
                            boundary=plan.boundary, trace=plan.trace.copy())


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
    result, on its cached plan; an n-gon at a level has n 4**level
    triangles. Entries that sum to exactly 0, as on the right angles of a
    quad's sub-mesh, stay in the pattern where from_triplets drops them:
    a finite x gives each product 0 * x[j] = +-0, and a row sum that
    starts at +0 is never -0, so adding it leaves A @ x bit for bit."""
    n = len(sub.trace)
    plan = _plan(n, (len(sub.triangles) // n).bit_length() // 2)
    values = p1_stiffness(sub.points[sub.triangles]).ravel()
    data = np.add.reduceat(values[plan.order], plan.runs)
    # the symmetry check of from_triplets, with its text. The residual
    # is antisymmetric, so its first worst entry in (row, col) order is
    # the one above the diagonal that from_triplets names
    resid = data - data[plan.mirror]
    worst = resid[np.abs(resid).argmax()]
    vmax = float(np.abs(data).max())
    if abs(worst) > 1e-14 * vmax:
        raise AsymmetricMatrix(
            f"triplets are not symmetric (residual {worst:.3e} "
            f"against max entry {vmax:.3e})")
    return SparseSymMatrix(len(sub.points), plan.indptr, plan.indices, data)


def _mean_value_coordinates(vertices, points):
    """Yield the mean value coordinates of vertices 0..N-2 of a polygon at
    points strictly inside it (Floater, CAGD 2003), one vertex at a time;
    vertex N-1's is one minus their sum. Vertex i's is w_i / sum(w), with
    w_i = (t_{i-1} + t_i) / r_i, r_i = |v_i - x| and t_i = tan(alpha_i / 2)
    of the angle alpha_i that edge (v_i, v_{i+1}) subtends at x. They
    reproduce 1, x and y, are well defined in any simple polygon, and on
    a triangle are the barycentric coordinates. Only (P,) arrays are
    formed, never a (P, N) one."""
    x = points[:, 0] + 1j * points[:, 1]
    corners = vertices[:, 0] + 1j * vertices[:, 1]

    def edges():
        # r_i, r_{i+1} and t_i of edges i = -1..N-2, with no trigonometry:
        # as complex numbers, conj(d_i) d_{i+1} = dot_i + i cross_i for
        # d_i = v_i - x, and tan(alpha_i / 2) = cross_i / (r_i r_{i+1} + dot_i)
        da = corners[-1] - x
        ra = np.abs(da)
        for v in corners:
            db = v - x
            rb = np.abs(db)
            q = da.conj() * db
            t = q.imag / (ra * rb + q.real)
            r, da, ra = ra, db, rb
            yield r, ra, t

    total = np.zeros(len(points))
    for ra, rb, t in edges():
        total += t * (1.0 / ra + 1.0 / rb)
    pairs = edges()
    _, _, before = next(pairs)
    for r, _, t in pairs:
        yield (before + t) / (r * total)
        before = t


def harmonic_stiffness(poly, levels=3):
    """(N, N) energy inner products of the P1 liftings of the boundary hats.

    Hats 0..N-2 are lifted by at most one CG solve each, started from
    their mean value coordinates: with b the right-hand side and
    b' = b - A_II guess the guess's residual, CG solves for the
    correction to the absolute test |r| <= 1e-8 |b|, the same as from
    zero. Where |b'| already passes it, as on every triangle, there is no
    solve; where |b'| >= |b|, CG starts from zero. The last hat needs no
    solve: the hats sum to one on the boundary (exactly, as the trace
    values are dyadic), and the lifting of the constant 1 is 1, since
    A @ 1 = 0. So the last lifting is one minus the others.
    """
    sub = subtriangulate(poly, levels)
    A = _submesh_stiffness(sub)
    interior = np.flatnonzero(~sub.boundary)
    liftings = sub.trace
    reduced = A.restrict(interior)
    # zip takes the N-1 guesses first, so their generator ends, and frees
    # its arrays, with the loop
    guesses = _mean_value_coordinates(sub.points[:len(liftings)],
                                      sub.points[interior])
    for i, (guess, lifting) in enumerate(zip(guesses, liftings)):
        rhs = -(A @ lifting)[interior]
        residual = rhs - reduced @ guess
        nb, nr = np.linalg.norm(rhs), np.linalg.norm(residual)
        if nr <= _LIFTING_TOL * nb:
            lifting[interior] = guess
            continue
        if nr < nb:
            result = cg_solve(reduced, residual, tol=_LIFTING_TOL * nb / nr)
            result.x += guess
        else:
            result = cg_solve(reduced, rhs, tol=_LIFTING_TOL)
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
