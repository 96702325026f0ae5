"""Global Poisson driver: assembly, Dirichlet conditions, solve, errors.

Solves -Laplace(u) = f on the unit square with Dirichlet data g, using
one dof per mesh vertex. The numerical solution is the per-cell energy
projection of u_h onto linear polynomials; error norms are broken norms
of that projection, because the underlying shape functions are never
evaluated.
"""

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .element import ElementBatch
from .errors import EmptyInterior, NoConvergence, ValidationError, VemError
# kept as a module attribute: perfbench's tracing tests look it up here
from .geometry import cell_geometry  # noqa: F401
from .linalg import SparseSymMatrix, cg_solve
from .mesh import generate

CSV_HEADER = "level,h_max,n_dof,err_L2,err_H1,eoc_L2,eoc_H1,cg_iters,wall_ms"


@dataclass
class ManufacturedProblem:
    """Exact solution, gradient, source f = -Laplace(u), and boundary data.

    All fields are vectorized callables of (x, y) arrays; g is the
    restriction of u to the boundary.
    """

    name: str
    u: callable
    grad_u: callable
    f: callable
    g: callable


def _problem(name, u, grad_u, f):
    return ManufacturedProblem(name=name, u=u, grad_u=grad_u, f=f, g=u)


def patch_problem():
    """Linear solution: the method must reproduce it to round-off."""
    return _problem(
        "patch",
        lambda x, y: 2.0 + 3.0 * x - y,
        lambda x, y: (np.full_like(x, 3.0), np.full_like(x, -1.0)),
        lambda x, y: np.zeros_like(x),
    )


def sinsin_problem():
    """Smooth standard benchmark: u = sin(pi x) sin(pi y)."""
    pi = np.pi
    return _problem(
        "sinsin",
        lambda x, y: np.sin(pi * x) * np.sin(pi * y),
        lambda x, y: (pi * np.cos(pi * x) * np.sin(pi * y),
                      pi * np.sin(pi * x) * np.cos(pi * y)),
        lambda x, y: 2.0 * pi * pi * np.sin(pi * x) * np.sin(pi * y),
    )


def quadratic_problem():
    """u = x^2 + 2xy + 3y^2, a curved field with constant source."""
    return _problem(
        "quadratic",
        lambda x, y: x * x + 2.0 * x * y + 3.0 * y * y,
        lambda x, y: (2.0 * x + 2.0 * y, 2.0 * x + 6.0 * y),
        lambda x, y: np.full_like(x, -8.0),
    )


PROBLEMS = {
    "patch": patch_problem,
    "sinsin": sinsin_problem,
    "quadratic": quadratic_problem,
}


@dataclass
class SolveOptions:
    nu_policy: str = "unit"
    tol: float = 1e-12
    quad_order: int = 4


@dataclass
class DiscreteSolution:
    mesh: object
    dof_values: np.ndarray
    cell_coeffs: np.ndarray  # (n_cells, 3) projection in scaled monomials
    cg_iterations: int
    cg_residual: float
    wall_time: float


@dataclass
class ErrorReport:
    h_max: float
    n_dof: int
    err_L2: float
    err_H1: float
    cg_iterations: int
    wall_time: float


@dataclass
class ConvergenceTable:
    problem: str
    family: str
    rows: list = field(default_factory=list)
    eoc_L2: list = field(default_factory=list)  # None where undefined
    eoc_H1: list = field(default_factory=list)


# Quadrature points per vectorized pass of the load and error sums, so
# their temporaries stay small whatever the mesh size. The problem's
# callables get the (c, Q) point arrays of one pass.
_POINTS_PER_PASS = 1 << 14


def _first_failure(geo, el):
    """A group's first failing cell and the error the one-cell path
    raises there, checked in its order: edges, area, projection, fan
    quadrature. None when every cell is fine."""
    bad = np.flatnonzero(geo.faulty() | el.singular)
    if not bad.size:
        return None
    k = int(bad[0])
    return k, (geo.edge_error(k) or geo.area_error(k) or el.g_error(k)
               or geo.fan_error(k))


def _integrals(geo, f, quad_order):
    """Integral of f over every cell of a group."""
    out = np.empty(len(geo))
    for cells, x, y, w in geo.quadrature(quad_order, _POINTS_PER_PASS):
        out[cells] = (w * f(x, y)).sum(axis=1)
    return out


def _assemble_parts(mesh, problem, nu_policy, quad_order, stiffness=None):
    """One batched pass per vertex count: stiffness triplets, load and
    the projector of every cell, as (ids, loops, Pi_star) per group.
    The local stiffness of a group is stiffness(vertices (C, N, 2)), or
    the element's K when stiffness is None."""
    if mesh.n_cells == 0:
        raise ValidationError("mesh has no cells")
    rows, cols, vals, at, load = [], [], [], [], []
    projectors, failures = [], []
    for ids, loops, geo in mesh.cell_groups():
        if geo is None:
            failures.append((ids[0], ValueError(
                "polygon must be an (N, 2) array with N >= 3")))
            continue
        el = ElementBatch.of(geo, nu_policy)
        failure = _first_failure(geo, el)
        if failure is not None:
            failures.append((ids[failure[0]], failure[1]))
            continue
        n = loops.shape[1]
        rows.append(np.repeat(loops, n, axis=1).ravel())
        cols.append(np.tile(loops, (1, n)).ravel())
        K = el.K if stiffness is None else stiffness(geo.vertices)
        vals.append(K.ravel())
        at.append(loops.ravel())
        load.append(np.repeat(_integrals(geo, problem.f, quad_order) / n, n))
        projectors.append((ids, loops, el.Pi_star))
    if failures:
        ci, error = min(failures, key=lambda f: f[0])
        if not isinstance(error, VemError):
            raise error
        raise type(error)(f"cell {ci}: {error}") from error
    b = np.zeros(mesh.n_vertices)
    np.add.at(b, np.concatenate(at), np.concatenate(load))
    rows, cols, vals = (np.concatenate(p) for p in (rows, cols, vals))
    A = SparseSymMatrix.from_triplets(mesh.n_vertices, rows, cols, vals)
    return A, b, projectors


def assemble(mesh, problem, nu_policy="unit", quad_order=4):
    """Global stiffness and load before boundary conditions.

    The matrix is symmetric with the constant vector in its kernel;
    Dirichlet data has not been applied yet.
    """
    A, b, _ = _assemble_parts(mesh, problem, nu_policy, quad_order)
    return A, b


@dataclass
class DirichletSystem:
    matrix: SparseSymMatrix  # interior block, SPD
    rhs: np.ndarray
    interior: np.ndarray
    lift: np.ndarray  # full-length vector holding g on the boundary


def apply_dirichlet(A, b, mesh, g):
    """Symmetric elimination of boundary dofs fixed to g(vertex)."""
    bnd = mesh.boundary_vertex_flags
    interior = np.flatnonzero(~bnd)
    lift = np.zeros(mesh.n_vertices)
    lift[bnd] = g(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
    if len(interior) == 0:
        raise EmptyInterior("mesh has no interior vertices")
    rhs = (b - A @ lift)[interior]
    return DirichletSystem(
        matrix=A.restrict(interior), rhs=rhs,
        interior=interior, lift=lift)


def solve(mesh, problem, options=None, stiffness=None):
    """Assemble, apply boundary conditions, and CG-solve one problem.

    stiffness maps the (C, N, 2) vertex stack of the cells with N
    vertices to their (C, N, N) local stiffness matrices; None means the
    virtual element's. Everything else (load, checks, boundary
    conditions, CG, projection) is the same for any provider.
    """
    opts = options or SolveOptions()
    t0 = time.perf_counter()
    A, b, projectors = _assemble_parts(
        mesh, problem, opts.nu_policy, opts.quad_order, stiffness)
    try:
        system = apply_dirichlet(A, b, mesh, problem.g)
        res = cg_solve(system.matrix, system.rhs, tol=opts.tol)
        if not res.converged:
            raise NoConvergence(
                f"CG stalled at relative residual {res.residual:.3e} "
                f"after {res.iterations} iterations")
        dofs = system.lift.copy()
        dofs[system.interior] = res.x
        iters, resid = res.iterations, res.residual
    except EmptyInterior:
        # nothing to solve: the boundary data determines every dof
        bnd = mesh.boundary_vertex_flags
        dofs = np.zeros(mesh.n_vertices)
        dofs[bnd] = problem.g(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
        iters, resid = 0, 0.0
    coeffs = np.zeros((mesh.n_cells, 3))
    for ids, loops, Pi_star in projectors:
        coeffs[ids] = np.einsum("cij,cj->ci", Pi_star, dofs[loops])
    wall = time.perf_counter() - t0
    return DiscreteSolution(
        mesh=mesh, dof_values=dofs, cell_coeffs=coeffs,
        cg_iterations=iters, cg_residual=resid, wall_time=wall)


def error_norms(sol, problem, quad_order=4):
    """Broken L2 and H1-seminorm errors of the projected solution."""
    mesh = sol.mesh
    e_l2 = 0.0
    e_h1 = 0.0
    for ids, _, geo in mesh.cell_groups():
        c = sol.cell_coeffs[ids]
        c1h = (c[:, 1] / geo.diameter)[:, None]
        c2h = (c[:, 2] / geo.diameter)[:, None]
        for cells, x, y, w in geo.quadrature(quad_order, _POINTS_PER_PASS):
            proj = (c[cells, 0, None]
                    + c1h[cells] * (x - geo.centroid[cells, 0, None])
                    + c2h[cells] * (y - geo.centroid[cells, 1, None]))
            diff = problem.u(x, y) - proj
            e_l2 += float(np.einsum("cq,cq,cq->", w, diff, diff))
            gx, gy = problem.grad_u(x, y)
            dx = gx - c1h[cells]
            dy = gy - c2h[cells]
            e_h1 += float(np.einsum("cq,cq->", w, dx * dx + dy * dy))
    return ErrorReport(
        h_max=mesh.max_diameter(), n_dof=mesh.n_vertices,
        err_L2=math.sqrt(e_l2), err_H1=math.sqrt(e_h1),
        cg_iterations=sol.cg_iterations, wall_time=sol.wall_time)


def _eoc(e_prev, e_cur, h_prev, h_cur):
    # rates from near-zero errors are round-off noise, flag as undefined
    if e_prev <= 1e-13 or e_cur <= 1e-13:
        return None
    return math.log(e_prev / e_cur) / math.log(h_prev / h_cur)


def convergence_study(base_spec, levels, problem, options=None):
    """Solve on a doubling sequence of meshes and tabulate rates."""
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    opts = options or SolveOptions()
    table = ConvergenceTable(problem=problem.name, family=base_spec.family)
    for k in range(levels):
        spec = replace(base_spec, n=base_spec.n * 2 ** k)
        mesh = generate(spec)
        sol = solve(mesh, problem, opts)
        report = error_norms(sol, problem, quad_order=opts.quad_order)
        if table.rows:
            prev = table.rows[-1]
            table.eoc_L2.append(
                _eoc(prev.err_L2, report.err_L2, prev.h_max, report.h_max))
            table.eoc_H1.append(
                _eoc(prev.err_H1, report.err_H1, prev.h_max, report.h_max))
        else:
            table.eoc_L2.append(None)
            table.eoc_H1.append(None)
        table.rows.append(report)
    return table


def write_csv(table, path):
    """Write a study table in the fixed CSV schema.

    Rates for the first level (and any level where an error is at
    round-off) are written as empty fields.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER.split(","))
        for k, r in enumerate(table.rows):
            w.writerow([
                k + 1,
                f"{r.h_max:.12g}",
                r.n_dof,
                f"{r.err_L2:.12e}",
                f"{r.err_H1:.12e}",
                "" if table.eoc_L2[k] is None else f"{table.eoc_L2[k]:.4f}",
                "" if table.eoc_H1[k] is None else f"{table.eoc_H1[k]:.4f}",
                r.cg_iterations,
                f"{r.wall_time * 1000.0:.3f}",
            ])
