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
from .errors import AsymmetricMatrix, NoConvergence, ValidationError, VemError
# kept as a module attribute: perfbench's tracing tests look it up here
from .geometry import cell_geometry  # noqa: F401
from .linalg import SparseSymMatrix, _check_symmetric, _key_bits, cg_solve
from .mesh import generate

CSV_HEADER = "level,h_max,n_dof,err_L2,err_H1,eoc_L2,eoc_H1,cg_iters,wall_ms"

# cells per slice of a vertex-count group in assembly, so the element
# matrices alive at once stay few whatever the mesh size
_CELLS_PER_SLICE = 1 << 10


@dataclass
class ManufacturedProblem:
    """Exact solution, gradient and source f = -Laplace(u).

    All fields are vectorized callables of (x, y) arrays. The boundary
    data g is u itself, so it cannot disagree with the exact solution.
    """

    name: str
    u: callable
    grad_u: callable
    f: callable

    @property
    def g(self):
        return self.u


def patch_problem():
    """Linear solution: the method must reproduce it to round-off."""
    return ManufacturedProblem(
        "patch",
        lambda x, y: 2.0 + 3.0 * x - y,
        lambda x, y: (np.full_like(x, 3.0), np.full_like(x, -1.0)),
        lambda x, y: np.zeros_like(x),
    )


def sinsin_problem():
    """Smooth standard benchmark: u = sin(pi x) sin(pi y)."""
    pi = np.pi
    return ManufacturedProblem(
        "sinsin",
        lambda x, y: np.sin(pi * x) * np.sin(pi * y),
        lambda x, y: (pi * np.cos(pi * x) * np.sin(pi * y),
                      pi * np.sin(pi * x) * np.cos(pi * y)),
        lambda x, y: 2.0 * pi * pi * np.sin(pi * x) * np.sin(pi * y),
    )


def quadratic_problem():
    """u = x^2 + 2xy + 3y^2, a curved field with constant source."""
    return ManufacturedProblem(
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
    rows: list = field(default_factory=list)
    eoc_L2: list = field(default_factory=list)  # None where undefined
    eoc_H1: list = field(default_factory=list)


def _first_failure(geo, el):
    """A group's first failing cell and its error, None when every cell
    is fine. The checks run in the one-cell path's order: the batch's
    edge and area checks (cell_geometry), G (build_element), then its
    fan and winding checks (fan_quadrature)."""
    bad = np.flatnonzero(geo.faulty() | el.singular)
    if not bad.size:
        return None
    k = int(bad[0])
    return k, geo.error(k, fan=False) or el.g_error(k) or geo.error(k)


def _integrals(geo, f, quad_order):
    """Integral of f over every cell of a group."""
    out = np.empty(len(geo))
    for cells, x, y, w in geo.quadrature(quad_order):
        out[cells] = (w * f(x, y)).sum(axis=1)
    return out


def _assemble_parts(mesh, problem, nu_policy, quad_order, stiffness=None):
    """One batched pass per vertex count: stiffness triplets, load and
    the projector of every cell, as (ids, loops, Pi_star) per group.
    The local stiffness of a group is stiffness(vertices (C, N, 2)), or
    the element's K when stiffness is None; both are built for
    _CELLS_PER_SLICE cells at a time. The triplets go straight into a
    key and a value array sized once for the whole mesh. A degenerate
    cell, one of fewer than 3 vertices included, raises the VemError of
    its first failed check, naming the lowest such cell, before the
    AsymmetricMatrix of the first slice whose matrices are not symmetric."""
    if mesh.n_cells == 0:
        raise ValidationError("mesh has no cells")
    groups = mesh.cell_groups()
    s = _key_bits(mesh.n_vertices)
    size = sum(loops.size * loops.shape[1] for _, loops, _ in groups)
    keys = np.empty(size, dtype=np.int64)
    vals = np.empty(size)
    b = np.zeros(mesh.n_vertices)
    projectors, failures, asymmetric = [], [], None
    end = 0
    for ids, loops, geo in groups:
        n = loops.shape[1]
        Pi_star = np.empty((len(ids), 3, n))
        for cells, part in geo._parts(_CELLS_PER_SLICE):
            el = ElementBatch.of(part, nu_policy)
            failure = _first_failure(part, el)
            if failure is not None:
                failures.append((ids[cells][failure[0]], failure[1]))
                break
            Pi_star[cells] = el.Pi_star
            K = el.K if stiffness is None else stiffness(part.vertices)
            del el  # of its element matrices, only K stays alive
            if asymmetric is None:
                try:
                    _check_symmetric(K, K - np.swapaxes(K, 1, 2))
                except AsymmetricMatrix as error:
                    asymmetric = error
            start, end = end, end + K.size
            # the key row << s | col and the value of entry (i, j) of
            # cell k sit at k, i, j
            at = keys[start:end].reshape(K.shape)
            np.left_shift(loops[cells, :, None], s, out=at)
            at |= loops[cells, None, :]
            vals[start:end].reshape(K.shape)[:] = K
            del K
        else:  # no cell of the group failed
            projectors.append((ids, loops, Pi_star))
            # np.add.at adds in index order, so one call per group sums
            # as one call over the concatenated groups would
            np.add.at(b, loops,
                      (_integrals(geo, problem.f, quad_order) / n)[:, None])
    if failures:
        ci, error = min(failures, key=lambda f: f[0])
        raise type(error)(f"cell {ci}: {error}") from error
    if asymmetric is not None:
        raise asymmetric
    A = SparseSymMatrix._from_keys(mesh.n_vertices, keys, vals)
    return A, b, projectors


def assemble(mesh, problem):
    """Global stiffness and load before boundary conditions, built with
    SolveOptions' default nu_policy and quad_order.

    The matrix is symmetric with the constant vector in its kernel;
    Dirichlet data has not been applied yet.
    """
    opts = SolveOptions()
    A, b, _ = _assemble_parts(mesh, problem, opts.nu_policy, opts.quad_order)
    return A, b


@dataclass
class DirichletSystem:
    matrix: SparseSymMatrix  # interior block, SPD
    rhs: np.ndarray
    interior: np.ndarray
    lift: np.ndarray  # full-length vector holding g on the boundary


def apply_dirichlet(A, b, mesh, g):
    """Symmetric elimination of boundary dofs fixed to g(vertex); a mesh
    with no interior vertex gives a 0 x 0 system."""
    bnd = mesh.boundary_vertex_flags
    interior = np.flatnonzero(~bnd)
    lift = np.zeros(mesh.n_vertices)
    lift[bnd] = g(mesh.vertices[bnd, 0], mesh.vertices[bnd, 1])
    rhs = (b - A @ lift)[interior]
    return DirichletSystem(
        matrix=A.restrict(interior), rhs=rhs, interior=interior, lift=lift)


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
    system = apply_dirichlet(A, b, mesh, problem.g)
    del A, b  # CG needs the interior system only
    res = cg_solve(system.matrix, system.rhs, tol=opts.tol)
    if not res.converged:
        raise NoConvergence(
            f"CG stalled at relative residual {res.residual:.3e} "
            f"after {res.iterations} iterations")
    dofs = system.lift
    dofs[system.interior] = res.x
    coeffs = np.zeros((mesh.n_cells, 3))
    for ids, loops, Pi_star in projectors:
        coeffs[ids] = np.einsum("cij,cj->ci", Pi_star, dofs[loops])
    wall = time.perf_counter() - t0
    return DiscreteSolution(
        mesh=mesh, dof_values=dofs, cell_coeffs=coeffs,
        cg_iterations=res.iterations, cg_residual=res.residual,
        wall_time=wall)


def _unit_scaled(*arrays):
    """Scale the arrays in place by one power of two 2^-e that brings
    their largest magnitude into [0.5, 1), and return e."""
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    e = int(np.frexp(top)[1])
    for a in arrays:
        np.ldexp(a, -e, out=a)
    return e


def _sqrt_of_sum(terms):
    """The square root of the sum of non-negative terms m * 2^e, given
    as (m, e) pairs, inf where it overflows. The terms are added in order
    as mantissas under the largest exponent, so the sum neither under-
    nor overflows; power-of-two scaling is exact, so it rounds as the
    plain float sum does wherever that one stays in the normal range."""
    top = max((e + math.frexp(m)[1] for m, e in terms if m), default=0)
    total = 0.0
    for m, e in terms:  # not sum(), which compensates from Python 3.12
        total += math.ldexp(m, e - top)
    m, e = math.frexp(total)
    e += top
    if e % 2:  # the root of 2^e needs an even e
        m, e = 2.0 * m, e - 1
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(m), e // 2))


def error_norms(sol, problem, quad_order=4):
    """Broken L2 and H1-seminorm errors of the projected solution.

    Each pass's weights and differences are scaled by powers of two
    before they are squared, and the sums are kept scaled, so a norm
    whose square lies outside the float range is still found."""
    mesh = sol.mesh
    l2, h1 = [], []
    for ids, _, geo in mesh.cell_groups():
        c = sol.cell_coeffs[ids]
        c1h = (c[:, 1] / geo.diameter)[:, None]
        c2h = (c[:, 2] / geo.diameter)[:, None]
        for cells, x, y, w in geo.quadrature(quad_order):
            proj = (c[cells, 0, None]
                    + c1h[cells] * (x - geo.centroid[cells, 0, None])
                    + c2h[cells] * (y - geo.centroid[cells, 1, None]))
            diff = problem.u(x, y) - proj
            ew, ed = _unit_scaled(w), _unit_scaled(diff)
            l2.append((float(np.einsum("cq,cq,cq->", w, diff, diff)),
                       ew + 2 * ed))
            gx, gy = problem.grad_u(x, y)
            dx = gx - c1h[cells]
            dy = gy - c2h[cells]
            eg = _unit_scaled(dx, dy)
            h1.append((float(np.einsum("cq,cq->", w, dx * dx + dy * dy)),
                       ew + 2 * eg))
    err_l2, err_h1 = _sqrt_of_sum(l2), _sqrt_of_sum(h1)
    for name, err in (("err_L2", err_l2), ("err_H1", err_h1)):
        if not math.isfinite(err):
            raise VemError(f"error norm {name} is not finite ({err})")
    return ErrorReport(
        h_max=mesh.max_diameter(), n_dof=mesh.n_vertices,
        err_L2=err_l2, err_H1=err_h1,
        cg_iterations=sol.cg_iterations, wall_time=sol.wall_time)


def _eoc(prev, cur, name):
    """Rate of the error `name` from ErrorReport prev to cur; None at the
    first level (no prev) and where an error is at round-off noise."""
    if prev is None:
        return None
    e_prev, e_cur = getattr(prev, name), getattr(cur, name)
    if e_prev <= 1e-13 or e_cur <= 1e-13:
        return None
    return math.log(e_prev / e_cur) / math.log(prev.h_max / cur.h_max)


def convergence_study(base_spec, levels, problem, options=None):
    """Solve on a doubling sequence of meshes and tabulate rates."""
    if levels < 2:
        raise ValueError("a convergence study needs at least 2 levels")
    opts = options or SolveOptions()
    table = ConvergenceTable()
    for k in range(levels):
        spec = replace(base_spec, n=base_spec.n * 2 ** k)
        mesh = generate(spec)
        sol = solve(mesh, problem, opts)
        report = error_norms(sol, problem, quad_order=opts.quad_order)
        prev = table.rows[-1] if table.rows else None
        table.eoc_L2.append(_eoc(prev, report, "err_L2"))
        table.eoc_H1.append(_eoc(prev, report, "err_H1"))
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
