"""Command-line interface.

Subcommands: mesh (generate and save), run (single solve), study
(convergence table), stability (per-cell bounds against the harmonic
reference), plot (SVG wireframe or filled solution), dump-element
(print the local matrices of one cell).  Exit status is 0 on success,
1 on a runtime failure, 2 on a usage error.
"""

import argparse
import functools
import json
import sys

from .element import NU_POLICIES, build_element, consistency_check
from .errors import ValidationError, VemError
from .geometry import cell_geometry
from .harmonic_fem import MAX_LEVELS, stability_report
from .mesh import FAMILIES, MeshFamilySpec, generate, read_json, to_json_text
from .solver import (
    PROBLEMS,
    SolveOptions,
    convergence_study,
    error_norms,
    solve,
    write_csv,
)
from .svg import mesh_scene

STABILITY_HEADER = "cell,n_vertices,alpha_lower,alpha_upper,consistency_residual"


def _add_mesh_source(p, generated_only=False):
    p.add_argument("--family", choices=FAMILIES, default="quad",
                   help="mesh family to generate (default quad)")
    p.add_argument("--n", type=int, default=4,
                   help="resolution parameter (default 4)")
    p.add_argument("--perturbation", type=float, default=0.25,
                   help="vertex jitter for perturbed_quad, in [0, 0.5) "
                   "(default 0.25); near 0.5 a cell can invert")
    p.add_argument("--seed", type=int, default=0,
                   help="jitter seed for perturbed_quad (default 0)")
    if not generated_only:
        p.add_argument("--mesh", metavar="PATH", default=None,
                       help="read the mesh from a JSON file instead")


def _add_solve_flags(p):
    p.add_argument("--problem", choices=sorted(PROBLEMS), default="sinsin",
                   help="manufactured problem (default sinsin)")
    p.add_argument("--nu-policy", choices=NU_POLICIES, default="unit",
                   help="stabilization scaling (default unit)")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="CG relative tolerance in (0, 1) (default 1e-12)")
    p.add_argument("--quad-order", type=int, choices=(2, 4), default=4,
                   help="quadrature order for loads and errors (default 4)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyvem",
        description="Poisson solver on polygonal meshes with a "
                    "verification oracle.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("mesh", help="generate a mesh and write it as JSON")
    _add_mesh_source(p, generated_only=True)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("run", help="solve one problem and report errors")
    _add_mesh_source(p)
    _add_solve_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format (default csv)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("study", help="run a mesh refinement study")
    _add_mesh_source(p, generated_only=True)
    _add_solve_flags(p)
    p.add_argument("--levels", type=int, default=4,
                   help="number of refinement levels, at least 2 "
                        "(default 4)")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="CSV output file")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser(
        "stability",
        help="per-cell spectral bounds against the harmonic reference")
    _add_mesh_source(p)
    p.add_argument("--nu-policy", choices=NU_POLICIES, default="unit",
                   help="stabilization scaling (default unit)")
    p.add_argument("--oracle-levels", type=int, default=3,
                   choices=range(MAX_LEVELS + 1),
                   help="reference refinement depth 0..5 (default 3)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="CSV output file (default: stdout)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("plot", help="render the mesh or a solution as SVG")
    _add_mesh_source(p)
    _add_solve_flags(p)
    p.set_defaults(problem=None)  # wireframe unless a problem is named
    p.add_argument("--size", type=float, default=640.0,
                   help="canvas size in pixels, above 40 (default 640)")
    p.add_argument("--colorbar", action="store_true",
                   help="draw a colorbar next to a filled plot")
    p.add_argument("--out", metavar="PATH", required=True,
                   help="SVG output file")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("dump-element",
                       help="print D, B, G, Pi_star, Pi, K for one cell")
    _add_mesh_source(p)
    p.add_argument("--nu-policy", choices=NU_POLICIES, default="unit",
                   help="stabilization scaling (default unit)")
    p.add_argument("--cell", type=int, default=0,
                   help="cell index (default 0)")
    p.set_defaults(func=cmd_dump_element)

    return parser


def _load_mesh(args):
    if getattr(args, "mesh", None):
        return read_json(args.mesh)
    spec = MeshFamilySpec(args.family, args.n,
                          perturbation=args.perturbation, seed=args.seed)
    return generate(spec)


def _solve_options(args):
    return SolveOptions(nu_policy=args.nu_policy, tol=args.tol,
                        quad_order=args.quad_order)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def cmd_mesh(args):
    mesh = _load_mesh(args)
    _write_text(args.out, to_json_text(mesh))
    return 0


def cmd_run(args):
    mesh = _load_mesh(args)
    problem = PROBLEMS[args.problem]()
    sol = solve(mesh, problem, _solve_options(args))
    rep = error_norms(sol, problem, args.quad_order)
    if args.format == "csv":
        text = ("h_max,n_dof,err_L2,err_H1,cg_iters,wall_ms\n"
                f"{rep.h_max:.12g},{rep.n_dof},{rep.err_L2:.12e},"
                f"{rep.err_H1:.12e},{rep.cg_iterations},"
                f"{rep.wall_time * 1000.0:.3f}\n")
    else:
        record = {
            "problem": problem.name,
            "mesh": args.mesh or args.family,
            "nu_policy": args.nu_policy,
            "h_max": rep.h_max,
            "n_dof": rep.n_dof,
            "err_L2": rep.err_L2,
            "err_H1": rep.err_H1,
            "cg_iters": rep.cg_iterations,
            "wall_ms": rep.wall_time * 1000.0,
        }
        text = json.dumps(record, indent=2) + "\n"
    _write_text(args.out, text)
    return 0


def cmd_study(args):
    if args.levels < 2:
        print("error: --levels must be at least 2 to measure a rate",
              file=sys.stderr)
        return 2
    spec = MeshFamilySpec(args.family, args.n,
                          perturbation=args.perturbation, seed=args.seed)
    problem = PROBLEMS[args.problem]()
    table = convergence_study(spec, args.levels, problem,
                              _solve_options(args))
    write_csv(table, args.out)
    return 0


def cmd_stability(args):
    mesh = _load_mesh(args)
    lines = [STABILITY_HEADER]
    for ci in range(mesh.n_cells):
        verts = mesh.cell_vertices(ci)
        try:
            el = build_element(cell_geometry(verts), nu_policy=args.nu_policy)
            sc = stability_report(verts, el.K, levels=args.oracle_levels)
        except VemError as e:
            raise type(e)(f"cell {ci}: {e}") from e
        resid = consistency_check(el.K, el.D, el.B)
        lines.append(f"{ci},{len(verts)},{sc.alpha_star_lower:.12g},"
                     f"{sc.alpha_star_upper:.12g},{resid:.12g}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_plot(args):
    mesh = _load_mesh(args)
    if mesh.n_cells == 0:
        raise ValidationError("mesh has no cells to plot")
    values = None
    if args.problem is not None:
        problem = PROBLEMS[args.problem]()
        sol = solve(mesh, problem, _solve_options(args))
        values = sol.cell_coeffs[:, 0]  # projected value at each centroid
    scene = mesh_scene(mesh, values, size=args.size, colorbar=args.colorbar)
    _write_text(args.out, scene.to_svg())
    return 0


def _format_matrix(name, m):
    # a 6-digit dump should not show accumulation noise as data
    tiny = 1e-12 * max(float(abs(m).max()), 1e-300)
    lines = [f"{name} ({m.shape[0]}x{m.shape[1]}):"]
    for row in m:
        lines.append("".join(f"{0.0 if abs(v) < tiny else v:14.6g}"
                             for v in row))
    return "\n".join(lines)


def cmd_dump_element(args):
    mesh = _load_mesh(args)
    verts = mesh.cell_vertices(args.cell)
    el = build_element(cell_geometry(verts), nu_policy=args.nu_policy)
    blocks = [("D", el.D), ("B", el.B), ("G", el.G),
              ("Pi_star", el.Pi_star), ("Pi", el.Pi), ("K", el.K)]
    print("\n\n".join(_format_matrix(name, m) for name, m in blocks))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    if (args.family == "perturbed_quad" and not getattr(args, "mesh", None)
            and not 0.0 <= args.perturbation < 0.5):
        print("error: --perturbation must lie in [0, 0.5)", file=sys.stderr)
        return 2
    if not 0.0 < getattr(args, "tol", 0.5) < 1.0:
        print("error: --tol must lie in (0, 1)", file=sys.stderr)
        return 2
    if not 40.0 < getattr(args, "size", 640.0) < float("inf"):
        print("error: --size must be finite and above 40", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (VemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
