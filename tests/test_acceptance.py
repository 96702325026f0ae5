"""Acceptance suite.

One test per acceptance criterion, named so the verbose pytest report
reads as a checklist.  Every test also prints a single CRITERION line
with the measured numbers before asserting, so failures carry their
evidence.
"""

import time

import numpy as np

from polyvem.cli import main
from polyvem.element import build_element, consistency_check
from polyvem.geometry import cell_geometry
from polyvem.harmonic_fem import (
    harmonic_stiffness,
    p1_global_solve,
    p1_stiffness,
    stability_report,
)
from polyvem.linalg import SparseSymMatrix, cg_solve, dense_sym_eigen
from polyvem.mesh import (
    FAMILIES,
    MeshFamilySpec,
    generate,
    read_json,
    to_json_text,
    write_json,
)
from polyvem.solver import (
    convergence_study,
    error_norms,
    patch_problem,
    sinsin_problem,
    solve,
)

PENTAGON = np.array(
    [[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [1.5, 3.5], [0.0, 2.0]])


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_patch_exact_on_every_family():
    p = patch_problem()
    worst_vertex, worst_h1, worst_time = 0.0, 0.0, 0.0
    for family in FAMILIES:
        t0 = time.perf_counter()
        mesh = generate(MeshFamilySpec(family, 4))
        sol = solve(mesh, p)
        rep = error_norms(sol, p)
        elapsed = time.perf_counter() - t0
        exact = p.u(mesh.vertices[:, 0], mesh.vertices[:, 1])
        worst_vertex = max(worst_vertex,
                           float(np.abs(sol.dof_values - exact).max()))
        worst_h1 = max(worst_h1, rep.err_H1)
        worst_time = max(worst_time, elapsed)
    ok = worst_vertex <= 1e-10 and worst_h1 <= 1e-10 and worst_time < 1.0
    _verdict(1, ok,
             f"patch u=2+3x-y on 5 families at n=4: max vertex err "
             f"{worst_vertex:.2e} (<=1e-10), max err_H1 {worst_h1:.2e} "
             f"(<=1e-10), max family time {worst_time:.2f}s (<1s)")


def test_criterion_2_triangle_family_reduces_to_p1():
    mesh = generate(MeshFamilySpec("triangle", 8))
    worst_k = 0.0
    for ci in range(mesh.n_cells):
        verts = mesh.cell_vertices(ci)
        el = build_element(cell_geometry(verts))
        worst_k = max(worst_k,
                      float(np.abs(el.K - p1_stiffness(verts)).max()))
    p = sinsin_problem()
    vem = solve(mesh, p).dof_values
    fem = p1_global_solve(mesh, p)
    dof_diff = float(np.abs(vem - fem).max())
    ok = worst_k <= 1e-12 and dof_diff <= 1e-10
    _verdict(2, ok,
             f"triangle n=8: max |K - K_P1| {worst_k:.2e} (<=1e-12), "
             f"max dof difference vs P1 solve {dof_diff:.2e} (<=1e-10)")


def test_criterion_3_projector_identities_every_cell():
    worst_gd, worst_idem = 0.0, 0.0
    cells = 0
    for family in FAMILIES:
        for n in (2, 4, 8):
            mesh = generate(MeshFamilySpec(family, n))
            for ci in range(mesh.n_cells):
                el = build_element(cell_geometry(mesh.cell_vertices(ci)))
                worst_gd = max(worst_gd, float(
                    np.abs(el.Pi_star @ el.D - np.eye(3)).max()))
                worst_idem = max(worst_idem, float(
                    np.abs(el.Pi @ el.Pi - el.Pi).max()))
                cells += 1
    ok = worst_gd <= 1e-10 and worst_idem <= 1e-12
    _verdict(3, ok,
             f"{cells} cells over 5 families, n in {{2,4,8}}: max "
             f"|Pi_star D - I| {worst_gd:.2e} (<=1e-10), max "
             f"|Pi^2 - Pi| {worst_idem:.2e} (<=1e-12)")


def test_criterion_4_rank_structure_every_cell():
    checked, ok = 0, True
    detail = ""
    for family in FAMILIES:
        mesh = generate(MeshFamilySpec(family, 4))
        for ci in range(mesh.n_cells):
            el = build_element(cell_geometry(mesh.cell_vertices(ci)))
            nverts = el.K.shape[0]
            k_c = el.Pi_star.T @ el.G_tilde @ el.Pi_star
            if nverts >= 4:
                w = dense_sym_eigen(k_c)
                n_pos = int(np.sum(w > 1e-10 * np.linalg.norm(k_c)))
                if n_pos != 2:
                    ok = False
                    detail = (f"{family} cell {ci}: K_c has {n_pos} "
                              "eigenvalues above threshold, expected 2")
            w = dense_sym_eigen(el.K)
            scale = np.linalg.norm(el.K)
            n_pos = int(np.sum(w > 1e-10 * scale))
            kernel_resid = float(np.abs(el.K @ np.ones(nverts)).max())
            if n_pos != nverts - 1 or kernel_resid > 1e-10 * scale:
                ok = False
                detail = (f"{family} cell {ci}: K rank {n_pos} of "
                          f"{nverts - 1}, |K 1| {kernel_resid:.2e}")
            checked += 1
    if ok:
        detail = (f"{checked} cells at n=4: K_c rank 2 (N>=4), "
                  "K rank N-1 with kernel spanned by constants")
    _verdict(4, ok, detail)


def test_criterion_5_convergence_rates():
    t0 = time.perf_counter()
    p = sinsin_problem()
    rates = {}
    for family in ("quad", "triangle", "hanging_node", "perturbed_quad"):
        table = convergence_study(MeshFamilySpec(family, 4), 4, p)
        rates[family] = (table.eoc_H1[-1], table.eoc_L2[-1])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    for family, (eh1, el2) in rates.items():
        if not (0.85 <= eh1 <= 1.15 and 1.7 <= el2 <= 2.3):
            ok = False
    summary = ", ".join(f"{fam}: H1 {eh1:.3f}/L2 {el2:.3f}"
                        for fam, (eh1, el2) in rates.items())
    _verdict(5, ok,
             f"sinsin, n=4..32: {summary} (H1 in [0.85,1.15], "
             f"L2 in [1.7,2.3]), total {elapsed:.1f}s (<60s)")


def test_criterion_6_stability_sandwich_every_cell():
    lo_all, hi_all = np.inf, 0.0
    tri_dev = 0.0
    checked, ok = 0, True
    detail = ""
    for family in FAMILIES:
        mesh = generate(MeshFamilySpec(family, 4))
        for ci in range(mesh.n_cells):
            verts = mesh.cell_vertices(ci)
            el = build_element(cell_geometry(verts), nu_policy="unit")
            sc = stability_report(verts, el.K, levels=3)
            lo_all = min(lo_all, sc.alpha_star_lower)
            hi_all = max(hi_all, sc.alpha_star_upper)
            if len(verts) == 3:
                tri_dev = max(tri_dev,
                              abs(sc.alpha_star_lower - 1.0),
                              abs(sc.alpha_star_upper - 1.0))
            if not 0.02 <= sc.alpha_star_lower <= sc.alpha_star_upper <= 50:
                ok = False
                detail = (f"{family} cell {ci}: bounds "
                          f"({sc.alpha_star_lower:.3g}, "
                          f"{sc.alpha_star_upper:.3g}) outside [0.02, 50]")
            checked += 1
    if tri_dev > 1e-6:
        ok = False
        detail = f"triangle bounds deviate from 1 by {tri_dev:.2e}"
    if ok:
        detail = (f"{checked} cells, nu=1, oracle level 3: bounds within "
                  f"[{lo_all:.3f}, {hi_all:.3f}] (band [0.02, 50]), "
                  f"triangle deviation {tri_dev:.1e} (<=1e-6)")
    _verdict(6, ok, detail)


def test_criterion_7_oracle_residual_decreases_with_level():
    geom = cell_geometry(PENTAGON)
    el = build_element(geom)
    d = el.D
    residuals = []
    for levels in (1, 2, 3):
        oracle = harmonic_stiffness(PENTAGON, levels)
        residuals.append(float(np.abs((el.K - oracle) @ d).max()))
    ok = residuals[0] >= residuals[1] >= residuals[2]
    _verdict(7, ok,
             "pentagon fixture, max_a |(K - K_oracle) d_a|_inf over "
             "oracle levels {1,2,3}: "
             + " -> ".join(f"{r:.3e}" for r in residuals)
             + (" (monotone decrease)" if ok else " (not decreasing)"))


def test_criterion_8_determinism_and_cg(tmp_path):
    # mesh JSON round-trip identity and byte stability
    spec = MeshFamilySpec("perturbed_quad", 4, seed=11)
    mesh = generate(spec)
    path = tmp_path / "mesh.json"
    write_json(mesh, str(path))
    roundtrip = read_json(str(path))
    json_ok = roundtrip == mesh and to_json_text(roundtrip) == to_json_text(mesh)

    # byte-identical timing-free CSV and SVG outputs across two runs
    outs = []
    for tag in ("a", "b"):
        stab = tmp_path / f"stab_{tag}.csv"
        svg = tmp_path / f"plot_{tag}.svg"
        study = tmp_path / f"study_{tag}.csv"
        assert main(["stability", "--family", "hexagon", "--n", "2",
                     "--oracle-levels", "2", "--out", str(stab)]) == 0
        assert main(["plot", "--family", "hexagon", "--n", "4",
                     "--problem", "sinsin", "--colorbar",
                     "--out", str(svg)]) == 0
        assert main(["study", "--family", "quad", "--n", "2",
                     "--levels", "2", "--problem", "sinsin",
                     "--out", str(study)]) == 0
        outs.append((stab.read_bytes(), svg.read_bytes(),
                     study.read_text()))
    csv_ok = outs[0][0] == outs[1][0]
    svg_ok = outs[0][1] == outs[1][1]
    # the study schema mandates a wall-clock column; compare the rest
    strip = [[",".join(line.split(",")[:-1])
              for line in text.splitlines()] for _, _, text in outs]
    study_ok = strip[0] == strip[1]

    # CG on a seeded random SPD system
    rng = np.random.default_rng(42)
    r = rng.standard_normal((50, 50))
    dense = r @ r.T + 0.5 * np.eye(50)
    rows, cols = np.nonzero(np.ones((50, 50)))
    A = SparseSymMatrix.from_triplets(50, rows, cols, dense.ravel())
    res = cg_solve(A, rng.standard_normal(50), tol=1e-12, max_iter=150)
    cg_ok = res.converged and res.iterations <= 150

    ok = json_ok and csv_ok and svg_ok and study_ok and cg_ok
    _verdict(8, ok,
             f"JSON round-trip {'ok' if json_ok else 'BROKEN'}; "
             f"stability CSV bytes {'identical' if csv_ok else 'DIFFER'}; "
             f"SVG bytes {'identical' if svg_ok else 'DIFFER'}; study CSV "
             f"{'identical up to wall_ms' if study_ok else 'DIFFERS'}; "
             f"CG 50x50 SPD converged in {res.iterations} iters (<=150)")
