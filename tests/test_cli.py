import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from polyvem import solver
from polyvem.cli import STABILITY_HEADER, main
from polyvem.mesh import MeshFamilySpec, generate, read_json, write_json
from polyvem.solver import CSV_HEADER

from conftest import folded_fan


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    out = capsys.readouterr().out
    for cmd in ("mesh", "run", "study", "stability", "plot", "dump-element"):
        assert cmd in out


def test_unknown_family_is_usage_error(capsys):
    assert main(["mesh", "--family", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "hanging_node" in err  # the message names the valid choices


@pytest.mark.parametrize("command", [
    ["run", "--mesh", "hexagon.json"],
    ["run", "--family", "hexagon", "--n", "4"],
    ["study", "--family", "hexagon", "--n", "2", "--levels", "2",
     "--out", "study.csv"],
    ["plot", "--family", "hexagon", "--n", "4", "--problem", "sinsin",
     "--out", "plot.svg"],
], ids=["run-mesh", "run-family", "study", "plot-problem"])
def test_command_does_not_import_numpy_ma(tmp_path, command):
    # np.unique imports numpy.ma under numpy 2, and the module objects
    # then stay for the life of the process; no command needs them
    write_json(generate(MeshFamilySpec("hexagon", 4)),
               tmp_path / "hexagon.json")
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\nfrom polyvem.cli import main\n"
              f"assert main({command!r}) == 0\n"
              "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_mesh_writes_loadable_json(tmp_path):
    out = tmp_path / "hex.json"
    assert main(["mesh", "--family", "hexagon", "--n", "3",
                 "--out", str(out)]) == 0
    assert read_json(str(out)) == generate(MeshFamilySpec("hexagon", 3))


def test_mesh_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert main(["mesh", "--family", "perturbed_quad", "--n", "3",
                     "--seed", "7", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_csv(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "--family", "quad", "--n", "4",
                 "--problem", "patch", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h_max,n_dof,err_L2,err_H1,cg_iters,wall_ms"
    cells = lines[1].split(",")
    assert int(cells[1]) == 25
    assert float(cells[2]) <= 1e-10 and float(cells[3]) <= 1e-10


def test_run_json(capsys):
    assert main(["run", "--family", "triangle", "--n", "4",
                 "--problem", "patch", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["problem"] == "patch"
    assert record["n_dof"] == 25
    assert record["err_H1"] <= 1e-10


def test_run_from_mesh_file(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    assert main(["mesh", "--family", "quad", "--n", "4",
                 "--out", str(mesh_file)]) == 0
    assert main(["run", "--mesh", str(mesh_file), "--problem", "patch",
                 "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mesh"] == str(mesh_file)
    assert record["err_H1"] <= 1e-10


def test_run_rejects_non_finite_mesh_file(tmp_path, capsys):
    mesh_file = tmp_path / "nan.json"
    mesh_file.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,NaN]], '
                         '"cells": [[0,1,2,3]]}')
    assert main(["run", "--mesh", str(mesh_file), "--problem", "patch"]) == 1
    assert "vertex 3 has a non-finite coordinate" in capsys.readouterr().err


def test_run_rejects_mesh_with_oversized_coordinate(tmp_path, capsys):
    mesh_file = tmp_path / "huge.json"
    mesh_file.write_text('{"vertices": [[0,0],[1,0],[1,1],[0,%s]], '
                         '"cells": [[0,1,2,3]]}' % ("1" * 400))
    assert main(["run", "--mesh", str(mesh_file), "--problem", "patch"]) == 1
    assert "vertex 3 has a coordinate too large" in capsys.readouterr().err


def test_run_rejects_mesh_with_index_beyond_int64(tmp_path, capsys):
    mesh_file = tmp_path / "huge_index.json"
    mesh_file.write_text('{"vertices": [[0,0],[1,0],[0,1]], '
                         '"cells": [[0,1,99999999999999999999999]]}')
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    assert capsys.readouterr().err == (
        "error: cell 0 references a vertex outside [0, 3)\n")


def test_run_rejects_self_winding_cell(tmp_path, capsys):
    # the pentagon's vertices in the order 0, 2, 4, 1, 3: a pentagram
    t = 2 * np.pi * np.arange(5) / 5
    verts = np.column_stack([np.cos(t), np.sin(t)])[[0, 2, 4, 1, 3]]
    mesh_file = tmp_path / "pentagram.json"
    mesh_file.write_text(json.dumps(
        {"vertices": verts.tolist(), "cells": [[0, 1, 2, 3, 4]]}))
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    assert "cell 0: fan winds more than once" in capsys.readouterr().err


def test_run_rejects_mesh_folded_about_a_vertex(tmp_path, capsys):
    verts, cells = folded_fan()
    mesh_file = tmp_path / "folded.json"
    mesh_file.write_text(json.dumps(
        {"vertices": verts.tolist(), "cells": cells}))
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    assert "vertex 0: the corner angles of its cells sum to 4 pi" in (
        capsys.readouterr().err)


def test_run_rejects_non_finite_error_norm(tmp_path, capsys, monkeypatch):
    # an exact solution that is infinite inside the square and sin sin on
    # its boundary: the solve is finite, the L2 error is not. (Scaling a
    # mesh no longer gets there: quad n=8 scaled by 1e60 has an L2 error
    # near 5.7e178, whose square error_norms keeps scaled.)
    sinsin = solver.sinsin_problem()
    inside = replace(sinsin, u=lambda x, y: np.where(
        (0 < x) & (x < 1) & (0 < y) & (y < 1), np.inf, sinsin.u(x, y)))
    monkeypatch.setitem(solver.PROBLEMS, "sinsin", lambda: inside)
    mesh = generate(MeshFamilySpec("quad", 8))
    mesh_file = tmp_path / "mesh.json"
    mesh_file.write_text(json.dumps(
        {"vertices": mesh.vertices.tolist(),
         "cells": [c.tolist() for c in mesh.cells]}))
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: error norm err_L2 is not finite (inf)\n"


def test_run_reports_the_norms_of_a_mesh_scaled_by_1e60(tmp_path, capsys):
    # quadratic on quad n=8 scaled by 2^200 (about 1.6e60): every stage
    # scales by a power of two, so err_L2 is exactly 2^600 times the
    # unscaled one, near 1e178, and its square is past the float range
    mesh = generate(MeshFamilySpec("quad", 8))
    reports = []
    for scale in (0, 200):
        mesh_file = tmp_path / f"scaled-{scale}.json"
        mesh_file.write_text(json.dumps(
            {"vertices": np.ldexp(mesh.vertices, scale).tolist(),
             "cells": [c.tolist() for c in mesh.cells]}))
        assert main(["run", "--mesh", str(mesh_file), "--problem",
                     "quadratic", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        reports.append(json.loads(out))
    base, scaled = reports
    assert math.sqrt(sys.float_info.max) < scaled["err_L2"] < math.inf
    assert scaled["err_L2"] == math.ldexp(base["err_L2"], 600)
    assert scaled["err_H1"] == math.ldexp(base["err_H1"], 400)


def test_run_with_huge_coordinates_raises_no_numpy_warning(tmp_path,
                                                          capsys):
    # hexagon n=8 scaled by 1e80 has load entries past 1e154, whose
    # squares overflow; CG scales them by a power of two first
    mesh = generate(MeshFamilySpec("hexagon", 8))
    mesh_file = tmp_path / "huge.json"
    mesh_file.write_text(json.dumps(
        {"vertices": (mesh.vertices * 1e80).tolist(),
         "cells": [c.tolist() for c in mesh.cells]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--mesh", str(mesh_file), "--format", "json"])
    out, err = capsys.readouterr()
    if rc == 0:
        report = json.loads(out)
        assert err == ""
        assert math.isfinite(report["err_L2"])
        assert math.isfinite(report["err_H1"])
    else:
        assert rc == 1 and out == ""
        assert re.fullmatch(r"error: [^\n]+\n", err)


@pytest.mark.parametrize("args, message", [
    (["--n", "0"], "resolution must be a positive integer"),
    (["--family", "hexagon", "--n", "1"], "hexagon family requires n >= 2"),
    (["--family", "hanging_node", "--n", "3"],
     "hanging_node family requires even n >= 2"),
], ids=["n0", "hexagon1", "hanging_node3"])
def test_unbuildable_resolution_exits_one(capsys, args, message):
    assert main(["mesh", *args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_rejects_mesh_without_cells(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "cells": []}\n')
    assert main(["run", "--mesh", str(empty), "--problem", "sinsin"]) == 1
    assert "no cells" in capsys.readouterr().err


def test_run_rejects_mesh_file_that_is_not_utf8(tmp_path, capsys):
    mesh_file = tmp_path / "utf16.json"
    mesh_file.write_bytes('{"vertices": [], "cells": []}'.encode("utf-16"))
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    assert capsys.readouterr().err.startswith("error: byte 0: not UTF-8")


@pytest.mark.parametrize("value", ["0.7", "-0.1", "nan"])
@pytest.mark.parametrize("command", [
    ["mesh"], ["run"], ["study", "--out", "never.csv"]])
def test_perturbation_out_of_range_is_usage_error(
        tmp_path, monkeypatch, capsys, command, value):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--family", "perturbed_quad", "--n", "2",
                 "--perturbation", value]) == 2
    assert capsys.readouterr().err == (
        "error: --perturbation must lie in [0, 0.5)\n")
    assert not (tmp_path / "never.csv").exists()


def test_perturbation_near_its_limit_can_give_an_invalid_mesh(capsys):
    # 0.49 is accepted, but it turns cell 17 inside out; the mesh check
    # says so and exits 1, with nothing on stdout
    assert main(["run", "--family", "perturbed_quad", "--n", "16",
                 "--seed", "7", "--perturbation", "0.49"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: cell 17: fan triangle at edge 3 is inverted; "
                   "polygon is not star-shaped with respect to its "
                   "centroid\n")


@pytest.mark.parametrize("command", [
    ["mesh", "--out", "never.json"], ["plot", "--out", "never.svg"],
    ["dump-element", "--cell", "17"], ["stability"]])
def test_a_generated_mesh_is_checked_as_its_file_would_be(
        tmp_path, monkeypatch, capsys, command):
    # the mesh that perturbation 0.49 gives is refused by read_json; a
    # command on the generated mesh exits 1 with the same text, and
    # writes nothing
    spec = ["--family", "perturbed_quad", "--n", "16", "--seed", "7",
            "--perturbation", "0.49"]
    mesh_file = tmp_path / "p.json"
    write_json(generate(MeshFamilySpec("perturbed_quad", 16,
                                       perturbation=0.49, seed=7)),
               mesh_file)
    assert main(["run", "--mesh", str(mesh_file)]) == 1
    want = capsys.readouterr().err
    assert "cell 17:" in want
    monkeypatch.chdir(tmp_path)
    assert main([*command, *spec]) == 1
    assert capsys.readouterr() == ("", want)
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


@pytest.mark.parametrize("value", ["inf", "nan", "1", "0", "-0.5"])
@pytest.mark.parametrize("command", [
    ["run"], ["study", "--out", "never.csv"], ["plot", "--out", "never.svg"]])
def test_tol_outside_the_open_unit_interval_is_usage_error(
        tmp_path, monkeypatch, capsys, command, value):
    # CG would stop after one iteration, or stall with a residual of 0
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--family", "hexagon", "--n", "2",
                 "--tol", value]) == 2
    assert capsys.readouterr().err == "error: --tol must lie in (0, 1)\n"
    assert not any(tmp_path.iterdir())


def test_perturbation_is_ignored_off_perturbed_quad(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    assert main(["mesh", "--family", "quad", "--n", "2", "--perturbation",
                 "0.7", "--out", str(mesh_file)]) == 0
    assert main(["run", "--mesh", str(mesh_file), "--family",
                 "perturbed_quad", "--perturbation", "nan"]) == 0
    assert capsys.readouterr().err == ""


def test_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study", "--family", "quad", "--n", "4", "--levels", "2",
                 "--problem", "sinsin", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")


def test_study_needs_levels(capsys):
    assert main(["study", "--family", "quad", "--levels", "1",
                 "--out", "/tmp/never.csv"]) == 2
    assert "levels" in capsys.readouterr().err


def test_stability_csv(tmp_path):
    out = tmp_path / "stab.csv"
    assert main(["stability", "--family", "hexagon", "--n", "2",
                 "--oracle-levels", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == STABILITY_HEADER
    assert len(lines) == 6  # five cells
    for line in lines[1:]:
        cell, nv, lo, hi, resid = line.split(",")
        assert 0.02 <= float(lo) <= float(hi) <= 50.0
        assert float(resid) <= 1e-12


def test_stability_names_the_cell_that_fails(tmp_path, capsys):
    # cell 17 of this mesh has an inverted fan triangle; the oracle's
    # sub-mesh cannot be built there, and stability names the cell as
    # run does
    out = tmp_path / "stab.csv"
    assert main(["stability", "--family", "perturbed_quad", "--n", "16",
                 "--seed", "7", "--perturbation", "0.49",
                 "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: cell 17: fan triangle at edge 3 is inverted; polygon "
        "is not star-shaped with respect to its centroid\n")
    assert not out.exists()


@pytest.mark.parametrize("levels", ["-1", "9"])
def test_stability_oracle_levels_out_of_range_is_usage_error(capsys, levels):
    assert main(["stability", "--family", "quad", "--n", "2",
                 "--oracle-levels", levels]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_stability_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert main(["stability", "--family", "hanging_node", "--n", "2",
                     "--oracle-levels", "2", "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


# (alpha_lower, alpha_upper) of every cell at n=2 and --oracle-levels 3,
# as the CSV read when the oracle ran one CG solve per hat; later changes
# to how the reference is computed must keep them to 1e-10 relative
FROZEN_STABILITY = {
    "quad": [(1, 1.48837209302)] * 4,
    "perturbed_quad": [(1, 1.4864411675), (1, 1.47041993781),
                       (1, 1.45903190897), (1, 1.4890658046)],
    "triangle": [(1, 1)] * 8,
    "hexagon": [(1, 1.45338985192), (1, 1.17115655274), (1, 1.45338985192),
                (1, 1.2118425463), (1, 1.2118425463)],
    "hanging_node": [(1, 1.48837209302)] * 4
    + [(0.813191502183, 1.48837209302)] * 2 + [(1, 1.48837209302)],
}


# the same at --oracle-levels 4, the level of the oracle_cells benchmark
# workload, as the CSV read when each lifting was one CG call started
# from the hat's mean value coordinates
FROZEN_STABILITY_LEVEL_4 = {
    "quad": [(1, 1.49707602339)] * 4,
    "perturbed_quad": [(1, 1.49569716725), (1, 1.47926427707),
                       (1, 1.46785580668), (1, 1.49812497481)],
    "triangle": [(1, 1)] * 8,
    "hexagon": [(1, 1.46549310208), (1, 1.18097902128), (1, 1.46549310208),
                (1, 1.21927576156), (1, 1.21927576156)],
    "hanging_node": [(1, 1.49707602339)] * 4
    + [(0.827817328315, 1.49707602339)] * 2 + [(1, 1.49707602339)],
}


def _assert_stability_alphas(capsys, family, levels, frozen):
    assert main(["stability", "--family", family, "--n", "2",
                 "--oracle-levels", str(levels)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    got = np.array([row.split(",")[2:4] for row in rows], dtype=float)
    frozen = np.array(frozen, dtype=float)
    assert got.shape == frozen.shape
    assert (np.abs(got - frozen) <= 1e-10 * frozen).all()


@pytest.mark.parametrize("family", FROZEN_STABILITY)
def test_stability_alphas_are_frozen(capsys, family):
    _assert_stability_alphas(capsys, family, 3, FROZEN_STABILITY[family])


@pytest.mark.parametrize("family", FROZEN_STABILITY_LEVEL_4)
def test_stability_alphas_are_frozen_at_level_4(capsys, family):
    _assert_stability_alphas(capsys, family, 4,
                             FROZEN_STABILITY_LEVEL_4[family])


def test_plot_wireframe_path_count(tmp_path):
    out = tmp_path / "wire.svg"
    assert main(["plot", "--family", "quad", "--n", "2",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<path ") == 4
    assert 'fill="none"' in text


def test_plot_solution_colors_symmetric(tmp_path):
    out = tmp_path / "sol.svg"
    n = 8
    assert main(["plot", "--family", "quad", "--n", str(n),
                 "--problem", "sinsin", "--out", str(out)]) == 0
    fills = re.findall(r'<path [^>]*fill="(rgb\([0-9,]+\))"',
                       out.read_text())
    assert len(fills) == n * n
    for j in range(n):
        for i in range(n):
            assert fills[j * n + i] == fills[i * n + j]


def test_plot_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for p in (a, b):
        assert main(["plot", "--family", "hexagon", "--n", "4",
                     "--problem", "sinsin", "--colorbar",
                     "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-10", "40"])
def test_plot_size_without_room_inside_the_margins_is_usage_error(
        tmp_path, capsys, value):
    # the two 20-pixel margins take 40 pixels of the canvas
    out = tmp_path / "never.svg"
    assert main(["plot", "--family", "quad", "--n", "2", "--size", value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --size must be finite and above 40\n")
    assert not out.exists()


def test_plot_empty_mesh_fails(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"vertices": [], "cells": []}\n')
    assert main(["plot", "--mesh", str(empty),
                 "--out", str(tmp_path / "x.svg")]) == 1
    assert "no cells" in capsys.readouterr().err


def _block(text, name):
    match = re.search(rf"^{name} \(\d+x\d+\):\n((?:.+\n?)+?)(?:\n\n|\Z)",
                      text, re.M)
    assert match, f"no block {name}"
    return [line.split() for line in match.group(1).strip().splitlines()]


def test_dump_element_square(capsys):
    assert main(["dump-element", "--family", "quad", "--n", "1",
                 "--cell", "0"]) == 0
    out = capsys.readouterr().out
    g = np.array(_block(out, "G"), dtype=float)
    assert np.array_equal(g, np.diag([1.0, 0.5, 0.5]))
    k = np.array(_block(out, "K"), dtype=float)
    assert np.allclose(k, 0.25 * (4 * np.eye(4) - np.ones((4, 4))), atol=0)


def test_dump_element_triangle_projector(capsys):
    assert main(["dump-element", "--family", "triangle", "--n", "1",
                 "--cell", "0"]) == 0
    out = capsys.readouterr().out
    pi = np.array(_block(out, "Pi"), dtype=float)
    assert np.array_equal(pi, np.eye(3))


def test_dump_element_bad_cell(capsys):
    assert main(["dump-element", "--family", "quad", "--n", "1",
                 "--cell", "7"]) == 1
    assert "7" in capsys.readouterr().err
