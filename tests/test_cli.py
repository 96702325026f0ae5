import json
import re

import numpy as np
import pytest

from polyvem.cli import STABILITY_HEADER, main
from polyvem.mesh import MeshFamilySpec, generate, read_json
from polyvem.solver import CSV_HEADER


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
    assert "cell 0: winds more than once" in capsys.readouterr().err


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
