"""Tests of the benchmark harness itself (not of polyvem).

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PV = workloads.package()


def test_self_time_is_span_minus_children():
    # op 1: a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6];
    # op 2: a lone a [20, 21]
    sp = [
        ["a", 0.0, 10.0, -1, 1, None],
        ["b", 1.0, 4.0, 0, 1, None],
        ["c", 2.0, 3.0, 1, 1, None],
        ["b", 5.0, 6.0, 0, 1, None],
        ["a", 20.0, 21.0, -1, 2, None],
    ]
    assert spans.self_times(sp) == [6.0, 2.0, 1.0, 1.0, 1.0]
    totals = spans.per_op_totals(sp)
    assert totals[1]["a"] == [1, 10.0, 6.0]
    assert totals[1]["b"] == [2, 4.0, 3.0]
    assert totals[2] == {"a": [1, 1.0, 1.0]}


def test_traced_op_nests_spans_and_restores_the_package():
    original = PV.solver.cell_geometry
    from_triplets = PV.linalg.SparseSymMatrix.__dict__["from_triplets"]
    wl = workloads.OracleCells(PV, 3, None)
    wl.prepare()
    tracer = spans.Tracer()
    dt, rec, failure = run.timed_op(wl, 2, tracer, PV.package)
    assert failure is None
    assert PV.solver.cell_geometry is original
    assert PV.linalg.SparseSymMatrix.__dict__["from_triplets"] is from_triplets
    names = {s[0] for s in tracer.spans}
    assert {"harmonic_fem.harmonic_stiffness", "harmonic_fem.subtriangulate",
            "linalg.cg_solve", "linalg.generalized_eig_bounds",
            "element.build_element"} <= names
    roots = [s for s in tracer.spans if s[3] == -1]
    assert sum(s[2] - s[1] for s in roots) <= dt
    assert min(spans.self_times(tracer.spans)) >= 0.0
    metrics, _ = run.layer_metrics(tracer, [2], [dt], [dt])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["linalg.cg_iters"] > 0
    assert metrics["harmonic_fem.sub_triangles"] == 4 ** wl.levels * 4


def test_another_seed_changes_inputs_and_still_passes(tmp_path):
    files = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        wl = workloads.PolygonFile(PV, seed, str(workdir))
        wl.prepare()
        assert wl.check(1, wl.op(1)) is None
        files.append(Path(wl.mesh_path).read_bytes())
    assert files[0] != files[1]

    cells = []
    for seed in (1, 2):
        wl = workloads.OracleCells(PV, seed, None)
        wl.prepare()
        for k in range(5):
            assert wl.check(k, wl.op(k)) is None
        cells.append([wl.cell(k)[:2] for k in range(10)])
    assert cells[0] != cells[1]

    meshes = [PV.mesh.generate(PV.mesh.MeshFamilySpec(
        "perturbed_quad", 8, seed=seed)) for seed in (1, 2)]
    assert meshes[0] != meshes[1]


class _Corrupted(workloads.OracleCells):
    """Op 1 returns a wrong residual, op 2 raises, op 3 is right."""

    def op(self, k):
        if k == 2:
            raise RuntimeError("boom")
        rec = super().op(k)
        if k == 1:
            rec["residual"] = 1e-3
        return rec


def test_corrupted_result_counts_as_failed_op():
    wl = _Corrupted(PV, 5, None)
    wl.prepare()
    ops = run.measure(wl, 0.0)
    assert [o["k"] for o in ops] == [1]
    for k in (2, 3):
        dt, rec, failure = run.timed_op(wl, k)
        ops.append({"k": k, "t": dt, "traced": False, "rec": rec,
                    "failure": failure})
    _, _, failures, info = run.summarize_ops(ops)
    assert len(failures) == 2
    assert "consistency residual" in failures[0]
    assert "RuntimeError: boom" in failures[1]
    assert info["failed_frac"] == pytest.approx(2 / 3)


class _Sleeper:
    """Each op takes about 10 ms and is always right."""

    done = 0

    def op(self, k):
        time.sleep(0.01)
        self.done += 1
        return {"cells": 1, "nverts": {4: 1}}

    def check(self, k, rec):
        return None


def test_midway_call_is_made_once_halfway_and_not_timed():
    wl, calls = _Sleeper(), []

    def midway():
        calls.append(wl.done)
        time.sleep(0.2)

    ops = run.measure(wl, 0.3, midway=midway)
    assert len(calls) == 1
    assert 0.3 * len(ops) <= calls[0] <= 0.7 * len(ops)
    assert 0.28 <= sum(o["t"] for o in ops) < 0.4


def test_frozen_checks_reject_a_small_error_change():
    wl = workloads.PerturbedQuad(PV, 7, None)
    l2, h1, iters = wl.FROZEN[8]
    rec = {"seed": 8, "n_dof": 129 ** 2, "cg_residual": 1e-13,
           "err_L2": l2, "err_H1": h1, "cg_iters": iters}
    assert wl.check(1, rec) is None
    assert wl.check(1, dict(rec, err_L2=l2 * (1 + 1e-7))) is not None
    assert wl.check(1, dict(rec, cg_iters=iters + 1)) is not None
    off = dict(rec, seed=1000)
    assert wl.check(1, off) is None
    assert wl.check(1, dict(off, err_H1=0.03)) is not None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.LISTED)
    assert set(run.LISTED) <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}
