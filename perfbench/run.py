"""polyvem benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload polygon_file --seed 7 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. One warm-up op runs inside set-up,
then ops run back to back, each after the previous one returned, until
--seconds have passed (the last op finishes). Every op's outputs are
checked; a wrong output or an exception counts the op as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced ops and prints the per-layer metrics from the traced ones,
plus the tracing overhead; the spans are written to
perfbench/out/spans-<workload>.jsonl. The last line of stdout is the
result object; the line before it is an "info" object with the sample
counts, failures, set-up breakdown, environment and labels.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from spans import Tracer, per_op_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
P90_MIN_SAMPLES = 100

# The workloads BENCHMARK.json lists. perturbed_quad is run by hand: its
# 15 s op adds about 45 s of set-up and overrun to every run, too much for
# a full set of runs at a --seconds long enough to average over CPU-speed
# drift on a shared host.
LISTED = ("polygon_file", "oracle_cells")

END_TO_END = {
    "cells_per_s": "1/s",
    "op_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> (unit, label). Times are seconds per op, averaged over the
# traced ops; "self" excludes time in traced callees.
PER_LAYER = {
    "mesh.self_s": ("s", "self time of all mesh spans"),
    "mesh.generate_s": ("s", "generate, inclusive"),
    "mesh.read_json_s": ("s", "read_json, inclusive (parse, topology, validate)"),
    "mesh.validate_s": ("s", "validate, inclusive"),
    "geometry.self_s": ("s", "self time of all geometry spans"),
    "geometry.cell_geometry_s": ("s", "cell_geometry, inclusive"),
    "geometry.fan_quadrature_s": ("s", "fan_quadrature, inclusive"),
    "element.self_s": ("s", "self time of all element spans"),
    "element.build_element_s": ("s", "build_element, inclusive"),
    "element.us_per_cell": ("us", "derived: build_element time per call"),
    "solver.self_s": ("s", "self time of all solver spans"),
    "solver.assemble_s": ("s", "assembly pass of solve, inclusive"),
    "solver.apply_dirichlet_s": ("s", "apply_dirichlet, inclusive"),
    "solver.error_norms_s": ("s", "error_norms, inclusive"),
    "solver.projection_s": (
        "s", "derived: solve minus assemble, apply_dirichlet and cg_solve"),
    "linalg.self_s": ("s", "self time of all linalg spans"),
    "linalg.cg_s": ("s", "cg_solve, inclusive, all calls"),
    "linalg.cg_iters": ("count", "CG iterations, all calls"),
    "linalg.cg_ms_per_iter": ("ms", "derived: cg_s / cg_iters"),
    "linalg.from_triplets_s": ("s", "SparseSymMatrix.from_triplets, all calls"),
    "linalg.eig_bounds_s": ("s", "generalized_eig_bounds, inclusive"),
    "linalg.nnz": ("count", "nonzeros of the CG matrix, iteration-weighted"),
    "linalg.cg_flops_per_iter": (
        "flop", "computed: 2*nnz + 13*n per Jacobi-PCG iteration"),
    "linalg.cg_bytes_per_iter": (
        "B", "computed: 24*nnz + 152*n compulsory bytes per Jacobi-PCG "
             "iteration; cache misses and numpy temporaries not counted"),
    "harmonic_fem.self_s": ("s", "self time of all harmonic_fem spans"),
    "harmonic_fem.subtriangulate_s": ("s", "subtriangulate, inclusive"),
    "harmonic_fem.harmonic_stiffness_s": (
        "s", "harmonic_stiffness, inclusive"),
    "harmonic_fem.sub_triangles": ("count", "sub-triangles built"),
    "cli.main_s": ("s", "cli.main, inclusive"),
    "cli.overhead_s": ("s", "derived: cli.main minus the library calls"),
    "trace.op_s_untraced": ("s", "median op time, untraced ops of this run"),
    "trace.op_s_traced": ("s", "median op time, traced ops of this run"),
    "trace.overhead_frac": ("ratio", "derived: traced / untraced - 1"),
}

# Modules with no workload; a traced run reports them as unmeasured.
UNMEASURED = ("svg",)

# Layers with a <layer>.self_s metric; the cli layer's self time is
# cli.overhead_s.
LAYERS = ("mesh", "geometry", "element", "solver", "linalg", "harmonic_fem")


def cap_threads():
    """Cap every BLAS/OpenMP pool at nproc; unset ones run one thread."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))


def import_package():
    """Import numpy and polyvem from ./src.

    Returns the workloads module, the package namespace and the import time.
    """
    src = ROOT / "src"
    if not (src / "polyvem" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyvem sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import workloads
    pv = workloads.package()
    import_s = perf_counter() - t0
    if Path(pv.package.__file__).resolve().parent != src / "polyvem":
        raise SystemExit(f"error: polyvem imported from {pv.package.__file__}")
    return workloads, pv, import_s


def environment():
    import platform

    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: {f: deps.get(k, {}).get(f) for f in
                     ("name", "version", "openblas configuration")}
                 for k in ("blas", "lapack")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_op(wl, k, tracer=None, package=None):
    """Run and check op k; returns (seconds, record or None, failure)."""
    ctx = tracer.operation(k, package) if tracer else nullcontext()
    t0 = perf_counter()
    try:
        with ctx:
            rec = wl.op(k)
        dt = perf_counter() - t0
    except Exception as exc:  # the loop must go on and count the op
        dt = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, f"op {k}: {type(exc).__name__}: {exc}"
    failure = wl.check(k, rec)
    return dt, rec, None if failure is None else f"op {k}: {failure}"


def measure(wl, seconds, tracer=None, package=None, midway=None):
    """Closed loop from op 1 on until `seconds` of loop time pass; with a
    tracer, odd ops run untraced and even ops traced, at least one of each.

    midway() is called once, after the first op that ends past half of
    `seconds`; its time is not loop time.
    """
    ops = []
    paused = 0.0
    start = perf_counter()
    k = 1
    while True:
        traced = tracer is not None and k % 2 == 0
        dt, rec, failure = timed_op(wl, k, tracer if traced else None,
                                    package)
        ops.append({"k": k, "t": dt, "traced": traced, "rec": rec,
                    "failure": failure})
        elapsed = perf_counter() - start - paused
        if midway is not None and elapsed >= seconds / 2:
            t0 = perf_counter()
            midway()
            midway = None
            paused += perf_counter() - t0
        if elapsed >= seconds and (tracer is None or k >= 2):
            return ops
        k += 1


def summarize_ops(ops):
    times = [o["t"] for o in ops]
    passed = [o["rec"] for o in ops if not o["failure"]]
    cells = sum(rec["cells"] for rec in passed)
    hist = {}
    for rec in passed:
        for nv, c in rec["nverts"].items():
            hist[nv] = hist.get(nv, 0) + c
    failures = [o["failure"] for o in ops if o["failure"]]
    info = {
        "samples": len(times),
        "op_s.p90": (statistics.quantiles(times, n=10)[-1]
                     if len(times) >= P90_MIN_SAMPLES else None),
        "failed_frac": len(failures) / len(ops),
        "failures": failures[:5],
        "cells_by_vertex_count": {str(nv): hist[nv] for nv in sorted(hist)},
    }
    return times, cells, failures, info


def layer_metrics(tracer, traced_ops, t_untraced, t_traced):
    """Per-layer metrics averaged over the traced ops."""
    totals = per_op_totals(tracer.spans)
    n_ops = len(traced_ops)
    agg = {}
    for k in traced_ops:
        for name, (calls, incl, self_s) in totals.get(k, {}).items():
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s

    def incl(name):
        return agg.get(name, (0, 0.0, 0.0))[1] / n_ops

    def self_(name):
        return agg.get(name, (0, 0.0, 0.0))[2] / n_ops

    cells = agg.get("element.build_element", (0,))[0] / n_ops

    ops = set(traced_ops)
    iters = nnz_it = n_it = triangles = 0
    for name, _, _, _, op, attrs in tracer.spans:
        if op not in ops or attrs is None:
            continue
        if name == "linalg.cg_solve":
            iters += attrs["iters"]
            nnz_it += attrs["nnz"] * attrs["iters"]
            n_it += attrs["n"] * attrs["iters"]
        elif name == "harmonic_fem.subtriangulate":
            triangles += attrs["triangles"]
    nnz = nnz_it / iters if iters else 0.0
    n = n_it / iters if iters else 0.0
    cg_s = incl("linalg.cg_solve")
    m = {f"{layer}.self_s": sum(row[2] for name, row in agg.items()
                                if name.startswith(layer + ".")) / n_ops
         for layer in LAYERS}
    m.update({
        "mesh.generate_s": incl("mesh.generate"),
        "mesh.read_json_s": incl("mesh.read_json"),
        "mesh.validate_s": incl("mesh.validate"),
        "geometry.cell_geometry_s": incl("geometry.cell_geometry"),
        "geometry.fan_quadrature_s": incl("geometry.fan_quadrature"),
        "element.build_element_s": incl("element.build_element"),
        "element.us_per_cell": (1e6 * incl("element.build_element") / cells
                                if cells else 0.0),
        "solver.assemble_s": incl("solver.assemble"),
        "solver.apply_dirichlet_s": incl("solver.apply_dirichlet"),
        "solver.error_norms_s": incl("solver.error_norms"),
        "solver.projection_s": self_("solver.solve"),
        "linalg.cg_s": cg_s,
        "linalg.cg_iters": iters / n_ops,
        "linalg.cg_ms_per_iter": 1e3 * cg_s * n_ops / iters if iters else 0.0,
        "linalg.from_triplets_s": incl("linalg.from_triplets"),
        "linalg.eig_bounds_s": incl("linalg.generalized_eig_bounds"),
        "linalg.nnz": nnz,
        "linalg.cg_flops_per_iter": 2 * nnz + 13 * n,
        "linalg.cg_bytes_per_iter": 24 * nnz + 152 * n,
        "harmonic_fem.subtriangulate_s": incl("harmonic_fem.subtriangulate"),
        "harmonic_fem.harmonic_stiffness_s":
            incl("harmonic_fem.harmonic_stiffness"),
        "harmonic_fem.sub_triangles": triangles / n_ops,
        "cli.main_s": incl("cli.main"),
        "cli.overhead_s": self_("cli.main"),
        "trace.op_s_untraced": statistics.median(t_untraced),
        "trace.op_s_traced": statistics.median(t_traced),
    })
    m["trace.overhead_frac"] = (m["trace.op_s_traced"]
                                / m["trace.op_s_untraced"] - 1.0)
    table = {name: {"calls_per_op": row[0] / n_ops,
                    "inclusive_s_per_op": row[1] / n_ops,
                    "self_s_per_op": row[2] / n_ops}
             for name, row in sorted(agg.items())}
    return m, table


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("perturbed_quad", "polygon_file", "oracle_cells"))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload, seed):
    """One full set-up: import, prepare the inputs, run one warm-up op.
    Returns the workload, the package and the timings."""
    workloads, pv, import_s = import_package()
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](pv, seed, str(OUT))
    try:
        t0 = perf_counter()
        wl.prepare()
        prepare_s = perf_counter() - t0
        warmup_s, _, failure = timed_op(wl, 0)
        if failure is not None:
            raise SystemExit(f"error: warm-up {failure}")
    except BaseException:
        remove_files(wl)
        raise
    return wl, pv, {"setup_s": import_s + prepare_s + warmup_s,
                    "import_s": import_s, "prepare_s": prepare_s,
                    "warmup_s": warmup_s}


def remove_files(wl):
    for path in getattr(wl, "files", ()):
        if os.path.exists(path):
            os.remove(path)


def print_setup(workload, seed):
    """Set up once in this process and print the timings as JSON."""
    wl, _, timings = set_up(workload, seed)
    remove_files(wl)
    print(json.dumps(timings))


def set_up_in_child(workload, seed):
    """Time one full set-up in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.print_setup({workload!r}, {seed!r})")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    wl, pv, timings = set_up(args.workload, args.seed)
    try:
        return run(args, wl, pv, timings)
    finally:
        remove_files(wl)


def run(args, wl, pv, timings):
    tracer = Tracer() if args.trace else None
    # CPU speed on a shared host drifts over seconds to tens of seconds, so
    # a second set-up, in a fresh interpreter halfway through the loop,
    # samples another moment; setup_s is the median of the two.
    setups = [timings]

    def set_up_again():
        setups.append(set_up_in_child(args.workload, args.seed))

    ops = measure(wl, args.seconds, tracer, pv.package,
                  None if args.trace else set_up_again)
    times, cells, failures, info = summarize_ops(ops)
    info.update({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, ops back to back",
        "setup": {"runs": setups,
                  "definition": "median over the runs of import + "
                                "prepare + one warm-up op, each run in "
                                "a fresh interpreter"},
        "env": environment(),
    })

    if args.trace:
        traced = [o["k"] for o in ops if o["traced"]]
        t_traced = [o["t"] for o in ops if o["traced"]]
        t_untraced = [o["t"] for o in ops if not o["traced"]]
        metrics, table = layer_metrics(tracer, traced, t_untraced, t_traced)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        spans_file = OUT / f"spans-{wl.name}.jsonl"
        tracer.write(spans_file)
        info.update({
            "labels": {name: label for name, (_, label) in PER_LAYER.items()},
            "spans": table,
            "spans_file": str(spans_file.relative_to(ROOT)),
            "unmeasured_modules": {m: "no workload calls it"
                                   for m in UNMEASURED},
        })
        passed = [o["rec"] for o in ops if not o["failure"]]
        if hasattr(wl, "cg_reference") and passed:
            info["cg_reference"] = wl.cg_reference(passed[-1])
    else:
        metrics = {
            "cells_per_s": cells / sum(times),
            "op_s.p50": statistics.median(times),
            "setup_s": statistics.median(t["setup_s"] for t in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
