"""In-memory spans around calls into polyvem's modules.

The benchmark never edits the package. To trace a run it rebinds, for the
length of one operation, each public function listed in TRACED to a
wrapper that records a span, in every polyvem module namespace that holds
that function (``solver`` calls ``cell_geometry`` through its own import,
so the name is rebound there too). Calls between functions that are not
listed stay inside their caller's span.

A span is a list ``[name, start, end, parent, op, attrs]``: perf_counter
seconds, the index of the enclosing span (-1 for none), the id of the
operation that caused it, and a dict of counts taken from the call's
result (CG iterations, matrix size, sub-triangles) or None.
"""

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). Dotted attributes name a method on a
# class in that module. solver._assemble_parts is the assembly pass of
# solve(); the public assemble() wraps the same function but solve() does
# not call it, so the pass is traced under the public name.
TRACED = (
    ("mesh", "generate", "mesh.generate"),
    ("mesh", "read_json", "mesh.read_json"),
    ("mesh", "validate", "mesh.validate"),
    ("geometry", "cell_geometry", "geometry.cell_geometry"),
    ("geometry", "fan_quadrature", "geometry.fan_quadrature"),
    ("element", "build_element", "element.build_element"),
    ("element", "consistency_check", "element.consistency_check"),
    ("linalg", "SparseSymMatrix.from_triplets", "linalg.from_triplets"),
    ("linalg", "cg_solve", "linalg.cg_solve"),
    ("linalg", "generalized_eig_bounds", "linalg.generalized_eig_bounds"),
    ("solver", "solve", "solver.solve"),
    ("solver", "_assemble_parts", "solver.assemble"),
    ("solver", "apply_dirichlet", "solver.apply_dirichlet"),
    ("solver", "error_norms", "solver.error_norms"),
    ("harmonic_fem", "subtriangulate", "harmonic_fem.subtriangulate"),
    ("harmonic_fem", "harmonic_stiffness", "harmonic_fem.harmonic_stiffness"),
    ("harmonic_fem", "stability_report", "harmonic_fem.stability_report"),
    ("cli", "main", "cli.main"),
)


def _cg_attrs(args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    return {"iters": result.iterations, "n": A.n, "nnz": A.nnz}


def _subtriangulate_attrs(args, kwargs, result):
    return {"triangles": len(result.triangles)}


ATTRS = {
    "linalg.cg_solve": _cg_attrs,
    "harmonic_fem.subtriangulate": _subtriangulate_attrs,
}


class Tracer:
    """Collects spans; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.op, None])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if attrs_of is not None:
                spans[idx][5] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, op_id, package):
        """Trace every TRACED function while one operation runs."""
        self.op = op_id
        restore = _install(self, package)
        try:
            yield
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)
            self.op = None

    def write(self, path):
        """Write all spans as JSON lines, one per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(
                    self.spans):
                rec = {"id": i, "op": op, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def _install(tracer, package):
    """Rebind every TRACED function; return (holder, attr, original)."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith(package.__name__ + ".")}
    restore = []
    for mod_name, attr, span_name in TRACED:
        home = modules[f"{package.__name__}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, raw.__func__))
            else:
                wrapped = tracer.wrap(span_name, raw)
            restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(span_name, original)
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)
    return restore


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    Children of one span never overlap (one thread), so the time they
    cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_op_totals(spans):
    """{op: {name: [calls, inclusive_s, self_s]}} summed over each op."""
    selfs = self_times(spans)
    totals = {}
    for (name, start, end, _, op, _), self_s in zip(spans, selfs):
        row = totals.setdefault(op, {}).setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    return totals
