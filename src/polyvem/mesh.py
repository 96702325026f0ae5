"""Polygonal meshes of the unit square: data model, generators, JSON I/O.

A mesh is a flat vertex array plus one CCW vertex-index loop per cell.
Hanging nodes are ordinary polygon vertices (a square with a midpoint on
one side is stored as a pentagon), so no constraint bookkeeping exists
anywhere downstream.

All generators are deterministic: integer lattice constructions where
possible, and a tiny documented xorshift generator where randomness is
requested, so equal specs give byte-identical JSON files.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    ParseError,
    UnsupportedResolution,
    ValidationError,
)
from .geometry import CellBatch

FAMILIES = ("quad", "perturbed_quad", "triangle", "hexagon", "hanging_node")

_MASK64 = (1 << 64) - 1


class XorShift64Star:
    """xorshift64* pseudo-random generator.

    State update on 64-bit unsigned integers:
        s ^= s >> 12;  s ^= s << 25;  s ^= s >> 27
    output = (s * 0x2545F4914F6CDD1D) mod 2^64, and uniform doubles take
    the top 53 bits: (output >> 11) * 2^-53. A zero seed is replaced by
    0x9E3779B97F4A7C15 so the state never sticks at zero.

    This generator is part of the mesh file contract: perturbed meshes
    are reproducible across implementations from the seed alone.
    """

    def __init__(self, seed):
        s = int(seed) & _MASK64
        if s == 0:
            s = 0x9E3779B97F4A7C15
        self.state = s

    def next_u64(self):
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class MeshFamilySpec:
    """Recipe for one generated mesh of the unit square."""

    family: str
    n: int
    perturbation: float = 0.25
    seed: int = 0


class PolygonalMesh:
    """Immutable polygonal mesh with derived edge topology.

    vertices: (V, 2) float array of finite coordinates. cells: list of
    integer index arrays, each a CCW loop. Edges are undirected
    (vmin, vmax) pairs; the incident cell lists follow the order cells
    were given in.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
        self.cells = [np.asarray(c, dtype=np.int64).ravel() for c in cells]
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            vi = int(np.flatnonzero(~finite)[0])
            x, y = self.vertices[vi]
            raise ValidationError(
                f"vertex {vi} has a non-finite coordinate ({x}, {y})")
        self._sizes = np.array([len(c) for c in self.cells], dtype=np.int64)
        self._flat = (np.concatenate(self.cells) if self.cells
                      else np.zeros(0, dtype=np.int64))
        self._starts = np.cumsum(self._sizes) - self._sizes
        V = len(self.vertices)
        out = np.flatnonzero((self._flat < 0) | (self._flat >= V))
        if out.size:
            # the last cell starting at or before the first bad entry
            ci = int(np.searchsorted(self._starts, out[0], side="right")) - 1
            raise IndexOutOfRange(
                f"cell {ci} references a vertex outside [0, {V})")
        self._build_topology()
        self._groups = None

    def _build_topology(self):
        # every directed edge tail -> head in cell order, without the
        # degenerate tail == head ones (validate() reports those)
        tail = self._flat
        head_at = np.arange(1, len(tail) + 1)
        nonempty = self._sizes > 0
        head_at[(self._starts + self._sizes)[nonempty] - 1] = \
            self._starts[nonempty]
        head = tail[head_at]
        cell = np.repeat(np.arange(len(self.cells)), self._sizes)
        keep = tail != head
        tail, head, cell = tail[keep], head[keep], cell[keep]
        lo, hi = np.minimum(tail, head), np.maximum(tail, head)
        order = np.lexsort((hi, lo))  # stable: cell order within an edge
        lo, hi, tail, cell = lo[order], hi[order], tail[order], cell[order]
        new = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        first = np.flatnonzero(np.r_[len(lo) > 0, new])
        counts = np.diff(np.r_[first, len(lo)])
        self.edges = np.column_stack([lo[first], hi[first]])
        cells = cell.tolist()
        self.edge_cells = [cells[s:s + c]
                           for s, c in zip(first.tolist(), counts.tolist())]
        # per edge: first traversal, number of traversals, and the tail of
        # every traversal in edge order, for validate()
        self._edge_first, self._edge_counts = first, counts
        self._edge_tails = tail
        self.boundary_edge_ids = np.flatnonzero(counts == 1)
        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[self.edges[self.boundary_edge_ids].ravel()] = True
        self.boundary_vertex_flags = flags

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    def cell_vertices(self, ci):
        """Coordinates of cell ci as an (N, 2) array."""
        if not 0 <= ci < len(self.cells):
            raise IndexOutOfRange(f"cell index {ci} outside [0, {len(self.cells)})")
        return self.vertices[self.cells[ci]]

    def cell_groups(self):
        """Cells grouped by vertex count N, in ascending N.

        A list of (ids, loops, geometry): ids (C,) the cell indices in
        ascending order, loops (C, N) their vertex loops, and geometry
        their CellBatch (None when N < 3). Computed once; the mesh is
        immutable.
        """
        if self._groups is None:
            groups = []
            for n in np.unique(self._sizes):
                ids = np.flatnonzero(self._sizes == n)
                loops = self._flat[self._starts[ids, None] + np.arange(n)]
                geo = CellBatch(self.vertices[loops]) if n >= 3 else None
                groups.append((ids, loops, geo))
            self._groups = groups
        return self._groups

    def max_diameter(self):
        return max((float(geo.diameter.max())
                    for _, _, geo in self.cell_groups() if geo is not None),
                   default=0.0)

    def __eq__(self, other):
        if not isinstance(other, PolygonalMesh):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and np.array_equal(self.vertices, other.vertices)
                and len(self.cells) == len(other.cells)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.cells, other.cells)))


def boundary_vertices(mesh):
    """Sorted indices of vertices touching at least one boundary edge."""
    return np.nonzero(mesh.boundary_vertex_flags)[0]


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _cell_violations(loops, geo):
    """(C,) per-cell message, "" where the cell is fine; the first failed
    check of each cell wins."""
    out = np.full(len(loops), "", dtype=object)
    if loops.shape[1] < 3:
        out[:] = "fewer than 3 distinct vertices"
        return out
    s = np.sort(loops, axis=1)
    checks = (
        ((s[:, 1:] != s[:, :-1]).sum(axis=1) < 2,
         "fewer than 3 distinct vertices"),
        ((loops == np.roll(loops, -1, axis=1)).any(axis=1),
         "repeated consecutive vertex index"),
        (geo.bad_area, "non-positive area (clockwise or degenerate)"),
        (geo.short_edge.any(axis=1), "zero-length edge"),
        (geo.bad_fan.any(axis=1),
         "not star-shaped with respect to its centroid"),
    )
    for mask, text in reversed(checks):
        out[mask] = text
    return out


def _may_have_close_pair(vertices, tol):
    """False only if no two vertices lie within tol of each other in both
    coordinates: a vectorized screen before the exact search.

    Sorted by x, vertices split into runs wherever consecutive x differ
    by more than tol; two vertices within tol in x share a run, and in
    that run sorted by y no gap between them exceeds tol. The gaps are
    taken on halved coordinates so that they cannot overflow.
    """
    x, y, tol = vertices[:, 0] / 2, vertices[:, 1] / 2, tol / 2
    order = np.argsort(x, kind="stable")
    run = np.cumsum(np.r_[0, np.diff(x[order]) > tol])
    by_run = np.lexsort((y[order], run))
    run, ys = run[by_run], y[order][by_run]
    return bool(np.any((run[1:] == run[:-1]) & (np.diff(ys) <= tol)))


def validate(mesh):
    """Check every structural invariant and report all violations found."""
    report = ValidationReport()
    say = report.violations.append

    per_cell = np.full(mesh.n_cells, "", dtype=object)
    for ids, loops, geo in mesh.cell_groups():
        per_cell[ids] = _cell_violations(loops, geo)
    for ci in np.flatnonzero(per_cell != ""):
        say(f"cell {ci}: {per_cell[ci]}")

    counts, first = mesh._edge_counts, mesh._edge_first
    twice = np.zeros(len(counts), dtype=bool)
    pairs = first[counts == 2]
    twice[counts == 2] = mesh._edge_tails[pairs] == mesh._edge_tails[pairs + 1]
    for ei in np.flatnonzero((counts > 2) | twice):
        a, b = mesh.edges[ei]
        if counts[ei] > 2:
            say(f"edge ({a},{b}): incident to {counts[ei]} cells (non-manifold)")
        else:
            say(f"edge ({a},{b}): traversed in the same direction twice")

    in_cell = np.zeros(mesh.n_vertices, dtype=bool)
    in_cell[mesh._flat] = True
    for vi in np.nonzero(~in_cell)[0]:
        say(f"vertex {vi}: not referenced by any cell")

    if mesh.n_vertices:
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        # quartered first: the box diagonal overflows for coordinates
        # near +-1e308; scaling by 4 is exact, so tol is unchanged elsewhere
        tol = 4e-12 * float(np.hypot(*(hi / 4 - lo / 4)))
        if tol > 0 and _may_have_close_pair(mesh.vertices, tol):
            bins = {}
            for vi, (x, y) in enumerate(mesh.vertices):
                keyx, keyy = int(np.floor(x / tol)), int(np.floor(y / tol))
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for vj in bins.get((keyx + dx, keyy + dy), ()):
                            d = np.hypot(x - mesh.vertices[vj, 0],
                                         y - mesh.vertices[vj, 1])
                            if d <= tol:
                                say(f"vertices {vj} and {vi}: closer than "
                                    "1e-12 of the domain diameter")
                bins.setdefault((keyx, keyy), []).append(vi)

    return report


# ---------------------------------------------------------------------------
# generators


def _generate_quad(n):
    xs = np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            cells.append([vid(i, j), vid(i + 1, j),
                          vid(i + 1, j + 1), vid(i, j + 1)])
    return vertices, cells


def _generate_perturbed_quad(n, perturbation, seed):
    vertices, cells = _generate_quad(n)
    rng = XorShift64Star(seed)
    amp = perturbation / n
    # two draws per interior vertex, x then y, in vertex-index order;
    # boundary vertices take no draws so the domain stays exactly [0,1]^2
    for vi in range(len(vertices)):
        i, j = vi % (n + 1), vi // (n + 1)
        if 0 < i < n and 0 < j < n:
            vertices[vi, 0] += (2.0 * rng.uniform() - 1.0) * amp
            vertices[vi, 1] += (2.0 * rng.uniform() - 1.0) * amp
    return vertices, cells


def _generate_triangle(n):
    vertices, _ = _generate_quad(n)

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            # split along the bottom-left to top-right diagonal
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            cells.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return vertices, cells


# pointy-top hexagon on the integer lattice, CCW from the lower-right
_HEX_OFFSETS = ((1, -1), (1, 1), (0, 2), (-1, 1), (-1, -1), (0, -2))


def _clip_axis(poly, axis, bound, keep_le):
    """Sutherland-Hodgman clip of an integer polygon by one axis line.

    Polygon edges here have slope 0 in the clip axis never (hex edges are
    vertical or slope +-1, and earlier clips only add edges on the clip
    lines), so every intersection has integer coordinates and the whole
    construction stays exact.
    """
    def inside(p):
        return p[axis] <= bound if keep_le else p[axis] >= bound

    def crossing(a, b):
        o = 1 - axis
        t_num = bound - a[axis]
        t_den = b[axis] - a[axis]
        other = a[o] + (b[o] - a[o]) * t_num // t_den
        return (bound, other) if axis == 0 else (other, bound)

    out = []
    m = len(poly)
    for k in range(m):
        a, b = poly[k], poly[(k + 1) % m]
        if inside(a):
            out.append(a)
            if not inside(b):
                out.append(crossing(a, b))
        elif inside(b):
            out.append(crossing(a, b))
    return out


def _dedupe_loop(poly):
    out = []
    for p in poly:
        if not out or p != out[-1]:
            out.append(p)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return out


def _int_shoelace2(poly):
    s = 0
    m = len(poly)
    for k in range(m):
        x0, y0 = poly[k]
        x1, y1 = poly[(k + 1) % m]
        s += x0 * y1 - x1 * y0
    return s


def _generate_hexagon(n):
    """Hexagon-dominant tiling with exact integer cut cells.

    The honeycomb lives on an integer lattice where each hexagon spans 2
    units across and 4 tall; the window [0, 2n]^2 is clipped out and then
    scaled by 1/(2n). All clip intersections are integers, so cut cells
    on the boundary are exact and shared vertices match bit for bit.
    """
    if n < 2:
        raise UnsupportedResolution("hexagon family requires n >= 2")
    L = 2 * n
    cells_keys = []
    r = 0
    while 3 * r - 2 < L:
        par = r % 2
        c = 0
        while 2 * c + par - 1 < L:
            cx, cy = 2 * c + par, 3 * r
            poly = [(cx + dx, cy + dy) for dx, dy in _HEX_OFFSETS]
            for axis, bound, keep_le in ((0, 0, False), (0, L, True),
                                         (1, 0, False), (1, L, True)):
                poly = _clip_axis(poly, axis, bound, keep_le)
                if not poly:
                    break
            poly = _dedupe_loop(poly)
            if len(poly) >= 3 and _int_shoelace2(poly) > 0:
                cells_keys.append(poly)
            c += 1
        r += 1

    index = {}
    cells = []
    for poly in cells_keys:
        loop = []
        for key in poly:
            if key not in index:
                index[key] = len(index)
            loop.append(index[key])
        cells.append(loop)
    scale = 1.0 / L
    vertices = np.array([[kx * scale, ky * scale] for kx, ky in index])
    return vertices, cells


def _generate_hanging_node(n):
    """Square mesh with the quadrant [0, 0.5]^2 refined once.

    Built on a half-step integer lattice (spacing 1/(2n)) so hanging
    vertices on the quadrant interface are exact midpoints. Parent cells
    bordering the refined quadrant keep the midpoint as an ordinary,
    collinear polygon vertex.
    """
    if n < 2 or n % 2:
        raise UnsupportedResolution("hanging_node family requires even n >= 2")
    half = n // 2
    index = {}
    cells = []

    def vid(kx, ky):
        if (kx, ky) not in index:
            index[(kx, ky)] = len(index)
        return index[(kx, ky)]

    def add(loop_keys):
        cells.append([vid(*k) for k in loop_keys])

    for j in range(n):
        for i in range(n):
            x0, y0 = 2 * i, 2 * j
            if i < half and j < half:
                for dj in (0, 1):
                    for di in (0, 1):
                        a, b = x0 + di, y0 + dj
                        add([(a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1)])
            elif i == half and j < half:
                # right neighbor of the quadrant: midpoint on the left edge
                add([(x0, y0), (x0 + 2, y0), (x0 + 2, y0 + 2),
                     (x0, y0 + 2), (x0, y0 + 1)])
            elif j == half and i < half:
                # top neighbor: midpoint on the bottom edge
                add([(x0, y0), (x0 + 1, y0), (x0 + 2, y0),
                     (x0 + 2, y0 + 2), (x0, y0 + 2)])
            else:
                add([(x0, y0), (x0 + 2, y0), (x0 + 2, y0 + 2), (x0, y0 + 2)])

    scale = 1.0 / (2 * n)
    vertices = np.array([[kx * scale, ky * scale] for kx, ky in index])
    return vertices, cells


def generate(spec):
    """Build the mesh described by a MeshFamilySpec."""
    if spec.family not in FAMILIES:
        raise ValueError(
            f"unknown family {spec.family!r}; valid: {', '.join(FAMILIES)}")
    n = int(spec.n)
    if n < 1:
        raise UnsupportedResolution("resolution must be a positive integer")
    if spec.family == "quad":
        vertices, cells = _generate_quad(n)
    elif spec.family == "perturbed_quad":
        if not 0.0 <= spec.perturbation < 0.5:
            raise ValueError("perturbation must lie in [0, 0.5)")
        vertices, cells = _generate_perturbed_quad(
            n, float(spec.perturbation), spec.seed)
    elif spec.family == "triangle":
        vertices, cells = _generate_triangle(n)
    elif spec.family == "hexagon":
        vertices, cells = _generate_hexagon(n)
    else:
        vertices, cells = _generate_hanging_node(n)
    return PolygonalMesh(vertices, cells)


# ---------------------------------------------------------------------------
# JSON interchange


def to_json_text(mesh):
    """Serialize a mesh with 17-significant-digit coordinates.

    The text is fully determined by the mesh, so equal meshes produce
    byte-identical files.
    """
    lines = ["{", '"vertices": [']
    for k, (x, y) in enumerate(mesh.vertices):
        comma = "," if k + 1 < mesh.n_vertices else ""
        lines.append(f"[{x:.17g}, {y:.17g}]{comma}")
    lines.append("],")
    lines.append('"cells": [')
    for k, loop in enumerate(mesh.cells):
        comma = "," if k + 1 < mesh.n_cells else ""
        lines.append("[" + ", ".join(str(int(v)) for v in loop) + f"]{comma}")
    lines.append("]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_json(mesh, path):
    """Write a mesh as JSON; see to_json_text."""
    with open(path, "w", newline="\n") as fh:
        fh.write(to_json_text(mesh))


def _expect(cond, what):
    if not cond:
        raise ParseError(what)


def read_json(path):
    """Read and validate a mesh file; see write_json for the format."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None

    _expect(isinstance(doc, dict), "top level must be a JSON object")
    _expect("vertices" in doc, 'missing "vertices" key')
    _expect("cells" in doc, 'missing "cells" key')
    verts = doc["vertices"]
    cells = doc["cells"]
    _expect(isinstance(verts, list), '"vertices" must be an array')
    _expect(isinstance(cells, list), '"cells" must be an array')
    # json.loads gives exact list/int/float/bool types; bool is no number
    number = (int, float)
    for k, p in enumerate(verts):
        if not (type(p) is list and len(p) == 2
                and type(p[0]) in number and type(p[1]) in number):
            raise ParseError(f"vertices[{k}] must be a pair of numbers")
    for k, loop in enumerate(cells):
        if not (type(loop) is list and set(map(type, loop)) <= {int}):
            raise ParseError(f"cells[{k}] must be an array of integer indices")

    try:
        xy = np.array(verts, dtype=float).reshape(-1, 2)
    except OverflowError:
        # an integer beyond the float range; name the first such vertex
        for k, p in enumerate(verts):
            try:
                np.array(p, dtype=float)
            except OverflowError:
                raise ValidationError(
                    f"vertex {k} has a coordinate too large for a "
                    "float") from None
    try:
        mesh = PolygonalMesh(xy, cells)
    except IndexOutOfRange as e:
        raise ValidationError(str(e)) from None
    report = validate(mesh)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return mesh
