"""Polygonal meshes of the unit square: data model, generators, JSON I/O.

A mesh is a flat vertex array plus one ragged array of cells: the CCW
vertex-index loops of all cells concatenated, with each loop's length.
Hanging nodes are ordinary polygon vertices (a square with a midpoint on
one side is stored as a pentagon), so no constraint bookkeeping exists
anywhere downstream.

All generators are deterministic: integer lattice constructions where
possible, and a tiny documented xorshift generator where randomness is
requested, so equal specs give byte-identical JSON files.
"""

import itertools
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
from .linalg import _key_bits, _stable_order

FAMILIES = ("quad", "perturbed_quad", "triangle", "hexagon", "hanging_node")

# read_json's error message names at most this many violations, then
# counts the rest
_REPORTED_VIOLATIONS = 20

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
        self._state = s

    def next_u64(self):
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53


@dataclass(frozen=True)
class MeshFamilySpec:
    """Recipe for one generated mesh of the unit square.

    perturbation may be any value in [0, 0.5), but near the top of that
    range a jittered cell can turn inside out, and validation rejects
    the mesh (n=16, seed 7 at 0.49; at n=32, 4 of seeds 0-19 at 0.45).
    """

    family: str
    n: int
    perturbation: float = 0.25
    seed: int = 0


def _flatten(cells):
    """(flat, sizes) of an iterable of vertex index loops; an index
    beyond int64 becomes -1, which the range check reports."""
    cells = list(cells)
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    try:
        flat = np.fromiter(itertools.chain.from_iterable(cells), np.int64)
    except OverflowError:
        flat = np.array([v if -(1 << 63) <= v < 1 << 63 else -1
                         for loop in cells for v in loop], dtype=np.int64)
    return flat, sizes


class PolygonalMesh:
    """Immutable polygonal mesh with derived edge topology.

    vertices: (V, 2) float array of finite coordinates. The cells are one
    ragged array: the vertex indices of every CCW cell loop, concatenated
    in cell order, with the per-cell sizes and start offsets beside it.
    `cells` splits it into one index array per cell on first access.
    Edges are undirected (vmin, vmax) pairs; the incident cell lists
    follow the order cells were given in.
    """

    def __init__(self, vertices, cells):
        self._init_ragged(vertices, *_flatten(cells))

    @classmethod
    def _from_ragged(cls, vertices, flat, sizes):
        """Mesh from its ragged cell array: the loops' vertex indices
        concatenated in cell order (flat) and the loop lengths (sizes)."""
        mesh = cls.__new__(cls)
        mesh._init_ragged(vertices, flat, sizes)
        return mesh

    def _init_ragged(self, vertices, flat, sizes):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            vi = int(np.flatnonzero(~finite)[0])
            x, y = self.vertices[vi]
            raise ValidationError(
                f"vertex {vi} has a non-finite coordinate ({x}, {y})")
        self._flat, self._sizes = flat, sizes
        flat.flags.writeable = False
        self._starts = np.cumsum(sizes) - sizes
        V = len(self.vertices)
        out = np.flatnonzero((flat < 0) | (flat >= V))
        if out.size:
            # the last cell starting at or before the first bad entry
            ci = int(np.searchsorted(self._starts, out[0], side="right")) - 1
            raise IndexOutOfRange(
                f"cell {ci} references a vertex outside [0, {V})")
        self._build_topology()
        self._groups = None
        self._cells = None

    def _build_topology(self):
        # every directed edge tail -> head in cell order, without the
        # degenerate tail == head ones (validate() reports those)
        tail = self._flat
        head_at = np.arange(1, len(tail) + 1)
        nonempty = self._sizes > 0
        head_at[(self._starts + self._sizes)[nonempty] - 1] = \
            self._starts[nonempty]
        head = tail[head_at]
        keep = tail != head
        tail, head = tail[keep], head[keep]
        # edge key lo << s | hi, sorted stably: cell order within an edge
        s = _key_bits(len(self.vertices))
        key = np.minimum(tail, head) << s
        key |= np.maximum(tail, head)
        key, order = _stable_order(key, 1 << 2 * s)
        tail = tail[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        counts = np.diff(np.r_[first, len(key)])
        key = key[first]
        self.edges = np.column_stack((key >> s, key & ((1 << s) - 1)))
        # per edge: first traversal, number of traversals, and the tail of
        # every traversal in edge order, for validate()
        self._edge_first, self._edge_counts = first, counts
        self._edge_tails = tail
        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[self.edges[counts == 1].ravel()] = True
        self.boundary_vertex_flags = flags

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self._sizes)

    @property
    def cells(self):
        """One read-only vertex index array per cell, split from the
        ragged array on first access."""
        if self._cells is None:
            self._cells = [self._flat[s:s + n] for s, n in
                           zip(self._starts.tolist(), self._sizes.tolist())]
        return self._cells

    def cell_vertices(self, ci):
        """Coordinates of cell ci as an (N, 2) array."""
        if not 0 <= ci < self.n_cells:
            raise IndexOutOfRange(f"cell index {ci} outside [0, {self.n_cells})")
        return self.vertices[self._flat[self._starts[ci]:][:self._sizes[ci]]]

    def cell_groups(self):
        """Cells grouped by vertex count N, in ascending N.

        A list of (ids, loops, geometry): ids (C,) the cell indices in
        ascending order, loops (C, N) their vertex loops, and geometry
        their CellBatch, which flags a cell of fewer than 3 vertices as
        degenerate. Computed once; the mesh is immutable.
        """
        if self._groups is None:
            groups = []
            for n in np.flatnonzero(np.bincount(self._sizes)):
                ids = np.flatnonzero(self._sizes == n)
                loops = self._flat[self._starts[ids, None] + np.arange(n)]
                groups.append((ids, loops, CellBatch(self.vertices[loops])))
            self._groups = groups
        return self._groups

    def max_diameter(self):
        return max((float(geo.diameter.max())
                    for _, _, geo in self.cell_groups()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, PolygonalMesh):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self._sizes, other._sizes)
                and np.array_equal(self._flat, other._flat))


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def _cell_violations(loops, geo):
    """(C,) per-cell message, "" where the cell is fine: the index checks
    first, then the text of the batch's error for the cell."""
    out = np.full(len(loops), "", dtype=object)
    for k in np.flatnonzero(geo.faulty()):
        out[k] = str(geo.error(k))
    s = np.sort(loops, axis=1)
    out[(loops == np.roll(loops, -1, axis=1)).any(axis=1)] = \
        "repeated consecutive vertex index"
    out[(s[:, 1:] != s[:, :-1]).sum(axis=1) < 2] = \
        "fewer than 3 distinct vertices"
    return out


def _close_pair_candidates(vertices, tol):
    """(V,) mask, False only where a vertex lies within tol of no other
    vertex in both coordinates: a vectorized screen before the exact search.

    Sorted by x, vertices split into runs wherever consecutive x differ
    by more than tol; two vertices within tol in x share a run, and in
    that run sorted by y no gap between them exceeds tol, so each of the
    two ends such a gap. The gaps are taken on halved coordinates so that
    they cannot overflow.
    """
    x, y, tol = vertices[:, 0] / 2, vertices[:, 1] / 2, tol / 2
    order = np.argsort(x, kind="stable")
    run = np.cumsum(np.r_[0, np.diff(x[order]) > tol])
    by_run = np.lexsort((y[order], run))
    run, ys = run[by_run], y[order][by_run]
    gap = (run[1:] == run[:-1]) & (np.diff(ys) <= tol)
    mask = np.zeros(len(vertices), dtype=bool)
    mask[order[by_run]] = np.r_[gap, False] | np.r_[False, gap]
    return mask


def validate(mesh):
    """Check every structural invariant and report all violations found.
    A cell is reported by its index checks, then by CellBatch's error.
    Only solve checks G for singularity: validate builds no elements."""
    report = ValidationReport()
    say = report.violations.append

    per_cell = np.full(mesh.n_cells, "", dtype=object)
    # the corner angles about each vertex, and the vertices not to check
    # for a fold: those on a boundary edge, in no cell or in a bad cell
    angles = np.zeros(mesh.n_vertices)
    unchecked = mesh.boundary_vertex_flags.copy()
    for ids, loops, geo in mesh.cell_groups():
        per_cell[ids] = _cell_violations(loops, geo)
        unchecked[loops[per_cell[ids] != ""]] = True
        # corner i turns from edge i - 1 to edge i, as their normals do;
        # its interior angle is pi minus that turn, in (0, 2 pi)
        n, m = geo.edge_normals, np.roll(geo.edge_normals, 1, axis=1)
        with np.errstate(all="ignore"):
            turn = np.arctan2(m[..., 0] * n[..., 1] - m[..., 1] * n[..., 0],
                              (m * n).sum(axis=2))
        angles += np.bincount(loops.ravel(), (np.pi - turn).ravel(),
                              mesh.n_vertices)
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
    unchecked |= ~in_cell
    for vi in np.nonzero(~in_cell)[0]:
        say(f"vertex {vi}: not referenced by any cell")

    if mesh.n_vertices:
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        # quartered first: the box diagonal overflows for coordinates
        # near +-1e308; scaling by 4 is exact, so tol is unchanged elsewhere
        tol = 4e-12 * float(np.hypot(*(hi / 4 - lo / 4)))
        if tol > 0:
            # each vertex is reported once, with one earlier close partner:
            # the latest in its own bin, or else in the first bin around it
            # that holds one, so a vertex of a coincident group stops at its
            # predecessor, whatever else shares or borders its bin
            bins = {}
            steps = [(0, 0)] + [(dx, dy) for dx in (-1, 0, 1)
                                for dy in (-1, 0, 1) if dx or dy]
            for vi in np.flatnonzero(
                    _close_pair_candidates(mesh.vertices, tol)):
                x, y = mesh.vertices[vi]
                keyx, keyy = int(np.floor(x / tol)), int(np.floor(y / tol))
                partner = next(
                    (vj for dx, dy in steps
                     for vj in reversed(bins.get((keyx + dx, keyy + dy), ()))
                     if np.hypot(x - mesh.vertices[vj, 0],
                                 y - mesh.vertices[vj, 1]) <= tol), None)
                if partner is not None:
                    say(f"vertices {partner} and {vi}: closer than "
                        "1e-12 of the domain diameter")
                bins.setdefault((keyx, keyy), []).append(vi)

    # the cells about an interior vertex cover a full turn k times, once
    # in a mesh; more and they fold over each other there
    turns = np.rint(angles / (2 * np.pi))
    for vi in np.flatnonzero(~unchecked & (turns != 1)):
        say(f"vertex {vi}: the corner angles of its cells sum to "
            f"{2 * turns[vi]:g} pi, not 2 pi (the cells fold over it)")
    return report


# ---------------------------------------------------------------------------
# generators


def _generate_quad(n):
    xs = np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    corners = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    loops = corners[:, None] + [0, 1, n + 2, n + 1]
    return vertices, loops.ravel(), np.full(n * n, 4)


def _generate_perturbed_quad(n, perturbation, seed):
    vertices, flat, sizes = _generate_quad(n)
    rng = XorShift64Star(seed)
    # two draws per interior vertex, x then y, in vertex-index order;
    # boundary vertices take no draws so the domain stays exactly [0,1]^2
    interior = ((vertices > 0) & (vertices < 1)).all(axis=1)
    draws = np.fromiter((rng.uniform() for _ in range(2 * interior.sum())),
                        dtype=float)
    amp = perturbation / n
    vertices[interior] += ((2.0 * draws - 1.0) * amp).reshape(-1, 2)
    return vertices, flat, sizes


def _generate_triangle(n):
    vertices, quads, _ = _generate_quad(n)
    # split along the bottom-left to top-right diagonal
    loops = quads.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]]
    return vertices, loops.ravel(), np.full(2 * n * n, 3)


def _first_appearance(keys):
    """Number the distinct rows of a non-negative (M, 2) integer array in
    order of first appearance: (ids, points), ids (M,) the number of each
    row and points (V, 2) the distinct rows in that order."""
    code = keys[:, 0] * (keys[:, 1].max() + 1) + keys[:, 1]
    _, first, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse.ravel()], keys[first[order]]


# the boundary lattice points of a pointy-top hexagon, CCW from the
# lower-right: its six corners and the midpoints of its two vertical sides
_HEX_RING = np.array([(1, -1), (1, 0), (1, 1), (0, 2),
                      (-1, 1), (-1, 0), (-1, -1), (0, -2)])
_HEX_CORNERS = np.isin(np.arange(8), [0, 2, 3, 4, 6, 7])


def _generate_hexagon(n):
    """Hexagon-dominant tiling with exact integer cut cells.

    The honeycomb lives on an integer lattice where each hexagon spans 2
    units across and 4 tall, and the window [0, 2n]^2 is scaled by
    1/(2n). Hexagon sides are vertical or of slope +-1 and the window
    sides lie on lattice lines, so they meet only at the 8 points of
    _HEX_RING: clamping that ring into the window traces the cut cell
    exactly. A cut cell keeps the corners of its clamped ring, starting
    from the first ring point inside the window, and shared vertices
    match bit for bit.
    """
    if n < 2:
        raise UnsupportedResolution("hexagon family requires n >= 2")
    L = 2 * n
    # row r holds the centres (2c + r % 2, 3r) of the hexagons that
    # overlap the window with positive area: n + 1 of them on even rows
    # and n on odd rows
    r, c = np.divmod(np.arange(((L + 1) // 3 + 1) * (n + 1)), n + 1)
    keep = c < n + 1 - r % 2
    rings = np.column_stack([2 * c + r % 2, 3 * r])[keep, None] + _HEX_RING
    inside = ((rings >= 0) & (rings <= L)).all(axis=2)
    cut = ~inside.all(axis=1)
    turn = (inside[cut].argmax(axis=1)[:, None] + np.arange(8)) % 8
    ring = np.clip(np.take_along_axis(rings[cut], turn[..., None], axis=1),
                   0, L)
    step = np.sign(np.roll(ring, -1, axis=1) - ring)
    moves = step.any(axis=2)
    # the last move before each point, counting cyclically; a point is a
    # corner where the direction changes, which skips repeats of a point
    # and the collinear points the clamp leaves on a window side
    last = np.maximum.accumulate(np.where(np.tile(moves, 2), np.arange(16),
                                          0), axis=1)[:, 7:15] % 8
    corner = moves & (step != np.take_along_axis(step, last[..., None],
                                                 axis=1)).any(axis=2)
    rings[cut] = ring
    used = np.tile(_HEX_CORNERS, (len(rings), 1))
    used[cut] = corner
    flat, points = _first_appearance(rings[used])
    return points * (1.0 / L), flat, used.sum(axis=1)


# the cells of hanging_node on its half-step lattice, padded to 5 points,
# with their sizes: a subcell of the refined quadrant, the quadrant's right
# and top neighbours (each with the midpoint of the shared edge as a
# hanging vertex), and a plain square
_HANGING_LOOPS = np.array([
    [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)],
    [(0, 0), (2, 0), (2, 2), (0, 2), (0, 1)],
    [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)],
])
_HANGING_SIZES = np.array([4, 5, 5, 4])


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
    j, i = np.divmod(np.arange(n * n), n)
    kind = np.select([(i < half) & (j < half), (i == half) & (j < half),
                      (j == half) & (i < half)], [0, 1, 2], 3)
    # a refined square holds its four subcells, row by row
    square = np.repeat(np.arange(n * n), np.where(kind == 0, 4, 1))
    sub = np.arange(len(square)) - np.searchsorted(square, square)
    origin = 2 * np.column_stack([i, j])[square] + np.column_stack(
        [sub % 2, sub // 2])
    kind = kind[square]
    keys = origin[:, None] + _HANGING_LOOPS[kind]
    used = np.arange(5) < _HANGING_SIZES[kind][:, None]
    flat, points = _first_appearance(keys[used])
    return points * (1.0 / (2 * n)), flat, _HANGING_SIZES[kind]


def generate(spec):
    """Build the mesh described by a MeshFamilySpec."""
    if spec.family not in FAMILIES:
        raise ValueError(
            f"unknown family {spec.family!r}; valid: {', '.join(FAMILIES)}")
    n = int(spec.n)
    if n < 1:
        raise UnsupportedResolution("resolution must be a positive integer")
    if spec.family == "quad":
        ragged = _generate_quad(n)
    elif spec.family == "perturbed_quad":
        if not 0.0 <= spec.perturbation < 0.5:
            raise ValueError("perturbation must lie in [0, 0.5)")
        ragged = _generate_perturbed_quad(
            n, float(spec.perturbation), spec.seed)
    elif spec.family == "triangle":
        ragged = _generate_triangle(n)
    elif spec.family == "hexagon":
        ragged = _generate_hexagon(n)
    else:
        ragged = _generate_hanging_node(n)
    return PolygonalMesh._from_ragged(*ragged)


# ---------------------------------------------------------------------------
# JSON interchange


def to_json_text(mesh):
    """Serialize a mesh with 17-significant-digit coordinates.

    The text is fully determined by the mesh, so equal meshes produce
    byte-identical files.
    """
    verts = [f"[{x:.17g}, {y:.17g}]" for x, y in mesh.vertices.tolist()]
    index = list(map(str, mesh._flat.tolist()))
    cells = ["[" + ", ".join(index[s:s + n]) + "]" for s, n in
             zip(mesh._starts.tolist(), mesh._sizes.tolist())]
    lines = ["{", '"vertices": [', ",\n".join(verts), "],",
             '"cells": [', ",\n".join(cells), "]", "}"]
    # an empty mesh has no row lines
    return "\n".join(filter(None, lines)) + "\n"


def write_json(mesh, path):
    """Write a mesh as JSON; see to_json_text."""
    with open(path, "w", newline="\n") as fh:
        fh.write(to_json_text(mesh))


def _expect(cond, what):
    if not cond:
        raise ParseError(what)


def read_json(path):
    """Read and validate a mesh file; see write_json for the format."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(
                f"byte {e.start}: not UTF-8 ({e.reason})") from None
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
    # json.loads gives exact list/int/float/bool types; bool is no number.
    # Each list is checked whole first; the loop only names the first bad
    # entry
    number = (int, float)
    chain = itertools.chain.from_iterable
    if not (set(map(type, verts)) <= {list} and set(map(len, verts)) <= {2}
            and set(map(type, chain(verts))) <= set(number)):
        for k, p in enumerate(verts):
            if not (type(p) is list and len(p) == 2
                    and type(p[0]) in number and type(p[1]) in number):
                raise ParseError(f"vertices[{k}] must be a pair of numbers")
    if not (set(map(type, cells)) <= {list}
            and set(map(type, chain(cells))) <= {int}):
        for k, loop in enumerate(cells):
            if not (type(loop) is list and set(map(type, loop)) <= {int}):
                raise ParseError(
                    f"cells[{k}] must be an array of integer indices")

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
    flat, sizes = _flatten(cells)
    # the parsed document is dead once its arrays are built: free it
    # before the mesh allocates its own
    del text, doc, verts, cells
    try:
        mesh = PolygonalMesh._from_ragged(xy, flat, sizes)
    except IndexOutOfRange as e:
        raise ValidationError(str(e)) from None
    report = validate(mesh)
    if not report.ok:
        shown = report.violations[:_REPORTED_VIOLATIONS]
        rest = len(report.violations) - len(shown)
        if rest:
            shown.append(f"and {rest} more")
        raise ValidationError("; ".join(shown))
    return mesh
