"""Deterministic SVG rendering of meshes and cell-wise solution values.

The color map has exactly 256 entries, built once by piecewise-linear
interpolation in RGB space between five anchor colors (dark violet,
blue, teal, green, yellow) placed at equal parameter spacing, each
channel rounded to the nearest integer.  A value v in [vmin, vmax]
selects entry floor(256 (v - vmin) / (vmax - vmin)), clamped to
[0, 255]; a constant field (vmin == vmax) maps to entry 128.

All coordinates are written with three decimals and all colors as
integer rgb() triples, so the output bytes depend only on the inputs.
"""

from dataclasses import dataclass

import numpy as np

_ANCHORS = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)


def _build_table():
    table = []
    spans = len(_ANCHORS) - 1
    for i in range(256):
        t = i / 255.0 * spans
        k = min(int(t), spans - 1)
        frac = t - k
        a, b = _ANCHORS[k], _ANCHORS[k + 1]
        table.append(tuple(round(a[c] + frac * (b[c] - a[c]))
                           for c in range(3)))
    return tuple(table)


COLOR_TABLE = _build_table()

# canvas pixels left blank on every side of the mesh
_MARGIN = 20.0


def value_color(value, vmin, vmax):
    """Map a value to an rgb triple through the 256-entry table."""
    if not vmax > vmin:
        return COLOR_TABLE[128]
    idx = int((value - vmin) / (vmax - vmin) * 256.0)
    return COLOR_TABLE[min(max(idx, 0), 255)]


@dataclass
class SvgScene:
    """Canvas-space polygon loops with optional fills and colorbar."""

    width: float
    height: float
    paths: list  # (points (N,2) in canvas coords, fill rgb or None)
    colorbar: tuple | None = None  # (vmin, vmax) when drawn

    def to_svg(self):
        w, h = self.width, self.height
        lines = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w:.0f}" height="{h:.0f}" '
            f'viewBox="0 0 {w:.0f} {h:.0f}">',
            f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        ]
        for points, fill in self.paths:
            steps = " L ".join(f"{x:.3f},{y:.3f}" for x, y in points)
            color = "none" if fill is None else (
                f"rgb({fill[0]},{fill[1]},{fill[2]})")
            lines.append(
                f'<path d="M {steps} Z" fill="{color}" '
                f'stroke="rgb(40,40,40)" stroke-width="1"/>')
        if self.colorbar is not None:
            lines += self._colorbar_lines()
        lines.append("</svg>")
        return "\n".join(lines) + "\n"

    def _colorbar_lines(self):
        vmin, vmax = self.colorbar
        x0 = self.width - 60.0
        y0, bar_h, bar_w, steps = 20.0, self.height - 40.0, 16.0, 64
        out = []
        for r in range(steps):
            color = COLOR_TABLE[round((steps - 1 - r) / (steps - 1) * 255)]
            y = y0 + bar_h * r / steps
            out.append(
                f'<rect x="{x0:.3f}" y="{y:.3f}" width="{bar_w:.3f}" '
                f'height="{bar_h / steps + 0.5:.3f}" '
                f'fill="rgb({color[0]},{color[1]},{color[2]})"/>')
        out.append(
            f'<rect x="{x0:.3f}" y="{y0:.3f}" width="{bar_w:.3f}" '
            f'height="{bar_h:.3f}" fill="none" stroke="rgb(40,40,40)" '
            f'stroke-width="1"/>')
        style = 'font-family="monospace" font-size="12" fill="rgb(40,40,40)"'
        out.append(f'<text x="{x0 + bar_w + 4:.3f}" y="{y0 + 10:.3f}" '
                   f'{style}>{vmax:.4g}</text>')
        out.append(f'<text x="{x0 + bar_w + 4:.3f}" y="{y0 + bar_h:.3f}" '
                   f'{style}>{vmin:.4g}</text>')
        return out


def mesh_scene(mesh, values=None, size=640.0, colorbar=False):
    """Lay a mesh out on a square canvas, optionally filled by values.

    values, when given, holds one number per cell; fills come from
    value_color over the range of values.
    """
    verts = mesh.vertices
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    extent = max(xmax - xmin, ymax - ymin, 1e-300)
    scale = (size - 2.0 * _MARGIN) / extent
    canvas = np.empty_like(verts)
    canvas[:, 0] = _MARGIN + (verts[:, 0] - xmin) * scale
    canvas[:, 1] = size - _MARGIN - (verts[:, 1] - ymin) * scale
    fills = [None] * mesh.n_cells
    crange = None
    if values is not None:
        values = np.asarray(values, dtype=float)
        vmin, vmax = float(values.min()), float(values.max())
        fills = [value_color(v, vmin, vmax) for v in values]
        crange = (vmin, vmax)
    paths = [(canvas[loop], fill) for loop, fill in zip(mesh.cells, fills)]
    width = size + 80.0 if (colorbar and crange is not None) else size
    return SvgScene(width=width, height=size, paths=paths,
                    colorbar=crange if colorbar else None)
