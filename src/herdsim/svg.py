"""Minimal deterministic SVG emission.

Plotting here is presentation only, never computation, and carries no
timestamps or external renderer dependency, so identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import math
from typing import TextIO

from .environment import RATIO_COLUMNS, shell_points


# the blank margin, in pixels, around a Canvas's plot area
PAD = 30


def _fmt(v: float) -> str:
    return f"{v:.3f}"


class Canvas:
    """Fixed-viewport SVG document with a y-up world frame, written to the
    text stream out one element at a time; close() ends the document."""

    def __init__(self, out: TextIO, x_min, x_max, y_min, y_max, width=720, height=720):
        self.out = out
        sx = (width - 2 * PAD) / (x_max - x_min)
        sy = (height - 2 * PAD) / (y_max - y_min)
        self.scale = min(sx, sy)
        self.x_min = x_min
        self.y_max = y_max
        self._element(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                      f'height="{height}" viewBox="0 0 {width} {height}">')
        self._element(f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>')

    def _element(self, text: str) -> None:
        self.out.write(text)
        self.out.write("\n")

    def to_px(self, x, y):
        return (PAD + (x - self.x_min) * self.scale,
                PAD + (self.y_max - y) * self.scale)

    def polyline(self, points, stroke="black", width=1.0, dash=None):
        x_min, y_max, k = self.x_min, self.y_max, self.scale
        # to_px and _fmt, inline: one f-string per point
        px = " ".join(f"{PAD + (x - x_min) * k:.3f},{PAD + (y_max - y) * k:.3f}"
                      for x, y in points)
        self._polyline(px, stroke, width, dash)

    def x_px(self, xs) -> list:
        """Pixel x of each world x, formatted for series()."""
        x_min, k = self.x_min, self.scale
        return [f"{PAD + (x - x_min) * k:.3f}," for x in xs]

    def series(self, x_px, ys, stroke="black", width=1.0):
        """polyline() through the points (x, y), each x given by x_px(), so
        that curves over one axis format it once."""
        y_max, k = self.y_max, self.scale
        px = " ".join([f"{x}{PAD + (y_max - y) * k:.3f}" for x, y in zip(x_px, ys)])
        self._polyline(px, stroke, width, None)

    def _polyline(self, px, stroke, width, dash):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._element(f'<polyline points="{px}" fill="none" stroke="{stroke}" '
                      f'stroke-width="{_fmt(width)}"{dash_attr}/>')

    def circle(self, cx, cy, r, stroke="black", width=1.0, dash=None):
        x, y = self.to_px(cx, cy)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._element(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r * self.scale)}" '
                      f'fill="none" stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>')

    def rect(self, cx, cy, w, h, stroke="black", fill="none", width=1.0):
        x, y = self.to_px(cx - w / 2.0, cy + h / 2.0)
        self._element(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w * self.scale)}" '
                      f'height="{_fmt(h * self.scale)}" fill="{fill}" stroke="{stroke}" '
                      f'stroke-width="{_fmt(width)}"/>')

    def text(self, x, y, s, size=12, fill="black"):
        px, py = self.to_px(x, y)
        self._element(f'<text x="{_fmt(px)}" y="{_fmt(py)}" font-size="{size}" '
                      f'font-family="sans-serif" fill="{fill}">{s}</text>')

    def marker(self, x, y, r=3.0, fill="black"):
        px, py = self.to_px(x, y)
        self._element(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" fill="{fill}"/>')

    def close(self) -> None:
        self.out.write("</svg>\n")


def trajectory_svg(trace, cfg, out: TextIO) -> None:
    """World-frame overview: areas, obstacles with their shells, agent paths.
    Written to the text stream out."""
    paths = [(trace.column(f"{agent}_x_m"), trace.column(f"{agent}_y_m"))
             for agent in ["attacker"] + [f"d{j}" for j in range(trace.defender_count)]]
    # each path's extremes, then the areas' and the shells' extents
    xs = [f(path_x) for path_x, _ in paths for f in (min, max)]
    ys = [f(path_y) for _, path_y in paths for f in (min, max)]
    xs += [cfg.safe.center.x - cfg.safe.radius, cfg.safe.center.x + cfg.safe.radius,
           cfg.protected.center.x - cfg.protected.radius]
    ys += [cfg.safe.center.y - cfg.safe.radius, cfg.safe.center.y + cfg.safe.radius,
           cfg.protected.center.y - cfg.protected.radius]
    for ob in cfg.obstacles:
        xs += [ob.center.x - ob.formation_width, ob.center.x + ob.formation_width]
        ys += [ob.center.y - ob.formation_height, ob.center.y + ob.formation_height]
    canvas = Canvas(out, min(xs) - 2, max(xs) + 2, min(ys) - 2, max(ys) + 2)

    canvas.circle(cfg.protected.center.x, cfg.protected.center.y, cfg.protected.radius,
                  stroke="deeppink", dash="6,4", width=1.5)
    canvas.text(cfg.protected.center.x + 1, cfg.protected.center.y, "protected")
    canvas.circle(cfg.safe.center.x, cfg.safe.center.y, cfg.safe.radius,
                  stroke="green", dash="6,4", width=1.5)
    canvas.text(cfg.safe.center.x + 1, cfg.safe.center.y, "safe")
    for ob in cfg.obstacles:
        canvas.rect(ob.center.x, ob.center.y, ob.width, ob.height,
                    stroke="dimgray", fill="lightgray")
        shell = shell_points(ob, ob.formation_band.lo, 180)
        canvas.polyline(shell + shell[:1], stroke="slateblue", width=0.8, dash="3,3")

    for k, (path_x, path_y) in enumerate(paths):
        color, width = ("red", 1.5) if k == 0 else ("royalblue", 1.0)
        canvas.polyline(zip(path_x, path_y), stroke=color, width=width)
        canvas.marker(path_x[0], path_y[0], fill=color)
    canvas.close()


def ratio_curves_svg(trace, out: TextIO) -> None:
    """Critical relative distances (upper band) and defender speeds (lower
    band) over time, with the ratio-1 violation line marked.  Written to the
    text stream out."""
    # a run stopped at step 0 has one row at t = 0: give the axis a width
    t_end = trace.t_end if trace.t_end > 0.0 else 1.0
    colors = ["darkorange", "seagreen", "royalblue", "crimson"]

    speeds = [trace.speed(f"d{j}") for j in range(trace.defender_count)]
    s_max = max(s for data in speeds for s in data)
    s_max = max(s_max, 1e-9)

    # upper band: ratios in y [0.5, 2.5]; lower band: speeds scaled into [-2.4, -0.4]
    canvas = Canvas(out, 0.0, t_end, -2.5, 2.6, height=640)
    ts = canvas.x_px(trace.column("t_s"))
    canvas.text(0.02 * t_end, 2.55, "critical relative distances (1 = violation)")
    canvas.polyline([(0.0, 0.5 + 1.0), (t_end, 0.5 + 1.0)], stroke="black", dash="4,4")
    for k, (column, color) in enumerate(zip(RATIO_COLUMNS, colors)):
        canvas.series(ts, (0.5 + min(v, 2.0) for v in trace.column(column)),
                      stroke=color, width=1.2)
        label = column.removeprefix("ratio_").replace("_", "/")
        canvas.text(0.65 * t_end, 2.45 - 0.16 * k, label, size=11, fill=color)

    canvas.text(0.02 * t_end, -0.25, f"defender speeds (max {s_max:.3f} m/s)")
    canvas.polyline([(0.0, -2.4), (t_end, -2.4)], stroke="gray", width=0.5)
    for j, data in enumerate(speeds):
        canvas.series(ts, (-2.4 + 2.0 * s / s_max for s in data),
                      stroke=["royalblue", "seagreen", "darkorange",
                              "purple", "teal"][j % 5], width=1.2)
    canvas.close()


def sweep_heatmap_svg(report, out: TextIO) -> None:
    """Grayscale map of the worst component-angle gap per sweep cell.
    Written to the text stream out."""
    # only the sweep loads numpy
    import numpy as np

    # the report's gaps are finite (SweepReport checks them)
    worst = np.maximum(np.abs(report.cell_min), np.abs(report.cell_max))
    # every cell's shade, with the same operations in the same order as
    # int(255 * (1.0 - min(worst / pi, 1.0))) cell by cell
    shades = (255 * (1.0 - np.minimum(worst / math.pi, 1.0))).astype(np.int64)
    cells = len(shades)
    size = max(256, min(768, 4 * cells))
    px = size / cells
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 40}" '
              f'viewBox="0 0 {size} {size + 40}">\n'
              f'<rect x="0" y="0" width="{size}" height="{size + 40}" fill="white"/>\n')
    # one row's rects as a list of fields: each column's x, each row's y,
    # the cell size and each shade's fill are formatted once
    side = _fmt(px)
    fills = [f'{shade},{shade},255)"/>\n' for shade in range(256)]
    rects = [None, None, None] * cells
    rects[0::3] = [f'<rect x="{_fmt(j * px)}" y="' for j in range(cells)]
    for i, row_shades in enumerate(shades):
        rects[1::3] = [f'{_fmt(size - (i + 1) * px)}" width="{side}" height="{side}" '
                       'fill="rgb('] * cells
        rects[2::3] = map(fills.__getitem__, row_shades.tolist())
        out.write("".join(rects))
    out.write(f'<text x="4" y="{size + 16}" font-size="12" font-family="sans-serif">'
              f'max |gap| = {report.max_abs:.4f} rad '
              f'(limit {math.pi - report.margin:.4f})</text>\n'
              f'<text x="4" y="{size + 32}" font-size="12" font-family="sans-serif">'
              f'x: span over [0, 2pi), y: target angle over [0, pi/2]</text>\n'
              '</svg>\n')
