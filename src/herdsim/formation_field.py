"""The guidance field that routes the formation center to the safe area.

A radially converging unit field around the safe center is blended with an
obstacle-following field around each super-elliptic shell.  The
obstacle-following direction is built from the contour tangent: on the ray
through the target it points radially outward, at the watershed ray
(diametrically opposite the target) it is purely tangential, and it
interpolates linearly in the sector angle in between.  The watershed carries
an intentional half-turn jump, splitting the flow around the two sides of the
obstacle.

singularity_sweep numerically certifies that the angle between the converging
and obstacle-following components stays away from a half turn everywhere on
the worst-case outer contour, which is what keeps the blended field from
vanishing anywhere except the safe center.
"""

from __future__ import annotations

import io
import math
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from .environment import (Obstacle, contour_offsets, superelliptic_distance,
                          tangent_angle_at)
from .errors import ConfigError, DomainError
from .geom import TWO_PI, Vec2, blend_weight, unit_xy, wrap_angle, wrap_sector

if TYPE_CHECKING:
    # for annotations only: `check` and `simulate` never load numpy
    import numpy as np

    from .environment import Disc

# the sweep samples the gap this many times per cell along each axis and
# reports each cell's extrema over its covering window
SWEEP_SUBSAMPLES = 3
# the largest resolution the sweep accepts: the heatmap draws a cell below
# one pixel beyond it
SWEEP_MAX_RESOLUTION = 768
# the sweep evaluates the fine lattice this many cell rows at a time, so that
# each block's temporaries stay in cache (of 2 to 64, 16 timed fastest at
# resolutions 128 and 384, and within 1% of the fastest at 768)
SWEEP_BLOCK_ROWS = 16
# follow_field's path budget, in metres
FOLLOW_MAX_PATH = 400.0


def _field_angle(beta_f: float, beta_s: float, ob: Obstacle) -> float:
    """Direction of the obstacle-following field at sector angle beta_f,
    for a target sitting at sector angle beta_s."""
    tangent_f = tangent_angle_at(beta_f, ob)
    tangent_s = tangent_angle_at(beta_s, ob)
    span = wrap_sector(beta_f - beta_s)
    lead_s = wrap_sector(tangent_s - beta_s)
    if span < math.pi:
        phi = tangent_f - lead_s + (span / math.pi) * (lead_s - math.pi)
    else:
        phi = tangent_f - lead_s * (span - math.pi) / math.pi
    return wrap_angle(phi)


def repulsive_angle(p: Vec2, ob: Obstacle, target: Vec2) -> float:
    """Angle of the obstacle-following field at p, steering flow around the
    shell toward the side facing the target (the safe center, or a defender's
    goal).  Depends on p only through its sector angle."""
    dfx = p.x - ob.center.x
    dfy = p.y - ob.center.y
    dsx = target.x - ob.center.x
    dsy = target.y - ob.center.y
    if (dfx == 0.0 and dfy == 0.0) or (dsx == 0.0 and dsy == 0.0):
        raise DomainError("field angle undefined at the obstacle center")
    return _field_angle(math.atan2(dfy, dfx), math.atan2(dsy, dsx), ob)


def follow_obstacles(p: Vec2, obstacles: Sequence[Obstacle], target: Vec2,
                     defender: bool):
    """Obstacle-following terms at p toward target, weighted on each
    obstacle's formation band (defender band if defender is set), as a
    blend (see `geom.repel`); a level at or beyond the band's hi is skipped
    before its weight is taken."""
    prod = 1.0
    fx = 0.0
    fy = 0.0
    hit = False
    for ob in obstacles:
        band = ob.defender_band if defender else ob.formation_band
        level = superelliptic_distance(p, ob)
        if level >= band.hi:
            continue
        sigma = blend_weight(level, band)
        if sigma <= 0.0:
            continue
        hit = True
        prod *= 1.0 - sigma
        phi = repulsive_angle(p, ob, target)
        fx += sigma * math.cos(phi)
        fy += sigma * math.sin(phi)
    return prod, fx, fy, hit


def combined_field(p: Vec2, obstacles: Sequence[Obstacle],
                   safe_center: Vec2) -> tuple[float, float]:
    """Blend the converging field with the obstacle-following fields, as an
    (x, y) pair.

    With disjoint outer shells the result is nonzero everywhere outside the
    inner shells except at the safe center.
    """
    # prod * unit(g), not geom.close_blend's (prod * g) / |g|: the two round
    # differently, and switching changes the trace of 39 of the 97 accepted
    # bundled-world starts on the 10 m grid (the bundled start's included)
    ux, uy = unit_xy(safe_center.x - p.x, safe_center.y - p.y)
    prod, fx, fy, _ = follow_obstacles(p, obstacles, safe_center, False)
    return prod * ux + fx, prod * uy + fy


# ---------------------------------------------------------------------------
# vectorized contour machinery for the sweep; each function imports numpy
# itself, so that only the sweep loads it
# ---------------------------------------------------------------------------

def _tangent_angle_np(c, s, ob: Obstacle):
    """tangent_angle_at over arrays, from the ray's cosine c and sine s."""
    import numpy as np

    p = 2.0 * ob.exponent - 1.0
    gx = np.copysign(np.abs(c) ** p, c) / ob.semi_x ** (2.0 * ob.exponent)
    gy = np.copysign(np.abs(s) ** p, s) / ob.semi_y ** (2.0 * ob.exponent)
    return np.arctan2(gx, -gy)


def _wrap_sector_np(theta):
    import numpy as np

    return np.mod(theta, TWO_PI)


def _wrap_angle_np(theta):
    import numpy as np

    return theta - TWO_PI * np.floor((theta + math.pi) / TWO_PI)


def _field_angle_np(beta_f, tangent_f, beta_s, ob: Obstacle):
    """_field_angle over arrays; tangent_f is the contour tangent at beta_f."""
    import numpy as np

    tangent_s = _tangent_angle_np(np.cos(beta_s), np.sin(beta_s), ob)
    span = _wrap_sector_np(beta_f - beta_s)
    lead_s = _wrap_sector_np(tangent_s - beta_s)
    inner = tangent_f - lead_s + (span / math.pi) * (lead_s - math.pi)
    outer = tangent_f - lead_s * (span - math.pi) / math.pi
    return np.where(span < math.pi, inner, outer)


class SweepReport:
    """Per-cell extrema of the component angle gap on the worst-case contour.

    Rows index the target sector angle over [0, pi/2]; columns index the
    sector span between the sample point and the target over [0, 2*pi).
    A result that holds arrays, so it compares by identity.  Raises
    DomainError if a cell's gap is not finite: no verdict, summary or shade
    can be drawn from it.
    """

    __slots__ = ("target_angles", "span_angles", "cell_min", "cell_max", "margin")

    def __init__(self, target_angles: np.ndarray,    # cell edges, shape (cells+1,)
                 span_angles: np.ndarray,            # cell edges, shape (cells+1,)
                 cell_min: np.ndarray,               # shape (cells, cells)
                 cell_max: np.ndarray, margin: float):
        import numpy as np

        bad = np.argwhere(~(np.isfinite(cell_min) & np.isfinite(cell_max)))
        if len(bad):
            raise DomainError(f"sweep gap is not finite in cell {tuple(bad[0].tolist())}")
        self.target_angles = target_angles
        self.span_angles = span_angles
        self.cell_min = cell_min
        self.cell_max = cell_max
        self.margin = margin

    @property
    def min_value(self) -> float:
        return float(self.cell_min.min())

    @property
    def max_value(self) -> float:
        return float(self.cell_max.max())

    @property
    def max_abs(self) -> float:
        return max(abs(self.min_value), abs(self.max_value))

    @property
    def passed(self) -> bool:
        return self.max_abs < math.pi - self.margin

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """Write the report as CSV to the text stream out, one target row at
        a time; with no stream, return the CSV as a string."""
        if out is None:
            buf = io.StringIO()
            self.to_csv(buf)
            return buf.getvalue()
        out.write("target_angle_rad,span_rad,gap_min_rad,gap_max_rad\n")
        # plain Python floats: repr of a numpy scalar is "np.float64(...)"
        bc = (0.5 * (self.target_angles[:-1] + self.target_angles[1:])).tolist()
        sc = (0.5 * (self.span_angles[:-1] + self.span_angles[1:])).tolist()
        # one row's lines as a list of fields: each column's span is
        # formatted once, and each row fills in its target and gaps
        cols = len(sc)
        line = [None, None, None, ",", None, "\n"] * cols
        line[1::6] = [f"{s!r}," for s in sc]
        for b, lo_row, hi_row in zip(bc, self.cell_min, self.cell_max):
            line[0::6] = [f"{b!r},"] * cols
            line[2::6] = map(repr, lo_row.tolist())
            line[4::6] = map(repr, hi_row.tolist())
            out.write("".join(line))

    def summary(self) -> dict:
        return {
            "cells": int(self.cell_min.shape[0]),
            "gap_min_rad": self.min_value,
            "gap_max_rad": self.max_value,
            "max_abs_rad": self.max_abs,
            "margin_rad": self.margin,
            "limit_rad": math.pi - self.margin,
            "passed": self.passed,
        }


def _cell_extrema(values: np.ndarray, sub: int):
    """Reduce a fine lattice of shape (sub*rows+1, sub*cols+1) to per-cell
    (minima, maxima), each of shape (rows, cols), over each (sub+1) x (sub+1)
    covering window."""
    import numpy as np

    rows, cols = ((n - 1) // sub for n in values.shape)
    idx_r = sub * np.arange(rows)[:, None] + np.arange(sub + 1)[None, :]
    idx_c = sub * np.arange(cols)[:, None] + np.arange(sub + 1)[None, :]
    window = values[idx_r]                  # (rows, sub+1, fine columns)
    return (window.min(axis=1)[:, idx_c].min(axis=2),   # (rows, cols)
            window.max(axis=1)[:, idx_c].max(axis=2))


def _gap_lattice(ob: Obstacle, level: float, beta_s: np.ndarray,
                 span: np.ndarray) -> np.ndarray:
    """Component angle gap with target and sample on the contour E = level:
    rows are the target sector angles beta_s, columns the spans, which run
    over [0, 2*pi] end to end.  Each sample depends only on its own
    (beta_s, span) pair."""
    import numpy as np

    bs = beta_s[:, None]
    dv = span[None, :]
    bf = bs + dv
    cf = np.cos(bf)
    sf = np.sin(bf)

    sx, sy = contour_offsets(ob, np.cos(bs), np.sin(bs), level)
    fx, fy = contour_offsets(ob, cf, sf, level)
    phi = _field_angle_np(bf, _tangent_angle_np(cf, sf, ob), bs, ob)
    toward = np.arctan2(sy - fy, sx - fx)
    gap = _wrap_angle_np(toward - phi)

    # At spans 0 and 2*pi the sample coincides with the target, so the gap
    # takes its limit.  The field angle tends to the radial direction beta_s
    # from both sides, and the chord toward the target to the contour tangent
    # there: the counter-clockwise tangent when the sample trails the target
    # (span -> 2*pi), reversed when it leads (span -> 0).  The gap is then
    # lead or lead - pi, lead being the tangent's angle from the radial.
    for i, b in enumerate(beta_s.tolist()):
        lead = wrap_sector(tangent_angle_at(b, ob) - b)
        gap[i, 0] = wrap_angle(lead - math.pi)
        gap[i, -1] = wrap_angle(lead)
    return gap


def singularity_sweep(ob: Obstacle, resolution: int = 128,
                      margin: float = 0.1) -> SweepReport:
    """Map the angle between field components over the worst-case contour.

    Both the target point and the sample point are placed on the outermost
    blending contour (the configuration that maximizes the gap); the target
    sector angle covers the first quadrant, the remaining quadrants following
    by symmetry of the axis-aligned family.  Passes when the gap magnitude
    never reaches a half turn minus the margin.  Raises ConfigError, before
    any array is built, unless 64 <= resolution <= SWEEP_MAX_RESOLUTION and
    0 <= margin < pi.
    """
    if not 64 <= resolution <= SWEEP_MAX_RESOLUTION:
        raise ConfigError(f"sweep resolution must be 64 to {SWEEP_MAX_RESOLUTION}, "
                          f"got {resolution}")
    # a margin of pi or more leaves no gap to certify; NaN fails both tests
    if not 0.0 <= margin < math.pi:
        raise ConfigError(f"sweep margin must be finite and in [0, pi), got {margin}")
    import numpy as np

    level = ob.formation_band.hi
    sub = SWEEP_SUBSAMPLES
    fine = sub * resolution + 1
    beta_s = np.linspace(0.0, math.pi / 2.0, fine)
    span = np.linspace(0.0, TWO_PI, fine)

    # each block of cell rows reads its fine rows, sharing the edge row with
    # the next block
    cell_min = np.empty((resolution, resolution))
    cell_max = np.empty((resolution, resolution))
    for r0 in range(0, resolution, SWEEP_BLOCK_ROWS):
        r1 = min(r0 + SWEEP_BLOCK_ROWS, resolution)
        gap = _gap_lattice(ob, level, beta_s[sub * r0:sub * r1 + 1], span)
        cell_min[r0:r1], cell_max[r0:r1] = _cell_extrema(gap, sub)

    edges_b = np.linspace(0.0, math.pi / 2.0, resolution + 1)
    edges_s = np.linspace(0.0, TWO_PI, resolution + 1)
    return SweepReport(
        target_angles=edges_b,
        span_angles=edges_s,
        cell_min=cell_min,
        cell_max=cell_max,
        margin=margin,
    )


def follow_field(start: Vec2, obstacles: Sequence[Obstacle], safe: Disc,
                 step: float = 0.03):
    """Integrate the normalized field from start until the safe area is
    reached or the path budget of FOLLOW_MAX_PATH metres runs out.

    Returns (points, converged, min_norm, min_level_slack) where
    min_level_slack is the smallest margin of any sampled point above any
    obstacle's inner shell (negative means the inner shell was entered).
    """
    p = start
    points = [p]
    min_norm = math.inf
    min_slack = math.inf
    steps = int(FOLLOW_MAX_PATH / step)
    converged = False
    for _ in range(steps):
        if safe.contains(p):
            converged = True
            break
        fx, fy = combined_field(p, obstacles, safe.center)
        norm = math.hypot(fx, fy)
        min_norm = min(min_norm, norm)
        for ob in obstacles:
            min_slack = min(min_slack,
                            superelliptic_distance(p, ob) - ob.formation_band.lo)
        if norm == 0.0:
            break
        p = Vec2(p.x + step * fx / norm, p.y + step * fy / norm)
        points.append(p)
    return points, converged, min_norm, min_slack
