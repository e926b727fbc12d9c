"""Planar geometry primitives: 2-vectors, angle wrapping, the smooth on/off
distance ramp, and the blend that every steering field in the package is
built from."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi


class Vec2(NamedTuple):
    """Planar vector; meters for positions, meters/second for velocities."""

    x: float
    y: float

    def __add__(self, other):
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s):
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __neg__(self):
        return Vec2(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def unit(v: Vec2) -> Vec2:
    """Normalize a vector; the zero vector maps to itself."""
    n = math.hypot(v.x, v.y)
    if n == 0.0:
        return Vec2(0.0, 0.0)
    return Vec2(v.x / n, v.y / n)


def angle_of(v: Vec2) -> float:
    return math.atan2(v.y, v.x)


def dist(a: Vec2, b: Vec2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class BlendTriplet:
    """Distance thresholds (lo, mid, hi) of the smooth on/off ramp.

    The weight is 1 from lo up to mid, decays along a cubic on [mid, hi]
    and is 0 beyond hi.  Requires 0 <= lo < mid < hi strictly; collapsing
    any pair would destroy the cubic ramp.
    """

    lo: float
    mid: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.mid) and math.isfinite(self.hi)):
            raise ConfigError(f"blend thresholds must be finite: {self}")
        if not (0.0 <= self.lo < self.mid < self.hi):
            raise ConfigError(
                f"blend thresholds must satisfy 0 <= lo < mid < hi, got "
                f"({self.lo}, {self.mid}, {self.hi})"
            )


def blend_weight(delta: float, band: BlendTriplet) -> float:
    """Smooth on/off weight in [0, 1] of a distance against a band.

    Returns 1 on [lo, mid], 0 on [hi, inf), and the connecting cubic in
    between; continuous with a continuous first derivative everywhere to
    the right of lo.  Distances below lo are inside the violation zone;
    the weight saturates at 1 there so downstream fields stay defined
    while the breach is being recorded.
    """
    if delta >= band.hi:
        return 0.0
    if delta <= band.mid:
        return 1.0
    # the closed-form cubic in the raw distance cancels catastrophically when
    # the thresholds are large relative to their gap; in the shifted
    # coordinate u it is identically 1 - 3u^2 + 2u^3, exact to float
    u = (delta - band.mid) / (band.hi - band.mid)
    return 1.0 + u * u * (2.0 * u - 3.0)


# A blend (prod, x, y, hit) accumulates weighted unit terms: prod is the
# product of the weights' complements, (x, y) the weighted sum of the terms
# and hit whether any weight was nonzero; (1.0, 0.0, 0.0, False) is empty.
# A field is a blend closed by its attraction, weighted with prod.

def repel(p: Vec2, sources, reach: float, blend):
    """Continue a blend with a unit push away from each (point, band) source
    within reach of p, weighted on its band; raises at a source's point."""
    prod, x, y, hit = blend
    px, py = p.x, p.y
    for q, band in sources:
        dx = px - q.x
        dy = py - q.y
        d = math.hypot(dx, dy)
        if d > reach:
            continue
        if d == 0.0:
            raise DomainError(f"({px}, {py}) coincides with a repelling point")
        sigma = blend_weight(d, band)
        if sigma <= 0.0:
            continue
        hit = True
        prod *= 1.0 - sigma
        x += sigma * dx / d
        y += sigma * dy / d
    return prod, x, y, hit


def close_blend(p: Vec2, target: Vec2, blend) -> Vec2:
    """The blend's field: its sum plus prod times the unit vector from p
    toward target (nothing exactly at the target)."""
    prod, x, y, _ = blend
    gx = target.x - p.x
    gy = target.y - p.y
    g = math.hypot(gx, gy)
    if g > 0.0:
        x += prod * gx / g
        y += prod * gy / g
    return Vec2(x, y)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into the canonical interval (-pi, pi]."""
    r = math.remainder(theta, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


def wrap_sector(theta: float) -> float:
    """Wrap an angle into [0, 2*pi); used for sector spans along contours."""
    r = math.fmod(theta, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:
        r = 0.0
    return r
