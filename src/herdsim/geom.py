"""Planar geometry primitives: points, angle wrapping, the smooth on/off
distance ramp, and the blend that every steering field in the package is
built from."""

from __future__ import annotations

import math

from .errors import ConfigError, DomainError

TWO_PI = 2.0 * math.pi


class Frozen:
    """Base of the immutable records.  A subclass names its fields once, in
    __slots__, and Frozen writes its __init__: one parameter per slot in slot
    order, each field set in turn, then the record's _check(self), if it has
    one, on the finished record.  A subclass that defines __init__ is
    refused.  Records of one class are equal, and hash alike, when their
    field values are; a record never equals a tuple.  Fields refuse
    assignment, and _replace, copy and pickle build the changed or copied
    record through the constructor, so the checks run on its values."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines __init__; "
                            f"Frozen writes it from __slots__")
        # spelled out like a hand-written one, so it runs as fast; slot names
        # are identifiers, so only they reach the code.  Each field is set
        # through its slot descriptor, which __setattr__ below does not stop.
        body = [f"_set_{f}(self, {f})" for f in cls.__slots__]
        if hasattr(cls, "_check"):
            body.append("self._check()")
        namespace = {f"_set_{f}": getattr(cls, f).__set__ for f in cls.__slots__}
        params = ", ".join(cls.__slots__)
        exec(f"def __init__(self, {params}):\n    {'; '.join(body)}\n", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return type(self)(**{**{f: getattr(self, f) for f in self.__slots__}, **changes})

    def __reduce__(self):
        return type(self), self._values()


class Vec2(Frozen):
    """Planar point in meters: a position, a goal or a center, with no vector
    algebra.  The vectors a step computes (fields and velocities) are plain
    (x, y) float pairs; a Vec2 unpacks like one (x, y = v), but never equals one."""

    __slots__ = ("x", "y")

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)

    def __iter__(self):
        return iter((self.x, self.y))


def unit_xy(x: float, y: float) -> tuple[float, float]:
    """The unit vector along (x, y), as a pair of floats; the zero vector
    maps to itself."""
    n = math.hypot(x, y)
    if n == 0.0:
        return 0.0, 0.0
    return x / n, y / n


def dist(a: Vec2, b: Vec2) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


class BlendTriplet(Frozen):
    """Distance thresholds (lo, mid, hi) of the smooth on/off ramp.

    The weight is 1 from lo up to mid, decays along a cubic on [mid, hi]
    and is 0 beyond hi.  Requires 0 <= lo < mid < hi strictly; collapsing
    any pair would destroy the cubic ramp.
    """

    __slots__ = ("lo", "mid", "hi")

    def _check(self):
        lo, mid, hi = self.lo, self.mid, self.hi
        if not (math.isfinite(lo) and math.isfinite(mid) and math.isfinite(hi)):
            raise ConfigError(f"blend thresholds must be finite: {self}")
        if not (0.0 <= lo < mid < hi):
            raise ConfigError(
                f"blend thresholds must satisfy 0 <= lo < mid < hi, got ({lo}, {mid}, {hi})")


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
    within reach of p, weighted on its band; raises at a source's point.

    A source at or beyond its band's hi weighs exactly 0, so it is skipped
    before its weight is taken.
    """
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
        if d >= band.hi:
            continue
        sigma = blend_weight(d, band)
        if sigma <= 0.0:
            continue
        hit = True
        prod *= 1.0 - sigma
        x += sigma * dx / d
        y += sigma * dy / d
    return prod, x, y, hit


def close_blend(p: Vec2, target: Vec2, blend) -> tuple[float, float]:
    """The blend's field, as an (x, y) pair: its sum plus prod times the
    unit vector from p toward target (nothing exactly at the target)."""
    prod, x, y, _ = blend
    gx = target.x - p.x
    gy = target.y - p.y
    g = math.hypot(gx, gy)
    if g > 0.0:
        x += prod * gx / g
        y += prod * gy / g
    return x, y


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
