"""World model: protected/safe areas, rectangular obstacles with their derived
super-elliptic shells, scenario configuration, and scenario validation.

Each axis-aligned rectangular obstacle carries one super-ellipse family whose
level coordinate is

    E(p) = |dx / semi_x|^(2n) + |dy / semi_y|^(2n) - 1,

with the semi-axes chosen so the level-0 contour passes through the corners of
the raw rectangle.  The exponent n and the corner level of the inflated
rectangle are coupled through an implicit pair of relations solved here; all
blending thresholds for the formation field, the defenders, and the attacker's
circular stand-in are derived from that single family.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

from .errors import ConfigError, ScenarioFileError, SchemaError, SolverError
from .geom import BlendTriplet, Frozen, Vec2, dist

# Slack on the obstacle culling constants.  Evaluating a level rounds E + 1
# by at most about (2n + 10) ulps: the division by a semi-axis is magnified
# 2n-fold by the power, and pow and the sum add a few more; level_floor
# rounds about as much.  So distance_floor is rounded down, and
# formation_reach widened, by this relative amount, and level_floor lowered
# by this fraction of E + 1; for any exponent below ~1e6 either margin
# dominates every rounding error on both sides of the comparison.  The floor
# needs the margin in E + 1, not in E: E is a difference, so its rounding
# error stays of order ulp(E + 1).
CULL_SLACK = 1e-9

# the root finders stop below this step (the handoff bisection below a
# thousandth of it); the exponent iteration stops after SOLVER_MAX_ITER steps
SOLVER_TOL = 1e-12
SOLVER_MAX_ITER = 500

# a larger |n - 1/(1 - exp(-xi))| fails solve_shape_exponent
EXPONENT_RESIDUAL_MAX = 1e-9

# The mid and hi shells of both bands sit at the corners of the rectangle
# inflated by these multiples of the band's pad.
OUTER_PAD_FACTORS = (1.25, 1.5)

# validate_scenario samples each outer shell and the safe-area rim on this
# many evenly spaced rays
BOUNDARY_SAMPLES = 720


def reference_scenario_path() -> Path:
    """Filesystem path of the bundled reference scenario."""
    return Path(__file__).parent / "data" / "reference_scenario.json"


class Disc(Frozen):
    """A disc-shaped area (protected or safe)."""

    __slots__ = ("center", "radius")

    def _check(self):
        if not (self.center.is_finite() and math.isfinite(self.radius)):
            raise ConfigError(f"disc must be finite: {self}")
        if self.radius <= 0.0:
            raise ConfigError(f"disc radius must be positive, got {self.radius}")

    def contains(self, p: Vec2) -> bool:
        return dist(p, self.center) <= self.radius


class Obstacle(Frozen):
    """Axis-aligned rectangle plus its derived super-elliptic shells.

    formation_* is the rectangle inflated by the whole formation footprint
    plus the safety clearance; defender_band's lo contour passes through the
    corners of the rectangle inflated by a single defender body plus its own
    clearance.  All level thresholds live in the one super-ellipse family
    (semi_x, semi_y, exponent).  attacker_band holds Euclidean radii for the
    circular obstacle model the adversary navigates by.

    formation_reach bounds the formation band's hi contour: from any point
    at least that far from the center, superelliptic_distance returns a
    level >= hi, so the blend weight is exactly 0.  It is level_floor's bound
    solved for the distance; only the validator's shell-pair test reads it.
    semi_diagonal is hypot(semi_x, semi_y), level_floor's h.
    """

    __slots__ = ("center", "width", "height", "formation_width", "formation_height",
                 "exponent", "semi_x", "semi_y", "semi_diagonal", "formation_band",
                 "defender_band", "attacker_band", "formation_reach")


# the attacker circle's mid and hi radii as multiples of its lo, unless a
# scenario's obstacle_model.attacker_circle_factors gives them
ATTACKER_CIRCLE_FACTORS = (1.15, 1.3)


class ObstacleDerivation(Frozen):
    """Parameters driving the rectangle -> Obstacle derivation."""

    __slots__ = ("formation_radius",      # arc radius + defender body radius
                 "clearance",             # standoff added around the formation
                 "defender_clearance",    # standoff added around a single defender
                 "defender_radius", "attacker_mid_factor", "attacker_hi_factor")


def bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of an increasing f with f(lo) <= 0 < f(hi), by bisection.

    Stops once the bracket is narrower than xtol, or after 200 halvings;
    returns the bracket's midpoint.  solve_tracking_gains finds the handoff
    error with it.
    """
    if not f(lo) <= 0.0 < f(hi):
        raise SolverError(f"bisection found no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


def corner_level(width: float, height: float, infl_width: float,
                 infl_height: float, exponent: float) -> float:
    """Level of the contour through the corners of an inflated rectangle."""
    two_n = 2.0 * exponent
    return 0.5 * ((infl_width / width) ** two_n + (infl_height / height) ** two_n) - 1.0


def solve_shape_exponent(width: float, height: float, infl_width: float,
                         infl_height: float) -> tuple[float, float]:
    """Solve the coupled (exponent, corner level) pair for one obstacle.

    The exponent n and the level xi of the contour through the inflated
    rectangle's corners must satisfy both

        n  = 1 / (1 - exp(-xi))
        xi = ((iw/w)^(2n) + (ih/h)^(2n)) / 2 - 1

    simultaneously.  A damped fixed-point iteration (damping 0.5, seed n=2)
    runs until a step is below SOLVER_TOL, or for SOLVER_MAX_ITER steps.
    Strongly inflated rectangles put the root within 1e-6 of 1; where xi(1)
    exceeds ~37, exp(-xi) vanishes against 1 and n = 1 is the root in
    floating point.  Some nearly uninflated rectangles, with roots above
    about 85, never reach that step: rounding holds their iteration in a
    cycle whose step stays just above SOLVER_TOL, around the root.

    Returns (exponent, corner_level).  Raises SolverError if
    |n - 1/(1 - exp(-xi))| at the last iterate exceeds EXPONENT_RESIDUAL_MAX,
    however the iteration stopped, or if the corner level overflows (a side
    tiny against its pad).
    """
    if not (infl_width > width > 0.0 and infl_height > height > 0.0):
        raise ConfigError(
            f"inflated rectangle must strictly contain the raw one: "
            f"{width}x{height} -> {infl_width}x{infl_height}"
        )

    def level_of(n):
        return corner_level(width, height, infl_width, infl_height, n)

    def mapped(n):
        return 1.0 / (1.0 - math.exp(-level_of(n)))

    n = 2.0
    damping = 0.5
    try:
        for _ in range(SOLVER_MAX_ITER):
            n_next = (1.0 - damping) * n + damping * mapped(n)
            step = abs(n_next - n)
            n = n_next
            if step < SOLVER_TOL:
                break
        residual = n - mapped(n)
        level = level_of(n)
    except OverflowError as exc:
        raise SolverError(f"corner level overflows at exponent {n}: {exc}") from exc
    if abs(residual) > EXPONENT_RESIDUAL_MAX:
        raise SolverError(f"exponent residual {residual} above {EXPONENT_RESIDUAL_MAX}")
    return n, level


def superelliptic_distance(p: Vec2, ob: Obstacle) -> float:
    """Level-set coordinate of p in the obstacle's super-ellipse family.

    -1 at the center, 0 on the contour through the raw rectangle corners,
    strictly increasing along rays from the center; +inf where a power
    overflows, far beyond every contour of a large exponent.
    """
    ex = abs((p.x - ob.center.x) / ob.semi_x)
    ey = abs((p.y - ob.center.y) / ob.semi_y)
    two_n = 2.0 * ob.exponent
    try:
        return ex ** two_n + ey ** two_n - 1.0
    except OverflowError:
        return math.inf


def level_floor(ob: Obstacle, d: float) -> float:
    """Lower bound on the evaluated level at any point d or more from the
    center: with u = |dx| / semi_x, v = |dy| / semi_y and h = semi_diagonal,
    d^2 <= max(u, v)^2 h^2, so E + 1 >= max(u, v)^(2n) >= (d/h)^(2n).
    Every obstacle cull compares it, at a distance_floor, against a band
    level: a floor at or above a band's hi means the blend weight is 0."""
    try:
        return (1.0 - CULL_SLACK) * (d / ob.semi_diagonal) ** (2.0 * ob.exponent) - 1.0
    except OverflowError:           # far beyond every contour of a large exponent
        return math.inf


def distance_floor(p: Vec2, ob: Obstacle, r: float) -> float:
    """Lower bound on the center distance of any point within r of p: d (1 -
    CULL_SLACK) - r (1 + CULL_SLACK), d that of p, or 0.  The slack outweighs
    the rounding of d, of the bound and of a caller's distance test against r."""
    dx = p.x - ob.center.x
    dy = p.y - ob.center.y
    t = math.sqrt(dx * dx + dy * dy) * (1.0 - CULL_SLACK) - r * (1.0 + CULL_SLACK)
    return max(t, 0.0)


def contour_offsets(ob: Obstacle, c, s, level: float):
    """Offsets (dx, dy) from the obstacle center to the contour E = level
    along the ray of direction (c, s) = (cos beta, sin beta).  Only abs, **
    and arithmetic touch c and s, so they may be floats or arrays."""
    # E(r) = level has a closed-form radius along each ray
    two_n = 2.0 * ob.exponent
    denom = (abs(c) / ob.semi_x) ** two_n + (abs(s) / ob.semi_y) ** two_n
    r = ((1.0 + level) / denom) ** (1.0 / two_n)
    return r * c, r * s


def tangent_angle_at(beta: float, ob: Obstacle) -> float:
    """Counter-clockwise tangent direction of the contour family at ray angle beta.

    Every contour of the family shares the same tangent direction along a
    given ray, so only the sector angle matters.  The counter-clockwise
    orientation (outward gradient rotated +90 degrees) is what makes the
    obstacle-following flow circulate from the watershed toward the target
    side.
    """
    c = math.cos(beta)
    s = math.sin(beta)
    p = 2.0 * ob.exponent - 1.0
    gx = math.copysign(abs(c) ** p, c) / ob.semi_x ** (2.0 * ob.exponent)
    gy = math.copysign(abs(s) ** p, s) / ob.semi_y ** (2.0 * ob.exponent)
    return math.atan2(gx, -gy)


def derive_obstacle(center: Vec2, width: float, height: float,
                    params: ObstacleDerivation) -> Obstacle:
    """Build a fully derived Obstacle from a raw rectangle.

    Deterministic: identical inputs yield bit-identical outputs.
    """
    if not (width > 0.0 and height > 0.0):
        raise ConfigError(f"obstacle sides must be positive, got {width}x{height}")
    pad = params.formation_radius + params.clearance
    fw = width + 2.0 * pad
    fh = height + 2.0 * pad
    try:
        exponent, _ = solve_shape_exponent(width, height, fw, fh)
    except SolverError as exc:
        raise SolverError(f"obstacle at {center}: shape exponent: {exc}") from exc

    half_exp = 2.0 ** (1.0 / (2.0 * exponent))
    semi_x = 0.5 * width * half_exp
    semi_y = 0.5 * height * half_exp
    semi_diagonal = math.hypot(semi_x, semi_y)

    def band(pad):
        # the levels through the corners of the rectangle inflated by pad and
        # by OUTER_PAD_FACTORS times pad; the formation lo is the solver's level
        return BlendTriplet(*[corner_level(width, height, width + 2.0 * f * pad,
                                           height + 2.0 * f * pad, exponent)
                              for f in (1.0, *OUTER_PAD_FACTORS)])

    formation_band = band(pad)
    defender_band = band(params.defender_radius + params.defender_clearance)

    # lo is the inflated rectangle's full diagonal, so the circle holds it
    r_lo = math.hypot(fw, fh)
    attacker_band = BlendTriplet(r_lo, params.attacker_mid_factor * r_lo,
                                 params.attacker_hi_factor * r_lo)

    def reach(level):
        # level_floor solved for d: E + 1 >= (d / h)^(2n) >= 1 + level
        # beyond h * (1 + level)^(1/2n), widened by the slack
        scale = (1.0 + level) ** (1.0 / (2.0 * exponent))
        return semi_diagonal * scale * (1.0 + CULL_SLACK)

    return Obstacle(
        center=center, width=width, height=height,
        formation_width=fw, formation_height=fh,
        exponent=exponent, semi_x=semi_x, semi_y=semi_y, semi_diagonal=semi_diagonal,
        formation_band=formation_band, defender_band=defender_band,
        attacker_band=attacker_band,
        formation_reach=reach(formation_band.hi),
    )


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

class AttackerConfig(Frozen):
    __slots__ = ("start", "body_radius", "speed_max", "sensing_radius",
                 "deadlock_turn",         # rad added to the stale heading
                 "standoff_band")         # euclidean radii around defenders


class DefenderTeamConfig(Frozen):
    """At least 2 starts: the arc formation needs two defenders."""

    __slots__ = ("starts", "body_radius", "speed_max", "sensing_zone_radius",
                 "peer_band")             # euclidean radii between defenders

    def _check(self):
        if self.count < 2:
            raise ConfigError(f"defenders.start_m must hold at least 2 defenders "
                              f"to form an arc, got {self.count}")

    @property
    def count(self) -> int:
        return len(self.starts)


class FormationConfig(Frozen):
    __slots__ = ("arc_radius",
                 "spread",                # rad
                 "clearance",             # standoff added around the formation footprint
                 "defender_clearance",
                 "goal_tolerance")        # error below which a goal counts as reached


class ControlConfig(Frozen):
    __slots__ = ("terminal_exponent",     # exponent of the near-goal power law, in (0, 1)
                 "heading_rate_max")      # rad/s clamp on the commanded-heading rate


class CaptureConfig(Frozen):
    __slots__ = ("transition_time",       # s, ramp duration after the safe area is entered
                 "tangent_margin",        # rad short of perpendicular in the captured phase
                 "dwell_factor")          # termination dwell as a multiple of transition_time


# A run records one trace row per step, 8 B a sample: 29 samples with 3
# defenders (238 B a row retained, measured on CPython 3.11), so 10**6 steps
# hold about 240 MB.
MAX_STEPS = 1_000_000


class IntegratorConfig(Frozen):
    """Both finite and positive, with t_max / dt at most MAX_STEPS."""

    __slots__ = ("dt", "t_max")

    def _check(self):
        dt, t_max = self.dt, self.t_max
        if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
            raise ConfigError(f"dt and t_max must be finite and positive, "
                              f"got dt={dt}, t_max={t_max}")
        steps = t_max / dt
        if steps > MAX_STEPS:
            raise ConfigError(f"t_max / dt asks for {steps:.4g} steps, "
                              f"more than MAX_STEPS = {MAX_STEPS}")


class ScenarioConfig(Frozen):
    """Full world description, immutable like every record it holds; each
    names its fields once, in __slots__, and geom.Frozen writes its __init__.
    cfg._replace(integrator=cfg.integrator._replace(dt=...)) builds a
    changed copy through each constructor, so their checks run again."""

    __slots__ = ("protected", "safe", "obstacles", "attacker", "defenders", "formation",
                 "control", "capture", "integrator")


def _at(where: str, i) -> str:
    return where if i is None else f"{where}[{i}]"


def _vec(v, where: str) -> Vec2:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"{where} must be a 2-element [x, y] list")
    return Vec2(_num(v[0], where, 0), _num(v[1], where, 1))


def _num(v, where: str, i=None) -> float:
    """A JSON number (an int or a float, never a bool or a quoted number):
    the value at where, or element i of the list there."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{_at(where, i)} must be a number, got {v!r}")
    try:
        out = float(v)
    except OverflowError:           # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{_at(where, i)} must be finite, got {v}")
    return out


def _num_in(ok, rule: str):
    """A reader like _num of a number x that must satisfy ok(x), as `rule` says."""
    def read(v, where: str, i=None) -> float:
        x = _num(v, where, i)
        if not ok(x):
            raise ConfigError(f"{_at(where, i)} must be {rule}, got {x}")
        return x
    return read


_positive = _num_in(lambda x: x > 0.0, "positive")
_nonnegative = _num_in(lambda x: x >= 0.0, "non-negative")


def _band(v, where: str) -> BlendTriplet:
    if not (isinstance(v, (list, tuple)) and len(v) == 3):
        raise SchemaError(f"{where} must be a 3-element [lo, mid, hi] list")
    lo, mid, hi = (_num(x, where, k) for k, x in enumerate(v))
    try:
        return BlendTriplet(lo, mid, hi)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _speeds(v, where: str, count: int) -> tuple[float, ...]:
    """One positive number for all `count` defenders, or a list of `count`."""
    if not isinstance(v, list):
        return (_positive(v, where),) * count
    if len(v) != count:
        raise SchemaError(f"{where} list must match start_m length")
    return tuple(_positive(s, where, k) for k, s in enumerate(v))


def _circle_factors(v, where: str) -> tuple[float, float]:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise SchemaError(f"{where} must be [mid, hi]")
    mid, hi = _num(v[0], where, 0), _num(v[1], where, 1)
    if not 1.0 < mid < hi:
        raise ConfigError(f"{where} must satisfy 1 < mid < hi, got {v}")
    return mid, hi


def _list_of(read, what: str = ""):
    """A reader of a JSON list whose element k is read(element, path[k])."""
    def read_list(v, where: str) -> list:
        if not isinstance(v, list):
            raise SchemaError(f"{where} must be a list{what}")
        return [read(x, _at(where, k)) for k, x in enumerate(v)]
    return read_list


class _Record:
    """A JSON object of a scenario (the document itself has path ""): rec(key,
    read, default) is read(value, full path) of the value at key, or the
    default as given (the program's own value, so no reader checks it);
    rec.section(key) is the object at key; rec.done() refuses the keys that
    nothing read."""

    def __init__(self, v, where: str):
        if not isinstance(v, dict):
            raise SchemaError(f"{where or 'scenario document'} must be a JSON object")
        self._left = dict(v)
        self._where = where
        self._prefix = f"{where}." if where else ""

    def __call__(self, key: str, read=_num, default=None):
        if key in self._left:
            return read(self._left.pop(key), self._prefix + key)
        if default is None:
            raise SchemaError(f"missing key '{key}' in {self._where or 'scenario'}")
        return default

    def section(self, key: str, optional: bool = False) -> _Record:
        empty = _Record({}, self._prefix + key) if optional else None
        return self(key, read=_Record, default=empty)

    def done(self) -> None:
        if self._left:
            raise SchemaError(f"unknown key(s) {', '.join(self._prefix + k for k in self._left)}")


def transition_heuristic(defender_speed_min: float, attacker_speed: float,
                         arc_radius: float) -> float:
    """(pi/2)(v_min - v_a)/R: the default capture transition time, and the
    floor below which scenario_warnings flags a given one."""
    return (math.pi / 2.0) * (defender_speed_min - attacker_speed) / arc_radius


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed scenario document.

    Structural problems raise SchemaError, an unknown key in any section or
    obstacle record among them.  A rule on one value (a number's range, a
    band's order, the defender count) is checked here, where the value is
    read, and breaking it raises ConfigError naming the value's path.  Rules
    that relate two or more values are left to validate_scenario, which
    reports them as data; so is a default derived from other values, such as
    the transition time, when it comes out unusable.
    """
    doc = _Record(doc, "")

    pa = doc.section("protected_area")
    protected = Disc(pa("center_m", read=_vec), pa("radius_m", read=_positive))
    pa.done()
    sa = doc.section("safe_area")
    safe = Disc(sa("center_m", read=_vec), sa("radius_m", read=_positive))
    sa.done()

    at = doc.section("attacker")
    attacker = AttackerConfig(
        start=at("start_m", read=_vec),
        body_radius=at("body_radius_m", read=_positive),
        speed_max=at("speed_max_mps", read=_nonnegative),
        sensing_radius=at("sensing_radius_m"),
        deadlock_turn=at("deadlock_turn_rad", default=0.05),
        standoff_band=at("defender_standoff_band_m", read=_band),
    )
    at.done()

    de = doc.section("defenders")
    starts = tuple(de("start_m", read=_list_of(_vec, " of [x, y] pairs")))
    defenders = DefenderTeamConfig(
        starts=starts,
        speed_max=de("speed_max_mps", read=lambda v, path: _speeds(v, path, len(starts))),
        body_radius=de("body_radius_m", read=_positive),
        sensing_zone_radius=de("sensing_zone_radius_m"),
        peer_band=de("peer_separation_band_m", read=_band),
    )
    de.done()

    fo = doc.section("formation")
    clearance = fo("clearance_m")
    formation = FormationConfig(
        arc_radius=fo("arc_radius_m", read=_positive),
        spread=fo("spread_rad"),
        clearance=clearance,
        defender_clearance=fo("defender_clearance_m", read=_nonnegative,
                              default=0.5 * clearance),
        goal_tolerance=fo("goal_tolerance_m", read=_nonnegative, default=0.05),
    )
    fo.done()

    co = doc.section("control")
    control = ControlConfig(co("terminal_exponent", read=_num_in(lambda x: 0 < x < 1, "in (0, 1)")),
                            co("heading_rate_max_radps", read=_nonnegative))
    co.done()

    ca = doc.section("capture")
    default_transition = transition_heuristic(min(defenders.speed_max),
                                              attacker.speed_max, formation.arc_radius)
    capture = CaptureConfig(
        transition_time=ca("transition_time_s", read=_positive, default=default_transition),
        tangent_margin=ca("tangent_margin_rad", default=0.1,
                          read=_num_in(lambda x: 0 < x < math.pi / 2, "in (0, pi/2)")),
        dwell_factor=ca("dwell_factor", read=_nonnegative, default=2.0),
    )
    ca.done()

    it = doc.section("integrator")
    integrator = IntegratorConfig(dt=it("dt_s"), t_max=it("t_max_s"))
    it.done()

    om = doc.section("obstacle_model", optional=True)
    mid_f, hi_f = om("attacker_circle_factors", read=_circle_factors,
                     default=ATTACKER_CIRCLE_FACTORS)
    om.done()

    derivation = ObstacleDerivation(
        formation_radius=formation.arc_radius + defenders.body_radius,
        clearance=formation.clearance,
        defender_clearance=formation.defender_clearance,
        defender_radius=defenders.body_radius,
        attacker_mid_factor=mid_f,
        attacker_hi_factor=hi_f,
    )
    records = doc("obstacles", read=_list_of(_Record))
    doc.done()
    obstacles = []
    for i, rec in enumerate(records):
        c, w, h = rec("center_m", read=_vec), rec("width_m"), rec("height_m")
        rec.done()
        try:
            obstacles.append(derive_obstacle(c, w, h, derivation))
        except (ConfigError, SolverError) as exc:
            raise type(exc)(f"{_at('obstacles', i)}: {exc}") from exc

    return ScenarioConfig(
        protected=protected, safe=safe, obstacles=tuple(obstacles),
        attacker=attacker, defenders=defenders, formation=formation,
        control=control, capture=capture, integrator=integrator,
    )


def load_scenario(path) -> tuple[ScenarioConfig, str]:
    """Load a scenario JSON file; returns (config, sha256 of the file bytes).
    An unreadable file raises ScenarioFileError, one not JSON text SchemaError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:     # also not UTF-8, or nested too deep
        raise SchemaError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc), digest


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def min_spread(count: int, standoff_min: float, peer_min: float) -> float:
    """Smallest total arc spread keeping count >= 2 adjacent slots peer_min apart.

    Chord construction on the circle of radius standoff_min; if the peer
    separation reaches the diameter the per-gap angle saturates at pi.
    """
    if peer_min >= 2.0 * standoff_min:
        return (count - 1) * math.pi
    arg = 1.0 - peer_min * peer_min / (2.0 * standoff_min * standoff_min)
    arg = min(1.0, max(-1.0, arg))
    return (count - 1) * math.acos(arg)


def arc_magnitude(count: int, spread: float) -> float:
    """Norm of the sum of count >= 2 unit vectors evenly fanned over the arc spread."""
    half_gap = spread / (2.0 * (count - 1))
    if half_gap == 0.0:
        return float(count)
    return math.sin(count * half_gap) / math.sin(half_gap)


def shell_points(ob: Obstacle, level: float, samples: int) -> list[Vec2]:
    """The contour E = level on `samples` evenly spaced rays from the
    obstacle center, counter-clockwise from +x."""
    points = []
    for i in range(samples):
        beta = 2.0 * math.pi * i / samples
        dx, dy = contour_offsets(ob, math.cos(beta), math.sin(beta), level)
        points.append(Vec2(ob.center.x + dx, ob.center.y + dy))
    return points


# the trace columns of the four safety ratios, in the order safety_snapshot
# returns them
RATIO_COLUMNS = ("ratio_attacker_obstacle", "ratio_defender_obstacle",
                 "ratio_defender_defender", "ratio_attacker_defender")


def safety_ratio(threshold: float, actual: float) -> float:
    """Threshold over actual distance, +inf where the actual distance is
    nonpositive (already inside a forbidden region); >= 1 is a violation."""
    if actual <= 0.0:
        return math.inf
    return threshold / actual


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Check every assumption of the guarantees that ties two or more values.

    Returns a list of violation strings (empty iff the scenario is sound).
    Each entry starts with a stable code so callers can match on categories.
    """
    v: list[str] = []

    # run() detects a breach by this same test
    if cfg.protected.contains(cfg.attacker.start):
        v.append(f"attacker-start: attacker starts at ({cfg.attacker.start.x:g}, "
                 f"{cfg.attacker.start.y:g}), inside the protected area")
    # an attacker held in a safe area that meets the protected disc can still
    # breach; both containment tests use <=, so even touching discs share a point
    apart = dist(cfg.protected.center, cfg.safe.center)
    radii = cfg.protected.radius + cfg.safe.radius
    if not apart > radii:
        v.append(f"safe-area-overlap: the safe and protected areas' centers are {apart:.4f} m "
                 f"apart, not more than their summed radii {radii:.4f} m")
    # No safety_snapshot ratio may start at or above 1: each actual distance
    # must exceed its threshold.  who names the pair, formatted on a violation.
    def clearance(ratio: str, lo: float, d: float, who: str, *ids) -> None:
        if d <= lo:
            v.append(f"start-clearance: {ratio} ratio {safety_ratio(lo, d):.4g} "
                     f"({who.format(*ids)})")
    a0, starts = cfg.attacker.start, cfg.defenders.starts
    for i, ob in enumerate(cfg.obstacles):
        clearance("attacker_obstacle", ob.formation_band.lo, superelliptic_distance(a0, ob),
                  "obstacle {}", i)
        for k, p in enumerate(starts):
            clearance("defender_obstacle", ob.defender_band.lo, superelliptic_distance(p, ob),
                      "defender {}, obstacle {}", k, i)
    lo = cfg.defenders.peer_band.lo
    for (j, p), (k, q) in itertools.combinations(enumerate(starts), 2):
        clearance("defender_defender", lo, dist(p, q), "defenders {} and {}", j, k)
    lo = cfg.attacker.standoff_band.lo
    for k, p in enumerate(starts):
        clearance("attacker_defender", lo, dist(a0, p), "defender {}", k)
    v_d_min = min(cfg.defenders.speed_max)
    if not cfg.attacker.speed_max < v_d_min:
        v.append(f"speed-order: attacker speed {cfg.attacker.speed_max} must be "
                 f"strictly below every defender speed (min {v_d_min})")
    if cfg.defenders.body_radius > cfg.attacker.body_radius:
        v.append(f"body-radius: defender radius {cfg.defenders.body_radius} must not "
                 f"exceed attacker radius {cfg.attacker.body_radius}")
    if cfg.formation.clearance < 2.0 * cfg.defenders.body_radius:
        v.append(f"clearance: formation clearance {cfg.formation.clearance} must be "
                 f">= twice the defender radius {2.0 * cfg.defenders.body_radius}")

    # BlendTriplet's test on the defenders' attacker band (sim.build_context)
    standoff, tol = cfg.attacker.standoff_band, cfg.formation.goal_tolerance
    lo, hi = standoff.lo, cfg.formation.arc_radius - tol
    if not (lo < (lo + hi) / 2 < hi and cfg.formation.arc_radius <= standoff.mid):
        v.append(f"arc-radius: {cfg.formation.arc_radius} must lie in ({lo} + {tol}, "
                 f"{standoff.mid}] so the arc repulsion saturates and the avoid band is not empty")
    plo = cfg.defenders.peer_band.lo
    if plo <= cfg.defenders.body_radius:
        v.append(f"peer-separation: minimum defender separation {plo} must exceed "
                 f"the defender radius {cfg.defenders.body_radius}")

    needed = min_spread(cfg.defenders.count, standoff.lo, plo)
    if cfg.formation.spread < needed:
        v.append(f"spread: {cfg.formation.spread} rad is below the minimum "
                 f"{needed:.6f} rad for {cfg.defenders.count} defenders")
    mag = arc_magnitude(cfg.defenders.count, cfg.formation.spread)
    # each obstacle's circular repulsion has norm at most 1, and any two
    # whose influence discs meet fail the obstacle-spacing check below
    # (the same distance and radius sum), so in an accepted scenario at
    # most one obstacle repels the attacker at a time
    reachable = 1.0 if cfg.obstacles else 0.0
    if not mag > reachable:
        v.append(f"arc-magnitude: {mag:.6f} must exceed the worst simultaneous "
                 f"obstacle repulsion {reachable:.1f} or the heading command "
                 f"becomes unsolvable")

    # attacker_field and obstacle_push drop every source beyond the sensing
    # radius, so a radius below a band's hi cuts off part of the circle model
    # that the arc-magnitude bound assumes
    bands = [(ob.attacker_band.hi, f"obstacle {i}'s attacker band")
             for i, ob in enumerate(cfg.obstacles)]
    bands.append((standoff.hi, "the standoff band"))
    need, what = max(bands)
    if cfg.attacker.sensing_radius < need:
        v.append(f"sensing-radius: attacker sensing radius {cfg.attacker.sensing_radius} "
                 f"m is below {need:.4f} m, the hi of {what}")

    k0 = (v_d_min - cfg.attacker.speed_max
          - cfg.formation.arc_radius * cfg.control.heading_rate_max)
    if k0 <= 0.0:
        v.append(f"tracking-speed: defender speed budget leaves no tracking "
                 f"margin (k0 = {k0:.6f} <= 0)")

    # Each obstacle pair, once.  The attacker's circular influence discs must
    # be disjoint, and so must the outer super-elliptic shells; only shells
    # whose centers are closer than their summed reach can meet, so only
    # those pairs are sampled.
    for (i, a), (j, b) in itertools.combinations(enumerate(cfg.obstacles), 2):
        d = dist(a.center, b.center)
        needed = a.attacker_band.hi + b.attacker_band.hi
        if d < needed:
            v.append(f"obstacle-spacing: obstacles {i} and {j} are {d:.4f} m apart "
                     f"but their circular influence radii need {needed:.4f} m")
        if d >= a.formation_reach + b.formation_reach:
            continue
        hi_a, hi_b = a.formation_band.hi, b.formation_band.hi
        overlap = (any(superelliptic_distance(p, b) <= hi_b
                       for p in shell_points(a, hi_a, BOUNDARY_SAMPLES))
                   or any(superelliptic_distance(p, a) <= hi_a
                          for p in shell_points(b, hi_b, BOUNDARY_SAMPLES))
                   or superelliptic_distance(a.center, b) <= hi_b)
        if overlap:
            v.append(f"shell-overlap: outer shells of obstacles {i} and {j} intersect")

    # the safe area must be clear of every outer shell; a level floor above
    # hi over the whole safe disc means the shell cannot touch it
    near_safe = [(i, ob) for i, ob in enumerate(cfg.obstacles)
                 if level_floor(ob, distance_floor(cfg.safe.center, ob, cfg.safe.radius))
                 <= ob.formation_band.hi]
    if near_safe:
        cx, cy = cfg.safe.center
        angles = (2.0 * math.pi * k / BOUNDARY_SAMPLES for k in range(BOUNDARY_SAMPLES))
        ring = [Vec2(cx + cfg.safe.radius * math.cos(t), cy + cfg.safe.radius * math.sin(t))
                for t in angles]
    for i, ob in near_safe:
        touched = any(superelliptic_distance(p, ob) <= ob.formation_band.hi for p in ring)
        touched = touched or superelliptic_distance(cfg.safe.center, ob) <= ob.formation_band.hi
        touched = touched or cfg.safe.contains(ob.center)
        if touched:
            v.append(f"safe-area-shell: obstacle {i} outer shell reaches into the safe area")

    # the defenders plan only while the attacker is in the sensing zone,
    # so the whole safe area must lie inside it
    reach = dist(cfg.protected.center, cfg.safe.center) + cfg.safe.radius
    if reach > cfg.defenders.sensing_zone_radius:
        v.append(f"sensing-zone: the safe area reaches {reach:.4f} m from the "
                 f"protected center, beyond the "
                 f"{cfg.defenders.sensing_zone_radius} m sensing zone")
    # capture-phase timing must keep the attacker inside once it is in
    gap = v_d_min - cfg.attacker.speed_max
    if gap > 0.0:
        rho_needed = (cfg.attacker.speed_max * cfg.capture.transition_time
                      + cfg.attacker.speed_max * cfg.formation.arc_radius / gap)
        if cfg.safe.radius < rho_needed:
            v.append(f"safe-radius: {cfg.safe.radius} m is below the "
                     f"{rho_needed:.4f} m needed to hold the attacker through "
                     f"the heading transition")

    return v


def scenario_warnings(cfg: ScenarioConfig) -> list[str]:
    """Non-fatal consistency notes (the run may still be sound)."""
    w: list[str] = []
    band = cfg.attacker.standoff_band
    midpoint = 0.5 * (band.lo + band.mid)
    if abs(cfg.formation.arc_radius - midpoint) > 1e-9:
        w.append(f"arc-radius-midpoint: arc radius {cfg.formation.arc_radius} is not "
                 f"the midpoint {midpoint} of the saturated standoff band")
    heuristic = transition_heuristic(min(cfg.defenders.speed_max),
                                     cfg.attacker.speed_max, cfg.formation.arc_radius)
    if cfg.capture.transition_time < heuristic:
        w.append(f"transition-time: {cfg.capture.transition_time} s is below the "
                 f"heuristic floor {heuristic:.4f} s")
    return w
