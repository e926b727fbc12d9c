"""Fixed-step closed-loop engine.

Explicit Euler with a fixed step: the fields involved are only piecewise
smooth (watershed rays, deadlock escape, conflict switching), so a high-order
integrator would buy accuracy it cannot keep; determinism and simplicity win.
Every per-step quantity is computed from the step-start snapshot and all
position updates are applied together at the end of the step.

Step order: sense -> plan (guidance field, heading schedule, arc command,
slots) -> attacker policy -> defender tracking -> synchronous Euler update ->
safety snapshot.
"""

from __future__ import annotations

import dataclasses
import io
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TextIO

from .attacker import AttackerState, attacker_field, attacker_step
from .defender_control import (TrackingGains, defender_field, defender_velocity,
                               solve_tracking_gains)
from .environment import (CULL_SLACK, Obstacle, ScenarioConfig, level_floor,
                          safety_ratio, superelliptic_distance)
from .errors import ConfigError, IntegrityError
from .formation_field import combined_field
from .geom import BlendTriplet, Vec2, angle_of, dist
from .herding import (FormationSpec, HeadingState, formation_goals, formation_spec,
                      heading_rate, obstacle_resultant, schedule_heading,
                      solve_command_heading)

log = logging.getLogger("herdsim.sim")

TERM_CAPTURED = "captured-stable"
TERM_TIMEOUT = "t-max"
TERM_BREACHED = "breached"

# Verlet skin (Verlet, Phys. Rev. 159, 1967): an agent's obstacle list holds
# every obstacle that can act on it anywhere within SKIN_M of the list's
# anchor, so the list serves until the agent has moved SKIN_M from there.
# In the bundled scenario no agent moves more than 2.6 m/s * 0.01 s = 0.026 m
# per step, so a list lasts at least 39 steps (about 100 on average).
SKIN_M = 1.0


@dataclass
class DefenderState:
    position: Vec2
    velocity: Vec2
    goal: Vec2
    goal_velocity: Vec2
    in_conflict: bool = False


@dataclass
class SimState:
    t: float
    attacker: AttackerState
    attacker_velocity: Vec2          # velocity commanded for the current step
    defenders: list[DefenderState]
    heading: HeadingState
    sensed: bool = False
    t_sense: Optional[float] = None
    t_formed: Optional[float] = None
    t_breach: Optional[float] = None

    @property
    def t_capture(self) -> Optional[float]:
        return self.heading.entered_safe_at


class SafetySnapshot(NamedTuple):
    """Threshold-over-actual distance ratios; any value >= 1 is a violation."""

    attacker_obstacle: float
    defender_obstacle: float
    defender_defender: float
    attacker_defender: float


# the safety snapshot's trace columns, in field order
RATIO_COLUMNS = tuple("ratio_" + name for name in SafetySnapshot._fields)


@dataclass
class RunContext:
    """Quantities derived once per run."""

    spec: Optional[FormationSpec]
    gains: tuple[TrackingGains, ...]
    standoff: Optional[BlendTriplet]
    peers: Optional[BlendTriplet]


@dataclass
class SimTrace:
    """Time-indexed log of one closed-loop run."""

    dt: float
    defender_count: int
    columns: tuple[str, ...]
    rows: list = field(default_factory=list)
    events: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)
    termination: str = ""
    captured: bool = False          # a capture clock runs at the end of the run

    @property
    def t_end(self) -> float:
        return self.rows[-1][0] if self.rows else 0.0

    def column(self, name: str) -> list:
        """Every row's value of the named column, in time order."""
        k = self.columns.index(name)
        return [row[k] for row in self.rows]

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """Write the trace as CSV to the text stream out, one row at a time;
        with no stream, return the CSV as a string."""
        if out is None:
            buf = io.StringIO()
            self.to_csv(buf)
            return buf.getvalue()
        out.write(",".join(self.columns) + "\n")
        out.writelines(",".join(map(repr, row)) + "\n" for row in self.rows)

    def summary(self) -> dict:
        return {
            "events": self.events,
            "maxima": self.maxima,
            "termination": self.termination,
            "captured": self.captured,
            # an exit from the safe area stops the capture clock, so a clock
            # that runs at the end has held since its entry
            "capture_held": self.captured,
            "t_end": self.t_end,
            "steps": len(self.rows) - 1 if self.rows else 0,
            "dt_s": self.dt,
            "defenders": self.defender_count,
        }


def _trace_columns(n_defenders: int) -> tuple[str, ...]:
    cols = ["t_s", "attacker_x_m", "attacker_y_m", "attacker_vx_mps",
            "attacker_vy_mps", "heading_desired_rad", "heading_cmd_rad"]
    for j in range(n_defenders):
        cols += [f"d{j}_x_m", f"d{j}_y_m", f"d{j}_vx_mps", f"d{j}_vy_mps",
                 f"d{j}_goal_x_m", f"d{j}_goal_y_m"]
    return tuple(cols) + RATIO_COLUMNS


def build_context(cfg: ScenarioConfig) -> RunContext:
    n = cfg.defenders.count
    spec = None
    gains = ()
    if n:
        spec = formation_spec(n, cfg.formation.spread, cfg.formation.arc_radius,
                              cfg.attacker.standoff_band[0], cfg.defenders.peer_band[0])
        gains = tuple(
            solve_tracking_gains(cfg.control.terminal_exponent, vmax,
                                 cfg.attacker.speed_max, cfg.formation.arc_radius,
                                 cfg.control.heading_rate_max)
            for vmax in cfg.defenders.speed_max)
    return RunContext(spec=spec, gains=gains,
                      standoff=cfg.attacker.standoff_triplet() if n else None,
                      peers=cfg.defenders.peer_triplet() if n else None)


def new_state(cfg: ScenarioConfig) -> SimState:
    return SimState(
        t=0.0,
        attacker=AttackerState(position=cfg.attacker.start, heading=0.0,
                               speed=cfg.attacker.speed_max),
        attacker_velocity=Vec2(0.0, 0.0),
        defenders=[DefenderState(position=p, velocity=Vec2(0.0, 0.0),
                                 goal=p, goal_velocity=Vec2(0.0, 0.0))
                   for p in cfg.defenders.starts],
        heading=HeadingState(),
    )


@dataclass(frozen=True)
class ObstacleList:
    """What one agent needs of the obstacles while it stays near `anchor`.

    `near` holds, in obstacle index order, every obstacle that can act on the
    agent anywhere within `skin` of the anchor; a kernel given `near` in place
    of every obstacle sums the same terms in the same order, so its result is
    bit-identical.  `bounds` holds (ratio bound, threshold, obstacle) for
    every obstacle, by descending bound: the bound is at or above the pair's
    safety ratio anywhere within `skin` of the anchor.
    """

    anchor: Vec2
    skin: float
    near: tuple[Obstacle, ...]
    bounds: tuple[tuple[float, float, Obstacle], ...]


def obstacle_list(anchor: Vec2, cfg: ScenarioConfig, defender: bool) -> ObstacleList:
    """Build the attacker's (defender=False) or a defender's list at anchor.

    Exactness, with u the unit roundoff.  The list is kept only while the
    computed squared displacement from the anchor is below skin^2 (see
    refresh_lists), so the true displacement is below skin * (1 + 3u).
    Differences of floats round once, so computed distances carry a relative
    error of a few u, never one relative to the coordinates.

    - near: an obstacle acts on the attacker only within min(sensing radius,
      attacker_band.hi) of the agent (beyond hi its weight is 0), and on a
      defender only within defender_reach; every such center lies within
      radius + skin of the anchor by the triangle inequality.  Widening that
      by CULL_SLACK relative absorbs the rounding of both distance tests.
      An obstacle whose center coincides with the agent is within skin of the
      anchor, so it is always listed and attacker_field still raises.
    - bounds: every point within the skin lies at least d - skin from the
      center, d the anchor's distance.  t = d (1 - CULL_SLACK) - skin
      (1 + CULL_SLACK) rounds d - skin outward (down) by far more than the
      rounding of d, the displacement and t itself.  With t > 0, the level
      floor at t is then below the floor at any such point, and the floor's
      own margin (see CULL_SLACK) keeps it below the evaluated level.  So
      threshold / floor bounds the ratio (division rounds monotonically),
      and one step up (nextafter) rounds the bound outward as well.  Where
      the floor is <= 0 (as it is for t <= 0) the bound is inf.
    """
    skin = SKIN_M
    ax, ay = anchor
    sensing = cfg.attacker.sensing_radius
    near = []
    bounds = []
    for ob in cfg.obstacles:
        cx, cy = ob.center
        dx = ax - cx
        dy = ay - cy
        d2 = dx * dx + dy * dy
        if defender:
            radius = ob.defender_reach
            lo = ob.defender_band.lo
        else:
            radius = min(sensing, ob.attacker_band.hi)
            lo = ob.formation_band.lo
        reach = (radius + skin) * (1.0 + CULL_SLACK)
        if d2 <= reach * reach:
            near.append(ob)
        t = math.sqrt(d2) * (1.0 - CULL_SLACK) - skin * (1.0 + CULL_SLACK)
        floor = level_floor(ob, max(t, 0.0))
        bound = math.nextafter(lo / floor, math.inf) if floor > 0.0 else math.inf
        bounds.append((bound, lo, ob))
    bounds.sort(key=lambda entry: entry[0], reverse=True)
    return ObstacleList(anchor=anchor, skin=skin, near=tuple(near), bounds=tuple(bounds))


def refresh_lists(lists: list, agents, cfg: ScenarioConfig) -> None:
    """Rebuild each agent's list once it has moved its list's skin or more.

    agents are the attacker's position, then each defender's; lists holds
    one ObstacleList per agent, or None where none is built yet.
    """
    for k, p in enumerate(agents):
        old = lists[k]
        if old is not None:
            dx = p.x - old.anchor.x
            dy = p.y - old.anchor.y
            if dx * dx + dy * dy < old.skin * old.skin:
                continue
        lists[k] = obstacle_list(p, cfg, k > 0)


def _max_obstacle_ratio(p: Vec2, ob_list: ObstacleList, r: float) -> float:
    """Raise r to the largest safety ratio of p against every obstacle.

    Walks ob_list's bounds in descending order and stops at the first bound
    at or below r: that bound holds at p, so no later pair can raise r.
    """
    for bound, lo, ob in ob_list.bounds:
        if bound <= r:
            break
        r = max(r, safety_ratio(lo, superelliptic_distance(p, ob)))
    return r


def safety_snapshot(attacker_pos: Vec2, defender_positions, cfg: ScenarioConfig,
                    lists) -> SafetySnapshot:
    """Evaluate the four critical relative distances at given positions.

    A nonpositive actual distance (already inside a forbidden region) maps to
    +inf.  With nothing in the world a ratio is 0 by convention.

    lists holds the agents' ObstacleLists (attacker first), each valid at its
    agent's position; their ratio bounds cut the obstacle scan short, and the
    result is still the exact maximum over every pair.
    """
    r_ao = _max_obstacle_ratio(attacker_pos, lists[0], 0.0)
    r_do = 0.0
    for p, ob_list in zip(defender_positions, lists[1:]):
        r_do = _max_obstacle_ratio(p, ob_list, r_do)

    r_dd = 0.0
    peer_min = cfg.defenders.peer_band[0]
    n = len(defender_positions)
    for j in range(n):
        for l in range(j + 1, n):
            r_dd = max(r_dd, safety_ratio(peer_min, dist(defender_positions[j],
                                                         defender_positions[l])))

    r_ad = 0.0
    standoff_min = cfg.attacker.standoff_band[0]
    for p in defender_positions:
        r_ad = max(r_ad, safety_ratio(standoff_min, dist(attacker_pos, p)))

    return SafetySnapshot(r_ao, r_do, r_dd, r_ad)


def _plan(state: SimState, cfg: ScenarioConfig, ctx: RunContext,
          near: tuple[Obstacle, ...]) -> None:
    """Guidance for this step: desired heading, arc command, slot targets.

    near is the attacker's obstacle list; the guidance field still scans
    every obstacle.
    """
    hs = state.heading
    r_a = state.attacker.position
    sample = combined_field(r_a, cfg.obstacles, cfg.safe.center)
    field_angle = angle_of(sample.direction)
    inside = cfg.safe.contains(r_a)
    desired = schedule_heading(field_angle, state.t, inside, hs,
                               cfg.capture.transition_time, cfg.capture.tangent_margin)
    mag, gamma = obstacle_resultant(r_a, near, cfg.attacker.sensing_radius)
    command = solve_command_heading(desired, mag, gamma, ctx.spec.arc_magnitude)
    if hs._prev_command is None:
        rate = 0.0
    else:
        rate = heading_rate([hs._prev_command, command], cfg.integrator.dt,
                            cfg.control.heading_rate_max)
    hs.command = command
    hs._prev_command = command
    goals = formation_goals(r_a, state.attacker_velocity, command, rate, ctx.spec)
    for d, (gp, gv) in zip(state.defenders, goals):
        d.goal = gp
        d.goal_velocity = gv


def compute_commands(state: SimState, cfg: ScenarioConfig, ctx: RunContext,
                     lists) -> AttackerState:
    """Fill every command for the current step from the step-start snapshot.

    lists holds the agents' ObstacleLists (attacker first), each valid at its
    agent's step-start position.  Returns the attacker's next state (not yet
    applied); defender velocities, goals, and the heading state are written
    into `state` directly.
    """
    r_a = state.attacker.position
    state.sensed = dist(r_a, cfg.protected.center) <= cfg.defenders.sensing_zone_radius
    if state.sensed and state.t_sense is None:
        state.t_sense = state.t

    planning = state.sensed and ctx.spec is not None
    if planning:
        _plan(state, cfg, ctx, lists[0].near)
    else:
        for d in state.defenders:
            d.goal = d.position
            d.goal_velocity = Vec2(0.0, 0.0)

    positions = [d.position for d in state.defenders]
    a_field = attacker_field(r_a, positions, lists[0].near, cfg.protected.center,
                             cfg.attacker.sensing_radius, ctx.standoff)
    next_attacker = attacker_step(state.attacker, a_field,
                                  cfg.attacker.deadlock_turn, cfg.integrator.dt)
    state.attacker_velocity = Vec2(state.attacker.speed * math.cos(next_attacker.heading),
                                   state.attacker.speed * math.sin(next_attacker.heading))

    if planning:
        for j, d in enumerate(state.defenders):
            f, conflict = defender_field(j, positions, d.goal, lists[j + 1].near,
                                         ctx.peers)
            d.in_conflict = conflict
            d.velocity = defender_velocity(d.position, d.goal, d.goal_velocity,
                                           f, conflict, ctx.gains[j])
    else:
        for d in state.defenders:
            d.in_conflict = False
            d.velocity = Vec2(0.0, 0.0)
    return next_attacker


def apply_commands(state: SimState, next_attacker: AttackerState, dt: float) -> None:
    """Synchronous Euler update of every agent, with an integrity check."""
    state.attacker = next_attacker
    for d in state.defenders:
        d.position = Vec2(d.position.x + d.velocity.x * dt,
                          d.position.y + d.velocity.y * dt)
    if not state.attacker.position.is_finite() or \
            any(not d.position.is_finite() for d in state.defenders):
        raise IntegrityError(
            f"non-finite state at t={state.t}",
            dump={"t": state.t,
                  "attacker": tuple(state.attacker.position),
                  "defenders": [tuple(d.position) for d in state.defenders]})


def run(cfg: ScenarioConfig, dt: Optional[float] = None,
        t_max: Optional[float] = None) -> SimTrace:
    """Run the closed loop until capture holds through the dwell window, the
    protected area is breached, or the time budget runs out.

    Deterministic: identical configurations produce identical traces.
    """
    if dt is not None or t_max is not None:
        integ = dataclasses.replace(cfg.integrator,
                                    **({"dt": dt} if dt is not None else {}),
                                    **({"t_max": t_max} if t_max is not None else {}))
        if integ.dt <= 0.0 or integ.t_max <= 0.0:
            raise ConfigError("dt and t_max overrides must be positive")
        cfg = dataclasses.replace(cfg, integrator=integ)

    ctx = build_context(cfg)
    state = new_state(cfg)
    n = cfg.defenders.count
    trace = SimTrace(dt=cfg.integrator.dt, defender_count=n,
                     columns=_trace_columns(n))
    n_steps = round(cfg.integrator.t_max / cfg.integrator.dt)
    dwell = cfg.capture.dwell_factor * cfg.capture.transition_time

    lists = [None] * (1 + n)
    goal_tol = cfg.formation.goal_tolerance

    for i in range(n_steps + 1):
        state.t = i * cfg.integrator.dt
        r_a = state.attacker.position

        if state.t_capture is not None and not cfg.safe.contains(r_a):
            # the capture clock stops; the next entry restarts the transition
            state.heading.entered_safe_at = None
            log.warning("attacker left the safe area at t=%.3f", state.t)
        if state.t_breach is None and cfg.protected.contains(r_a):
            state.t_breach = state.t

        positions = [d.position for d in state.defenders]
        refresh_lists(lists, [r_a, *positions], cfg)

        terminal = None
        if state.t_breach is not None:
            terminal = TERM_BREACHED
        elif state.t_capture is not None and state.t - state.t_capture >= dwell:
            terminal = TERM_CAPTURED
        elif i == n_steps:
            terminal = TERM_TIMEOUT

        if terminal is None:
            next_attacker = compute_commands(state, cfg, ctx, lists)
        else:
            state.attacker_velocity = Vec2(0.0, 0.0)
            for d in state.defenders:
                d.velocity = Vec2(0.0, 0.0)

        snap = safety_snapshot(r_a, positions, cfg, lists)
        row = [state.t, r_a.x, r_a.y,
               state.attacker_velocity.x, state.attacker_velocity.y,
               state.heading.desired, state.heading.command]
        for d in state.defenders:
            row += [d.position.x, d.position.y, d.velocity.x, d.velocity.y,
                    d.goal.x, d.goal.y]
        row += snap
        trace.rows.append(tuple(row))

        if (state.t_formed is None and state.sensed and ctx.spec is not None
                and all(dist(d.position, d.goal) <= goal_tol for d in state.defenders)):
            state.t_formed = state.t

        if terminal is not None:
            trace.termination = terminal
            break
        apply_commands(state, next_attacker, cfg.integrator.dt)

    trace.captured = state.t_capture is not None
    trace.events = {
        "t_sense_s": state.t_sense,
        "t_formed_s": state.t_formed,
        "t_capture_s": state.t_capture,
        "t_breach_s": state.t_breach,
    }
    trace.maxima = {name: max(trace.column(name)) for name in RATIO_COLUMNS}
    trace.maxima["attacker_speed_mps"] = _max_speed(trace, "attacker")
    trace.maxima["defender_speed_mps"] = [_max_speed(trace, f"d{j}") for j in range(n)]
    return trace


def _max_speed(trace: SimTrace, agent: str) -> float:
    return max(map(math.hypot, trace.column(f"{agent}_vx_mps"),
                   trace.column(f"{agent}_vy_mps")))
