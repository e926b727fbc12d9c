"""Fixed-step closed-loop engine.

Explicit Euler with a fixed step: the fields involved are only piecewise
smooth (watershed rays, deadlock escape, conflict switching), so a high-order
integrator would buy accuracy it cannot keep; determinism and simplicity win.
Every per-step quantity is computed from the step-start snapshot and all
position updates are applied together at the end of the step.

Step order: sense -> obstacle push on the attacker (once) -> plan (guidance
field, heading schedule, arc command against that push, slots) and defender
tracking -> attacker heading (the same push) -> synchronous Euler update of
every agent by its commanded velocity -> safety snapshot.
"""

from __future__ import annotations

import io
import itertools
import math
from array import array
from typing import Optional, TextIO

from .attacker import attacker_field, attacker_step, obstacle_push
from .defender_control import defender_field, defender_velocity, solve_tracking_gains
from .environment import (RATIO_COLUMNS, ScenarioConfig, distance_floor, level_floor,
                          safety_ratio, superelliptic_distance)
from .errors import IntegrityError
from .formation_field import combined_field
from .geom import BlendTriplet, Frozen, Vec2, dist
from .herding import (formation_goals, formation_spec, heading_rate, obstacle_resultant,
                      schedule_heading, solve_command_heading)

TERM_CAPTURED = "captured-stable"
TERM_TIMEOUT = "t-max"
TERM_BREACHED = "breached"

# Verlet skin (Verlet, Phys. Rev. 159, 1967): an agent's obstacle list holds
# every obstacle that can act on it anywhere within SKIN_M of the list's
# anchor, so the list serves until the agent has moved SKIN_M from there.
# In the bundled scenario no agent moves more than 2.6 m/s * 0.01 s = 0.026 m
# per step, so a list lasts at least 39 steps (about 100 on average).
SKIN_M = 1.0


class SimState:
    """The attacker is a position, heading and velocity; the defenders are
    three lists in defender order.  Positions and goals are Vec2 points,
    velocities (x, y) pairs.  A step replaces each list whole and
    never mutates one in place, so the positions list run() reads at step
    start stays the step-start snapshot for the safety snapshot, the trace
    row and the formed test.  SimState(cfg) is the state at t = 0: every
    agent still at its start, and the goals the positions list, as on a hold
    step."""

    __slots__ = ("t",
                 "attacker",           # the attacker's position
                 "heading",            # the attacker's last heading
                 "attacker_velocity",  # velocity commanded for the current step
                 "positions",
                 "velocities",         # velocities commanded for the current step
                 "goals",              # slots of the last plan; positions on a hold step
                 "desired",            # desired herd heading of the last plan
                 "command",            # arc command of the last plan; None before any
                 "t_capture")          # last entry into the safe area, None once out

    def __init__(self, cfg: ScenarioConfig):
        starts = list(cfg.defenders.starts)
        self.t = 0.0
        self.attacker = cfg.attacker.start
        self.heading = 0.0
        self.attacker_velocity = (0.0, 0.0)
        self.positions = self.goals = starts
        self.velocities = [(0.0, 0.0)] * len(starts)
        self.desired = 0.0
        self.command: Optional[float] = None
        self.t_capture: Optional[float] = None


class RunContext(Frozen):
    """Quantities derived once per run.  guidance holds every obstacle that
    can act on the guidance field within the defenders' sensing zone, the
    only place where run() lets compute_commands evaluate it.  avoid, the
    defenders' attacker band, runs from the standoff lo to the arc radius
    less the goal tolerance: a defender within tolerance of its slot never
    feels it."""

    __slots__ = ("spec", "gains", "guidance", "avoid")


class SimTrace:
    """Time-indexed log of one closed-loop run.

    values holds the samples row-major in one array('d'), len(columns) to a
    row and one row per step: 8 bytes a sample, where a tuple of floats takes
    about four times that.  column() returns one column as an array('d'),
    speed() one agent's speed; rows builds the list of row tuples each time
    it is read.  notices holds (t, text) of each safe-area exit and each
    degenerate-field hold, in time order; to_csv and summary leave them out.
    """

    __slots__ = ("dt", "defender_count", "columns", "values", "events", "maxima",
                 "termination", "notices")

    def __init__(self, dt: float, defender_count: int):
        self.dt = dt
        self.defender_count = defender_count
        cols = ["t_s", "attacker_x_m", "attacker_y_m", "attacker_vx_mps",
                "attacker_vy_mps", "heading_desired_rad", "heading_cmd_rad"]
        for j in range(defender_count):
            cols += [f"d{j}_x_m", f"d{j}_y_m", f"d{j}_vx_mps", f"d{j}_vy_mps",
                     f"d{j}_goal_x_m", f"d{j}_goal_y_m"]
        self.columns = tuple(cols) + RATIO_COLUMNS
        self.values = array("d")
        self.events: dict = {}
        self.maxima: dict = {}
        self.termination = ""
        self.notices: list[tuple[float, str]] = []

    def _row_slices(self):
        w = len(self.columns)
        return (self.values[i:i + w] for i in range(0, len(self.values), w))

    @property
    def rows(self) -> list:
        return [tuple(row) for row in self._row_slices()]

    @property
    def t_end(self) -> float:
        # t_s is the first column
        return self.values[-len(self.columns)] if self.values else 0.0

    def column(self, name: str) -> array:
        """Every row's value of the named column, in time order."""
        return self.values[self.columns.index(name)::len(self.columns)]

    def speed(self, agent: str) -> array:
        """Every row's speed of agent ("attacker" or "d<j>"), in time order."""
        return array("d", map(math.hypot, self.column(f"{agent}_vx_mps"),
                              self.column(f"{agent}_vy_mps")))

    def to_csv(self, out: Optional[TextIO] = None) -> Optional[str]:
        """Write the trace as CSV to the text stream out, one row at a time;
        with no stream, return the CSV as a string (the benchmark hashes the
        trace that way)."""
        if out is None:
            buf = io.StringIO()
            self.to_csv(buf)
            return buf.getvalue()
        out.write(",".join(self.columns) + "\n")
        out.writelines(",".join(map(repr, row)) + "\n" for row in self._row_slices())

    def summary(self) -> dict:
        return {
            "events": self.events,
            "maxima": self.maxima,
            "termination": self.termination,
            # every exit stops the capture clock, so one running at the end has held
            "captured": self.events["t_capture_s"] is not None,
            "t_end": self.t_end,
            "steps": max(len(self.values) // len(self.columns) - 1, 0),
            "dt_s": self.dt,
            "defenders": self.defender_count,
        }


def build_context(cfg: ScenarioConfig) -> RunContext:
    spec = formation_spec(cfg.defenders.count, cfg.formation.spread, cfg.formation.arc_radius,
                          cfg.attacker.standoff_band.lo, cfg.defenders.peer_band.lo)
    # one solve per distinct speed, in the order the speeds first appear
    gains_of = {vmax: solve_tracking_gains(cfg.control.terminal_exponent, vmax,
                                           cfg.attacker.speed_max, cfg.formation.arc_radius,
                                           cfg.control.heading_rate_max)
                for vmax in dict.fromkeys(cfg.defenders.speed_max)}
    gains = tuple(map(gains_of.__getitem__, cfg.defenders.speed_max))
    zone = cfg.defenders.sensing_zone_radius
    guidance = tuple(ob for ob in cfg.obstacles
                     if level_floor(ob, distance_floor(cfg.protected.center, ob, zone))
                     < ob.formation_band.hi)
    lo, hi = cfg.attacker.standoff_band.lo, cfg.formation.arc_radius - cfg.formation.goal_tolerance
    return RunContext(spec=spec, gains=gains, guidance=guidance,
                      avoid=BlendTriplet(lo, (lo + hi) / 2, hi))


class ObstacleList(Frozen):
    """What one agent needs of the obstacles while it stays near `anchor`.

    `near` holds, in obstacle index order, every obstacle that can act on the
    agent anywhere within SKIN_M of the anchor, so a kernel given it in place
    of every obstacle sums the same terms in the same order and its result is
    bit-identical.  `bounds` holds (ratio bound, threshold, obstacle) for
    every obstacle, by descending bound: the bound is at or above the pair's
    safety ratio anywhere within SKIN_M of the anchor.
    """

    __slots__ = ("anchor", "near", "bounds")


def obstacle_list(anchor: Vec2, cfg: ScenarioConfig, defender: bool) -> ObstacleList:
    """Build the attacker's (defender=False) or a defender's list at anchor.

    Every point within the skin (refresh_lists keeps the list only that long)
    lies at least t = distance_floor(anchor, ob, SKIN_M) from an obstacle's
    center, and its level is at least the floor there.
    - near: a defender's field weighs in an obstacle only below its
      defender_band.hi, so a floor at or above that drops it.  The attacker's
      push takes one only within min(sensing radius, attacker_band.hi), so t
      beyond that drops it; t <= keeps a center the agent may reach, so a
      kernel still raises.
    - bounds: safety_ratio(threshold, floor).  The slack keeps the floor at
      or below the evaluated level E and rounded division is monotone, so
      this is at or above the evaluated ratio threshold / E.
    """
    sensing = cfg.attacker.sensing_radius
    near = []
    bounds = []
    for ob in cfg.obstacles:
        t = distance_floor(anchor, ob, SKIN_M)
        floor = level_floor(ob, t)
        if (floor < ob.defender_band.hi) if defender else (t <= min(sensing, ob.attacker_band.hi)):
            near.append(ob)
        lo = ob.defender_band.lo if defender else ob.formation_band.lo
        bounds.append((safety_ratio(lo, floor), lo, ob))
    bounds.sort(key=lambda entry: entry[0], reverse=True)
    return ObstacleList(anchor=anchor, near=tuple(near), bounds=tuple(bounds))


def refresh_lists(lists: list, agents, cfg: ScenarioConfig) -> None:
    """Rebuild each agent's list once it has moved SKIN_M or more from the
    list's anchor.

    agents are the attacker's position, then each defender's; lists holds
    one ObstacleList per agent.
    """
    for k, p in enumerate(agents):
        anchor = lists[k].anchor
        dx = p.x - anchor.x
        dy = p.y - anchor.y
        if dx * dx + dy * dy < SKIN_M * SKIN_M:
            continue
        lists[k] = obstacle_list(p, cfg, k > 0)


def _max_obstacle_ratio(points, lists) -> float:
    """The largest safety ratio of any point against any obstacle, 0 if
    there is none; lists holds each point's ObstacleList in the same order,
    and any lists beyond the last point are ignored.

    Walks a list's bounds in descending order and stops at the first bound
    at or below the running maximum r: that bound holds at its point, so no
    later pair of that point can raise r.
    """
    r = 0.0
    for p, ob_list in zip(points, lists):
        for bound, lo, ob in ob_list.bounds:
            if bound <= r:
                break
            ratio = safety_ratio(lo, superelliptic_distance(p, ob))
            if ratio > r:
                r = ratio
    return r


def safety_snapshot(attacker_pos: Vec2, defender_positions, cfg: ScenarioConfig, lists) -> tuple:
    """Evaluate the four critical relative distances at given positions.

    Returns their threshold-over-actual ratios in RATIO_COLUMNS order: the
    attacker's and the defenders' largest against an obstacle, then the
    defenders' against each other and against the attacker; any value >= 1
    is a violation.  A nonpositive actual distance (already inside a
    forbidden region) maps to +inf.  With no obstacles the obstacle ratios
    are 0 by convention; defender_positions holds at least two defenders,
    as every scenario does.

    lists holds the agents' ObstacleLists (attacker first), each valid at its
    agent's position; their ratio bounds cut the obstacle scan short, and the
    result is still the exact maximum over every pair.  An agent-agent ratio
    is taken at its pairs' minimum distance: rounded lo / d never increases
    with d, so that is the largest ratio of any pair.
    """
    r_ao = _max_obstacle_ratio((attacker_pos,), lists)
    r_do = _max_obstacle_ratio(defender_positions, lists[1:])
    d_dd = min(itertools.starmap(dist, itertools.combinations(defender_positions, 2)))
    d_ad = min(map(dist, itertools.repeat(attacker_pos), defender_positions))
    return (r_ao, r_do, safety_ratio(cfg.defenders.peer_band.lo, d_dd),
            safety_ratio(cfg.attacker.standoff_band.lo, d_ad))


def compute_commands(state: SimState, cfg: ScenarioConfig, ctx: RunContext, lists,
                     planning: bool) -> tuple[int, ...]:
    """Fill every command for the current step from the step-start snapshot.

    lists holds the agents' ObstacleLists (attacker first), each valid at its
    agent's step-start position; the defenders plan only if planning.  Sets
    in `state` the attacker's heading and velocity, the defenders' velocities
    and goals (each a new list) and the plan's headings.  Returns the
    indices of the defenders held still on a degenerate field.
    """
    r_a = state.attacker
    sensing = cfg.attacker.sensing_radius
    push = obstacle_push(r_a, lists[0].near, sensing)
    positions = state.positions
    held = ()
    if planning:
        gx, gy = combined_field(r_a, ctx.guidance, cfg.safe.center)
        state.desired = schedule_heading(math.atan2(gy, gx), state.t, state.t_capture,
                                         cfg.capture.transition_time,
                                         cfg.capture.tangent_margin)
        mag, gamma = obstacle_resultant(push)
        command = solve_command_heading(state.desired, mag, gamma, ctx.spec.arc_magnitude)
        rate = 0.0 if state.command is None else heading_rate(
            state.command, command, cfg.integrator.dt, cfg.control.heading_rate_max)
        state.command = command
        # the slots ride the attacker's previous-step velocity: plan before it is replaced
        state.goals, goal_velocities = formation_goals(r_a, state.attacker_velocity, command,
                                                       rate, ctx.spec)
        velocities = []
        peer_band, avoid = cfg.defenders.peer_band, ctx.avoid
        for j, (p, goal, gv, gains) in enumerate(zip(positions, state.goals, goal_velocities,
                                                      ctx.gains)):
            f, conflict = defender_field(j, positions, goal, lists[j + 1].near, peer_band,
                                         r_a, avoid)
            v = defender_velocity(p, goal, gv, f, conflict, gains)
            if v is None:
                held += (j,)
                v = (0.0, 0.0)
            velocities.append(v)
        state.velocities = velocities
    else:
        state.goals = positions
        state.velocities = [(0.0, 0.0)] * len(positions)

    a_field = attacker_field(r_a, positions, push, cfg.protected.center, sensing,
                             cfg.attacker.standoff_band)
    speed = cfg.attacker.speed_max
    state.heading = heading = attacker_step(state.heading, a_field, cfg.attacker.deadlock_turn)
    state.attacker_velocity = (speed * math.cos(heading), speed * math.sin(heading))
    return held


def apply_commands(state: SimState, dt: float) -> None:
    """Synchronous Euler update of every agent by its commanded velocity,
    p + v * dt, with an integrity check.  The only place an agent moves."""
    a = state.attacker
    vx, vy = state.attacker_velocity
    x = a.x + vx * dt
    y = a.y + vy * dt
    state.attacker = Vec2(x, y)
    # 0 * c is 0 for a finite c and nan for an infinite or nan one, so check
    # stays 0 while every new coordinate is finite
    check = 0.0 * x + 0.0 * y
    positions = []
    for p, (vx, vy) in zip(state.positions, state.velocities):
        x = p.x + vx * dt
        y = p.y + vy * dt
        check += 0.0 * x + 0.0 * y
        positions.append(Vec2(x, y))
    state.positions = positions
    if check != 0.0:
        raise IntegrityError(
            f"non-finite state at t={state.t}",
            dump={"t": state.t,
                  "attacker": tuple(state.attacker),
                  "defenders": [tuple(p) for p in state.positions]})


def run(cfg: ScenarioConfig, dt: Optional[float] = None,
        t_max: Optional[float] = None) -> SimTrace:
    """Run the closed loop until capture holds through the dwell window, the
    protected area is breached, or the time budget runs out.

    Milestones are decided here alone, from step-start positions; sensing and
    safe-area entry count on non-terminal steps only, so a run stopped at step
    0 records no t_sense_s.  The capture clock starts in the safe area only
    once the arc has formed; t_capture_s is the clock at the end.

    dt and t_max, where given, replace the scenario's (IntegratorConfig checks
    them).  Deterministic: identical configurations produce identical traces.
    """
    overrides = {k: v for k, v in (("dt", dt), ("t_max", t_max)) if v is not None}
    if overrides:
        cfg = cfg._replace(integrator=cfg.integrator._replace(**overrides))

    ctx = build_context(cfg)
    state = SimState(cfg)
    n = cfg.defenders.count
    dt = cfg.integrator.dt
    trace = SimTrace(dt, n)
    events = trace.events = dict.fromkeys(
        ["t_sense_s", "t_formed_s", "t_capture_s", "t_breach_s"])
    n_steps = round(cfg.integrator.t_max / dt)
    dwell = cfg.capture.dwell_factor * cfg.capture.transition_time
    safe, protected = cfg.safe, cfg.protected
    zone = cfg.defenders.sensing_zone_radius

    lists = [obstacle_list(p, cfg, k > 0)
             for k, p in enumerate([cfg.attacker.start, *cfg.defenders.starts])]
    goal_tol = cfg.formation.goal_tolerance
    planning = False

    for i in range(n_steps + 1):
        state.t = t = i * dt
        r_a = state.attacker
        in_safe = safe.contains(r_a)

        if state.t_capture is not None and not in_safe:
            # the capture clock stops; the next entry restarts the transition
            state.t_capture = None
            trace.notices.append((t, "attacker left the safe area"))

        positions = state.positions
        refresh_lists(lists, [r_a, *positions], cfg)

        # protected.contains(r_a), from the distance the planning test reads
        to_center = dist(r_a, protected.center)
        if to_center <= protected.radius:
            events["t_breach_s"] = t
            terminal = TERM_BREACHED
        elif state.t_capture is not None and t - state.t_capture >= dwell:
            terminal = TERM_CAPTURED
        else:
            terminal = TERM_TIMEOUT if i == n_steps else None

        if terminal is None:
            # the defenders plan while the attacker is in the sensing zone
            planning = to_center <= zone
            if planning and events["t_sense_s"] is None:
                events["t_sense_s"] = t
            if (planning and state.t_capture is None and in_safe
                    and events["t_formed_s"] is not None):
                state.t_capture = t
            held = compute_commands(state, cfg, ctx, lists, planning)
            if held:
                trace.notices += [(t, f"defender {j} held on a degenerate field") for j in held]
        else:
            state.attacker_velocity = (0.0, 0.0)
            state.velocities = [(0.0, 0.0)] * n

        snap = safety_snapshot(r_a, positions, cfg, lists)
        vx, vy = state.attacker_velocity
        row = [t, r_a.x, r_a.y, vx, vy,
               state.desired, 0.0 if state.command is None else state.command]
        for p, (vx, vy), g in zip(positions, state.velocities, state.goals):
            row += [p.x, p.y, vx, vy, g.x, g.y]
        row += snap
        trace.values.fromlist(row)

        if (events["t_formed_s"] is None and planning
                and all(dist(p, g) <= goal_tol for p, g in zip(positions, state.goals))):
            events["t_formed_s"] = t

        if terminal is not None:
            trace.termination = terminal
            break
        apply_commands(state, dt)

    events["t_capture_s"] = state.t_capture
    trace.maxima = {name: max(trace.column(name)) for name in RATIO_COLUMNS}
    trace.maxima["attacker_speed_mps"] = max(trace.speed("attacker"))
    trace.maxima["defender_speed_mps"] = [max(trace.speed(f"d{j}")) for j in range(n)]
    return trace
