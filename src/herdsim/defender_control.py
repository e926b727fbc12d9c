"""Per-defender steering field and the finite-time tracking law.

Each defender blends attraction to its formation slot with obstacle-following
repulsion (the same construction as the formation guidance field, with the
slot standing in for the safe center and the tighter single-defender shells)
and radial repulsion from its peers.  Speed along that field follows a
two-regime law: a saturating tanh profile far from the slot and a fractional
power law near it.  The power law reaches zero error in finite time; the
handoff error and near-goal gain are solved so speed and its slope are both
continuous at the switch.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .environment import SOLVER_TOL, Obstacle, bisect
from .errors import ConfigError, SolverError
from .formation_field import follow_obstacles
from .geom import BlendTriplet, Frozen, Vec2, close_blend, repel

FIELD_TOL = 1e-12

# a larger handoff-equation residual fails solve_tracking_gains
HANDOFF_RESIDUAL_MAX = 1e-11


class TrackingGains(Frozen):
    __slots__ = ("approach_speed",        # far-field speed scale (m/s)
                 "terminal_gain",         # near-goal power-law gain
                 "terminal_exponent",     # power-law exponent, in (0, 1)
                 "handoff_error")         # error magnitude where the two regimes join (m)


def solve_tracking_gains(terminal_exponent: float, speed_max: float,
                         attacker_speed_max: float, arc_radius: float,
                         heading_rate_max: float) -> TrackingGains:
    """Derive the tracking gains from the speed budget.

    The far-field speed scale is what remains of the defender's speed after
    reserving enough to ride a slot that translates with the attacker and
    rotates with the commanded heading.  The handoff error solves

        1 - tanh(e)^2 = exponent * tanh(e) / e

    by bisection on (0, 10]; the left side starts above the right and decays
    exponentially while the right decays only like 1/e, so the root exists
    and is unique there.
    """
    if not (0.0 < terminal_exponent < 1.0):
        raise ConfigError(f"terminal exponent must lie in (0, 1), got {terminal_exponent}")
    approach = speed_max - attacker_speed_max - arc_radius * heading_rate_max
    if approach <= 0.0:
        raise ConfigError(
            f"speed budget exhausted: {speed_max} - {attacker_speed_max} - "
            f"{arc_radius}*{heading_rate_max} = {approach} <= 0")

    def residual(e):
        th = math.tanh(e)
        return (1.0 - th * th) - terminal_exponent * th / e

    handoff = bisect(lambda e: -residual(e), 1e-9, 10.0, SOLVER_TOL * 1e-3)
    if abs(residual(handoff)) > HANDOFF_RESIDUAL_MAX:
        raise SolverError(f"handoff-error residual {residual(handoff)} above "
                          f"{HANDOFF_RESIDUAL_MAX}")
    gain = approach * math.tanh(handoff) / handoff ** terminal_exponent
    return TrackingGains(approach_speed=approach, terminal_gain=gain,
                         terminal_exponent=terminal_exponent, handoff_error=handoff)


def defender_field(index: int, positions: Sequence[Vec2], goal: Vec2,
                   obstacles: Sequence[Obstacle], peer_band: BlendTriplet,
                   attacker: Vec2, avoid: BlendTriplet) -> tuple[Vec2, bool]:
    """Blended steering field for one defender, and its conflict flag.

    Conflict means any obstacle, peer (on peer_band) or attacker (on avoid)
    blending weight is nonzero; in that regime the tracking law drops the
    slot-velocity feedforward and just follows the field.  In a run,
    obstacles is the defender's obstacle list: every obstacle within its
    defender reach, beyond which the weight is exactly 0.
    """
    p = positions[index]
    # the peers in index order, then the attacker: the order the blend sums them in
    sources = [(q, peer_band) for q in positions]
    del sources[index]
    sources.append((attacker, avoid))
    blend = repel(p, sources, math.inf, follow_obstacles(p, obstacles, goal, True))
    return close_blend(p, goal, blend), blend[3]


def defender_velocity(position: Vec2, goal: Vec2, goal_velocity: Vec2,
                      field: Vec2, conflict: bool, gains: TrackingGains) -> Optional[Vec2]:
    """Commanded velocity for one defender.

    Conflict-free motion tracks the slot velocity plus the error-shaping term
    along the field; in conflict only the field term survives, so the speed
    never exceeds the reserved budget.  A vanishing field with nonzero error
    (opposing terms cancelling exactly) has no direction: the result is None,
    and the caller holds the defender for one step.
    """
    ex = position.x - goal.x
    ey = position.y - goal.y
    err = math.hypot(ex, ey)
    if err == 0.0:
        return goal_velocity if not conflict else Vec2(0.0, 0.0)
    fnorm = math.hypot(field.x, field.y)
    if fnorm < FIELD_TOL:
        return None
    if err > gains.handoff_error:
        speed = gains.approach_speed * math.tanh(err)
    else:
        speed = gains.terminal_gain * err ** gains.terminal_exponent
    ux = field.x / fnorm
    uy = field.y / fnorm
    if conflict:
        return Vec2(speed * ux, speed * uy)
    return Vec2(goal_velocity.x + speed * ux, goal_velocity.y + speed * uy)


def convergence_bounds(initial_error: float, gains: TrackingGains) -> float:
    """Time (s) for the tracking error to fall from initial_error to the
    handoff error, zero if already inside the handoff basin.

    It assumes a field that points at the goal and no conflict: then the
    slot-velocity feedforward cancels the slot's motion, the error obeys
    de/dt = -approach * tanh(e), and the time is exactly
    ln(sinh e0 / sinh h) / approach.  The logarithm is summed as
    e0 - h + log1p(-exp(-2 e0)) - log1p(-exp(-2 h)), which stays finite where
    sinh e0 overflows.
    """
    e0, h = initial_error, gains.handoff_error
    if e0 <= h:
        return 0.0
    return (e0 - h + math.log1p(-math.exp(-2.0 * e0))
            - math.log1p(-math.exp(-2.0 * h))) / gains.approach_speed


def terminal_phase_time(gains: TrackingGains, start_error: float) -> float:
    """Exact time for the power-law regime to drive the error to zero."""
    k = gains.terminal_exponent
    return start_error ** (1.0 - k) / (gains.terminal_gain * (1.0 - k))
