"""Formation geometry and heading resolution.

The defenders sit on a circular arc behind the attacker.  Because each one
repels the attacker with a unit vector, the whole arc acts like a single
pusher of fixed magnitude along the arc axis.  Given the desired direction of
travel and the summed obstacle repulsion felt by the attacker, the arc axis is
rotated just enough that the total field seen by the attacker lines up with
the desired direction.  A time schedule retargets that desired direction once
the attacker is inside the safe area, swinging it to nearly perpendicular so
the attacker orbits instead of escaping.

The arc's static geometry, FormationSpec, is built and checked in
environment (formation_spec), beside the spread rule the validator applies.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from .errors import InfeasibleHeadingError
from .geom import Vec2, wrap_angle

if TYPE_CHECKING:
    from .environment import FormationSpec


def obstacle_resultant(push) -> tuple[float, float]:
    """Polar form (magnitude, angle) of the summed circular-model repulsion
    in an `obstacle_push` blend; (0, 0) when nothing is in range."""
    _, rx, ry, _ = push
    return math.hypot(rx, ry), math.atan2(ry, rx)


def solve_command_heading(desired: float, resultant_mag: float,
                          resultant_angle: float, magnitude: float) -> float:
    """Arc-axis angle that makes the attacker's total field point along
    `desired` despite the obstacle resultant.

    Principal arcsine branch: continuous with the unperturbed command as the
    obstacle resultant fades.  Requires the arc magnitude to dominate the
    resultant, otherwise no command can cancel it.
    """
    if not magnitude > resultant_mag:
        raise InfeasibleHeadingError(
            f"arc magnitude {magnitude} cannot dominate obstacle resultant "
            f"{resultant_mag}")
    ratio = (resultant_mag / magnitude) * math.sin(desired - resultant_angle)
    return wrap_angle(desired + math.asin(ratio))


def heading_rate(prev: float, command: float, dt: float, limit: float) -> float:
    """Backward finite difference of the command heading from prev, unwrapped
    across the circle seam and clamped to the configured rate limit."""
    raw = wrap_angle(command - prev) / dt
    return max(-limit, min(limit, raw))


def schedule_heading(field_angle: float, t: float, t_capture: Optional[float],
                     transition_time: float, tangent_margin: float) -> float:
    """Desired herd direction at time t.

    Before capture (t_capture None) it is the guidance-field direction
    itself; from the attacker's entry into the safe area at t_capture the
    direction ramps linearly over the transition window to nearly
    perpendicular and stays there, turning the safe area into an orbit the
    attacker cannot leave.
    """
    if t_capture is None:
        offset = 0.0
    elif t <= t_capture + transition_time:
        offset = (t - t_capture) * (math.pi / 2.0 - tangent_margin) / transition_time
    else:
        offset = math.pi / 2.0 - tangent_margin
    return wrap_angle(field_angle + offset)


def formation_goals(attacker_pos: Vec2, attacker_vel, command: float, command_rate: float,
                    spec: FormationSpec) -> tuple[list[Vec2], list[tuple[float, float]]]:
    """Slot positions and feedforward velocities on the arc, as two lists in
    defender order; the attacker's velocity and each slot's are (x, y) pairs.

    Slots ride the circle of the arc radius around the attacker, centered on
    the direction opposite the command heading; their velocities combine the
    attacker's motion with the arc rotation.
    """
    goals = []
    velocities = []
    r = spec.arc_radius
    vx, vy = attacker_vel
    for off in spec.offsets:
        a = command + math.pi + off
        c, s = math.cos(a), math.sin(a)
        goals.append(Vec2(attacker_pos.x + r * c, attacker_pos.y + r * s))
        velocities.append((vx - r * command_rate * s, vy + r * command_rate * c))
    return goals, velocities
