"""The adversarial agent's policy.

The attacker steers along a blended vector field: unit attraction to the
protected center, annihilated smoothly by unit repulsion from any defender or
obstacle inside its sensing radius.  Obstacles enter this field through their
circular stand-ins (the attacker does not know the super-elliptic shells).
When the field cancels out exactly, the attacker escapes the deadlock by
nudging its previous heading by a small fixed angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .environment import Obstacle
from .errors import DomainError
from .geom import BlendTriplet, Vec2, blend_weight, wrap_angle

DEADLOCK_TOL = 1e-6


@dataclass
class AttackerState:
    position: Vec2
    heading: float      # last motion direction, reused to escape deadlocks
    speed: float        # commanded speed magnitude (m/s)


def obstacle_push(position: Vec2, obstacles: Sequence[Obstacle],
                  sensing_radius: float) -> tuple[float, float, float]:
    """Circular-model push of the obstacles within the sensing radius: the
    product of the weights' complements and the weighted sum (rx, ry) of
    unit vectors away from each center; raises at a center.  The arc command
    and the attacker field take the same push, so the command cancels what
    the attacker feels by construction."""
    prod = 1.0
    rx = 0.0
    ry = 0.0
    px, py = position.x, position.y
    for ob in obstacles:
        dx = px - ob.center.x
        dy = py - ob.center.y
        d = math.hypot(dx, dy)
        if d > sensing_radius:
            continue
        if d == 0.0:
            raise DomainError("attacker coincides with an obstacle center")
        sigma = blend_weight(d, ob.attacker_band)
        if sigma <= 0.0:
            continue
        prod *= 1.0 - sigma
        rx += sigma * dx / d
        ry += sigma * dy / d
    return prod, rx, ry


def attacker_field(position: Vec2, defenders: Sequence[Vec2],
                   push: tuple[float, float, float], protected_center: Vec2,
                   sensing_radius: float, standoff: BlendTriplet) -> Vec2:
    """Blended steering field at the attacker's position, given the
    obstacles' `obstacle_push` there.

    May legitimately be the zero vector (opposing terms cancel); the caller
    handles that case.  Coincidence with a defender is outside the model and
    raises.
    """
    prod, rx, ry = push
    px, py = position.x, position.y

    for dpos in defenders:
        dx = px - dpos.x
        dy = py - dpos.y
        d = math.hypot(dx, dy)
        if d > sensing_radius:
            continue
        if d == 0.0:
            raise DomainError("attacker coincides with a defender")
        sigma = blend_weight(d, standoff)
        if sigma <= 0.0:
            continue
        prod *= 1.0 - sigma
        rx += sigma * dx / d
        ry += sigma * dy / d

    gx = protected_center.x - px
    gy = protected_center.y - py
    g = math.hypot(gx, gy)
    if g > 0.0:
        rx += prod * gx / g
        ry += prod * gy / g
    return Vec2(rx, ry)


def attacker_step(state: AttackerState, field: Vec2, turn: float,
                  dt: float) -> AttackerState:
    """Advance the attacker one step along the field (or the deadlock escape).

    The heading always tracks the realized motion direction, so consecutive
    deadlock steps keep turning by the same increment.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    norm = field.norm()
    if norm > DEADLOCK_TOL:
        heading = math.atan2(field.y, field.x)
    else:
        heading = wrap_angle(state.heading + turn)
    step = state.speed * dt
    return AttackerState(
        position=Vec2(state.position.x + step * math.cos(heading),
                      state.position.y + step * math.sin(heading)),
        heading=heading,
        speed=state.speed,
    )
