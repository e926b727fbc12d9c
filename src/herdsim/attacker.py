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
from itertools import repeat
from typing import Sequence

from .environment import Obstacle
from .geom import BlendTriplet, Vec2, close_blend, repel, wrap_angle

DEADLOCK_TOL = 1e-6


@dataclass
class AttackerState:
    position: Vec2
    heading: float      # last motion direction, reused to escape deadlocks


def obstacle_push(position: Vec2, obstacles: Sequence[Obstacle],
                  sensing_radius: float):
    """Circular-model push of the obstacles within the sensing radius, as a
    blend (see `geom.repel`); raises at a center.  The arc command and the
    attacker field take the same push, so the command cancels what the
    attacker feels by construction."""
    return repel(position, ((ob.center, ob.attacker_band) for ob in obstacles),
                 sensing_radius, (1.0, 0.0, 0.0, False))


def attacker_field(position: Vec2, defenders: Sequence[Vec2], push,
                   protected_center: Vec2, sensing_radius: float,
                   standoff: BlendTriplet) -> Vec2:
    """Blended steering field at the attacker's position, given the
    obstacles' `obstacle_push` there.

    May legitimately be the zero vector (opposing terms cancel); the caller
    handles that case.  Coincidence with a defender is outside the model and
    raises.
    """
    blend = repel(position, zip(defenders, repeat(standoff)), sensing_radius, push)
    return close_blend(position, protected_center, blend)


def attacker_step(state: AttackerState, field: Vec2, speed: float, turn: float,
                  dt: float) -> AttackerState:
    """Advance the attacker one step at speed along the field (or the
    deadlock escape).

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
    step = speed * dt
    return AttackerState(
        position=Vec2(state.position.x + step * math.cos(heading),
                      state.position.y + step * math.sin(heading)),
        heading=heading,
    )
