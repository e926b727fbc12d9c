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
from itertools import repeat
from typing import Sequence

from .environment import Obstacle
from .geom import BlendTriplet, Vec2, close_blend, repel, wrap_angle

DEADLOCK_TOL = 1e-6


def obstacle_push(position: Vec2, obstacles: Sequence[Obstacle],
                  sensing_radius: float):
    """Circular-model push of the obstacles within the sensing radius, as a
    blend (see `geom.repel`); raises at a center.  The arc command and the
    attacker field take the same push, so the command cancels what the
    attacker feels by construction.  With no obstacles that is the empty
    blend, which repel would return unchanged."""
    empty = (1.0, 0.0, 0.0, False)
    if not obstacles:
        return empty
    return repel(position, ((ob.center, ob.attacker_band) for ob in obstacles),
                 sensing_radius, empty)


def attacker_field(position: Vec2, defenders: Sequence[Vec2], push,
                   protected_center: Vec2, sensing_radius: float,
                   standoff: BlendTriplet) -> tuple[float, float]:
    """Blended steering field at the attacker's position, as an (x, y)
    pair, given the obstacles' `obstacle_push` there.

    May legitimately be the zero vector (opposing terms cancel); the caller
    handles that case.  Coincidence with a defender is outside the model and
    raises.
    """
    blend = repel(position, zip(defenders, repeat(standoff)), sensing_radius, push)
    return close_blend(position, protected_center, blend)


def attacker_step(heading: float, field, turn: float) -> float:
    """The attacker's heading for this step: along the field, an (x, y)
    pair, or, where the field cancels out, the last heading turned by
    `turn` (the deadlock escape).

    The attacker moves along the returned heading, so consecutive deadlock
    steps keep turning by the same increment.
    """
    fx, fy = field
    if math.hypot(fx, fy) > DEADLOCK_TOL:
        return math.atan2(fy, fx)
    return wrap_angle(heading + turn)
