"""Exactness of obstacle culling.

defender_field skips an obstacle from its reach radius, and the safety
snapshot skips an exact level from the level floor.  These properties check
the constants against superelliptic_distance, and the culled kernels against
the full-scan loops they replaced, copied below as the reference.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from herdsim.defender_control import defender_field
from herdsim.environment import (ObstacleDerivation, derive_obstacle,
                                 superelliptic_distance)
from herdsim.errors import DomainError
from herdsim.formation_field import repulsive_angle
from herdsim.geom import BlendTriplet, Vec2, blend_weight, dist
from herdsim.sim import SafetySnapshot, safety_snapshot

PEERS = BlendTriplet(0.25, 0.32, 0.42)


# ---------------------------------------------------------------------------
# full-scan reference loops (the kernels before culling)
# ---------------------------------------------------------------------------

def full_scan_snapshot(attacker_pos, defender_positions, cfg):
    def ratio(threshold, actual):
        if actual <= 0.0:
            return math.inf
        return threshold / actual

    r_ao = 0.0
    r_do = 0.0
    for ob in cfg.obstacles:
        r_ao = max(r_ao, ratio(ob.formation_band.lo,
                               superelliptic_distance(attacker_pos, ob)))
        for p in defender_positions:
            r_do = max(r_do, ratio(ob.defender_band.lo, superelliptic_distance(p, ob)))

    r_dd = 0.0
    peer_min = cfg.defenders.peer_band[0]
    n = len(defender_positions)
    for j in range(n):
        for l in range(j + 1, n):
            r_dd = max(r_dd, ratio(peer_min, dist(defender_positions[j],
                                                  defender_positions[l])))

    r_ad = 0.0
    standoff_min = cfg.attacker.standoff_band[0]
    for p in defender_positions:
        r_ad = max(r_ad, ratio(standoff_min, dist(attacker_pos, p)))

    return SafetySnapshot(attacker_obstacle=r_ao, defender_obstacle=r_do,
                          defender_defender=r_dd, attacker_defender=r_ad)


def full_scan_defender_field(index, positions, goal, obstacles, peer_band):
    p = positions[index]
    prod = 1.0
    rx = 0.0
    ry = 0.0
    conflict = False

    for ob in obstacles:
        sigma = blend_weight(superelliptic_distance(p, ob), ob.defender_band)
        if sigma <= 0.0:
            continue
        conflict = True
        prod *= 1.0 - sigma
        phi = repulsive_angle(p, ob, goal)
        rx += sigma * math.cos(phi)
        ry += sigma * math.sin(phi)

    for l, other in enumerate(positions):
        if l == index:
            continue
        dx = p.x - other.x
        dy = p.y - other.y
        d = math.hypot(dx, dy)
        if d == 0.0:
            raise DomainError(f"defenders {index} and {l} coincide")
        sigma = blend_weight(d, peer_band)
        if sigma <= 0.0:
            continue
        conflict = True
        prod *= 1.0 - sigma
        rx += sigma * dx / d
        ry += sigma * dy / d

    gx = goal.x - p.x
    gy = goal.y - p.y
    g = math.hypot(gx, gy)
    if g > 0.0:
        rx += prod * gx / g
        ry += prod * gy / g
    return Vec2(rx, ry), conflict


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

derivations = st.builds(
    ObstacleDerivation,
    formation_radius=st.floats(0.05, 3.0),
    clearance=st.floats(0.01, 1.0),
    defender_clearance=st.floats(0.01, 0.5),
    defender_radius=st.floats(0.01, 0.5),
)


@st.composite
def obstacles(draw, params=None):
    """A rectangle of random size and place, derived with random (or given)
    footprint parameters; thin pads give large exponents and boxy shells."""
    params = params if params is not None else draw(derivations)
    center = Vec2(draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
    return derive_obstacle(center, draw(st.floats(0.2, 12.0)),
                           draw(st.floats(0.2, 12.0)), params)


@st.composite
def points_near(draw, ob):
    """A point around ob: anywhere within a few reaches, within 1e-9 relative
    of either reach radius, or where the level floor is barely positive."""
    corner = math.atan2(ob.semi_y, ob.semi_x)
    theta = draw(st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from([corner, math.pi - corner, corner - math.pi, -corner])))
    floor_zero = 1.0 / math.sqrt(ob.level_floor_scale)
    r = draw(st.one_of(
        st.floats(0.0, 3.0 * ob.formation_reach),
        st.sampled_from([ob.formation_reach, ob.defender_reach]).flatmap(
            lambda reach: st.floats(-1e-9, 1e-9).map(lambda u: reach * (1.0 + u))),
        st.floats(0.0, 1e-12).map(lambda u: floor_zero * (1.0 + u)),
    ))
    return Vec2(ob.center.x + r * math.cos(theta), ob.center.y + r * math.sin(theta))


@st.composite
def obstacle_and_point(draw):
    ob = draw(obstacles())
    return ob, draw(points_near(ob))


@st.composite
def worlds(draw):
    """Obstacles sharing one derivation, plus an attacker, defenders and a
    target placed around randomly chosen obstacles."""
    params = draw(derivations)
    obs = draw(st.lists(obstacles(params), min_size=1, max_size=5))

    def point():
        return draw(st.sampled_from(obs).flatmap(points_near))

    return obs, point(), [point() for _ in range(draw(st.integers(0, 4)))], point()


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(obstacle_and_point())
def test_weight_is_zero_beyond_reach(case):
    ob, p = case
    dx = p.x - ob.center.x
    dy = p.y - ob.center.y
    d2 = dx * dx + dy * dy
    level = superelliptic_distance(p, ob)
    for reach, band in ((ob.formation_reach, ob.formation_band),
                        (ob.defender_reach, ob.defender_band)):
        if d2 >= reach * reach:
            assert level >= band.hi
            assert blend_weight(level, band) == 0.0


@settings(max_examples=300)
@given(obstacle_and_point())
def test_level_floor_bounds_level(case):
    ob, p = case
    dx = p.x - ob.center.x
    dy = p.y - ob.center.y
    floor = (dx * dx + dy * dy) * ob.level_floor_scale - 1.0
    if floor > 0.0:
        assert floor <= superelliptic_distance(p, ob)


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_culled_kernels_match_full_scan(reference_cfg, world):
    obs, attacker, defenders, target = world
    cfg = dataclasses.replace(reference_cfg, obstacles=tuple(obs))
    assert (outcome(safety_snapshot, attacker, defenders, cfg)
            == outcome(full_scan_snapshot, attacker, defenders, cfg))
    for j in range(len(defenders)):
        assert (outcome(defender_field, j, defenders, target, obs, PEERS)
                == outcome(full_scan_defender_field, j, defenders, target, obs, PEERS))
