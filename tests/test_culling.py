"""Exactness of obstacle culling.

In a run every agent's kernels see only its obstacle list, built from the
obstacles' reach radii, and the safety snapshot walks the lists' ratio
bounds.  Both come from one inequality, level_floor.  These properties check
those constants against superelliptic_distance, and the list-driven kernels
against the full-scan loops they replaced, copied below as the reference.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from herdsim import sim
from herdsim.attacker import attacker_field
from herdsim.defender_control import defender_field
from herdsim.environment import (CULL_SLACK, ObstacleDerivation, derive_obstacle,
                                 level_floor, superelliptic_distance)
from herdsim.errors import DomainError
from herdsim.formation_field import repulsive_angle
from herdsim.geom import BlendTriplet, Vec2, blend_weight, dist
from herdsim.herding import obstacle_resultant
from herdsim.sim import (SafetySnapshot, obstacle_list, refresh_lists,
                         safety_snapshot)

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
    floor_zero = (math.hypot(ob.semi_x, ob.semi_y)
                  * (1.0 - CULL_SLACK) ** (-1.0 / (2.0 * ob.exponent)))
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
    """Obstacles sharing one derivation, plus an attacker and defenders
    placed around randomly chosen obstacles."""
    params = draw(derivations)
    obs = draw(st.lists(obstacles(params), min_size=1, max_size=5))

    def point():
        return draw(st.sampled_from(obs).flatmap(points_near))

    return obs, point(), [point() for _ in range(draw(st.integers(0, 4)))]


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
    d = math.hypot(p.x - ob.center.x, p.y - ob.center.y)
    assert level_floor(ob, d) <= superelliptic_distance(p, ob)


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_culled_kernels_match_full_scan(reference_cfg, world):
    obs, attacker, defenders = world
    cfg = dataclasses.replace(reference_cfg, obstacles=tuple(obs))
    lists = [obstacle_list(p, cfg, k > 0) for k, p in enumerate([attacker, *defenders])]
    assert (outcome(safety_snapshot, attacker, defenders, cfg, lists)
            == outcome(full_scan_snapshot, attacker, defenders, cfg))


# ---------------------------------------------------------------------------
# obstacle lists
# ---------------------------------------------------------------------------

STANDOFF = BlendTriplet(0.3, 0.8, 0.9)


def acts_on(ob, p, cfg, defender):
    """Whether ob can contribute to the agent's field at p, as the full-scan
    kernels decide it."""
    dx = p.x - ob.center.x
    dy = p.y - ob.center.y
    if defender:
        return dx * dx + dy * dy < ob.defender_reach * ob.defender_reach
    d = math.hypot(dx, dy)
    return d <= cfg.attacker.sensing_radius and d < ob.attacker_band.hi


@st.composite
def list_worlds(draw, reference_cfg):
    """0-8 obstacles packed close enough for shells and circles to overlap,
    a random sensing radius, and agents each displaced from its own list
    anchor by at most the skin: anywhere within it, within 1e-9 relative of
    it, or exactly on it.  An agent sits anywhere, near an obstacle's reach
    radii, or on an obstacle's center."""
    params = draw(derivations)
    obs = tuple(derive_obstacle(
        Vec2(draw(st.floats(-15.0, 15.0)), draw(st.floats(-15.0, 15.0))),
        draw(st.floats(0.2, 6.0)), draw(st.floats(0.2, 6.0)), params)
        for _ in range(draw(st.integers(0, 8))))
    sensing = draw(st.floats(0.0, 40.0))
    cfg = dataclasses.replace(
        reference_cfg, obstacles=obs,
        attacker=dataclasses.replace(reference_cfg.attacker, sensing_radius=sensing))
    skin = sim.SKIN_M

    def agent():
        kind = draw(st.sampled_from(["free", "near", "center"] if obs else ["free"]))
        if kind == "free":
            p = Vec2(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)))
        else:
            ob = draw(st.sampled_from(obs))
            if kind == "center":
                p = ob.center
            else:
                radius = draw(st.sampled_from([ob.attacker_band.hi, sensing,
                                               ob.defender_reach, ob.formation_reach]))
                r = radius * (1.0 + draw(st.floats(-1e-9, 1e-9)))
                theta = draw(st.floats(-math.pi, math.pi))
                p = Vec2(ob.center.x + r * math.cos(theta),
                         ob.center.y + r * math.sin(theta))
        if obs and draw(st.booleans()):
            # the anchor straight away from an obstacle: p is nearer to it
            ob = draw(st.sampled_from(obs))
            theta = math.atan2(p.y - ob.center.y, p.x - ob.center.x)
        else:
            theta = draw(st.floats(-math.pi, math.pi))
        r = draw(st.one_of(st.floats(0.0, skin),
                           st.floats(0.0, 1e-9).map(lambda u: skin * (1.0 - u)),
                           st.just(skin)))
        return p, Vec2(p.x + r * math.cos(theta), p.y + r * math.sin(theta))

    attacker = agent()
    defenders = [agent() for _ in range(draw(st.integers(0, 4)))]
    target = Vec2(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)))
    return cfg, attacker, defenders, target


def lists_at(cfg, agents):
    """Lists built at each agent's anchor, then refreshed at its position,
    as run() does from one step to the next."""
    lists = [obstacle_list(anchor, cfg, k > 0) for k, (_, anchor) in enumerate(agents)]
    refresh_lists(lists, [p for p, _ in agents], cfg)
    return lists


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_list_driven_kernels_match_full_scan(reference_cfg, data):
    cfg, attacker, defenders, target = data.draw(list_worlds(reference_cfg))
    lists = lists_at(cfg, [attacker, *defenders])
    p_a = attacker[0]
    positions = [p for p, _ in defenders]
    obs = cfg.obstacles
    sensing = cfg.attacker.sensing_radius
    assert (outcome(attacker_field, p_a, positions, lists[0].near, target, sensing, STANDOFF)
            == outcome(attacker_field, p_a, positions, obs, target, sensing, STANDOFF))
    assert (outcome(obstacle_resultant, p_a, lists[0].near, sensing)
            == outcome(obstacle_resultant, p_a, obs, sensing))
    for j in range(len(positions)):
        assert (outcome(defender_field, j, positions, target, lists[j + 1].near, PEERS)
                == outcome(full_scan_defender_field, j, positions, target, obs, PEERS))
    assert (safety_snapshot(p_a, positions, cfg, lists)
            == full_scan_snapshot(p_a, positions, cfg))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lists_cover_the_skin_disc(reference_cfg, data):
    """Each list holds, in index order, every obstacle that acts on its agent,
    and each ratio bound is at or above the pair's exact ratio at the agent."""
    cfg, attacker, defenders, _ = data.draw(list_worlds(reference_cfg))
    agents = [attacker, *defenders]
    index = {id(ob): k for k, ob in enumerate(cfg.obstacles)}
    for k, (ob_list, (p, _)) in enumerate(zip(lists_at(cfg, agents), agents)):
        near = [index[id(ob)] for ob in ob_list.near]
        assert near == sorted(near)
        for ob in cfg.obstacles:
            if acts_on(ob, p, cfg, k > 0):
                assert index[id(ob)] in near
        bounds = [bound for bound, _, _ in ob_list.bounds]
        assert bounds == sorted(bounds, reverse=True)
        assert sorted(index[id(ob)] for _, _, ob in ob_list.bounds) == list(range(len(index)))
        for bound, lo, ob in ob_list.bounds:
            band = ob.defender_band if k else ob.formation_band
            assert lo == band.lo
            level = superelliptic_distance(p, ob)
            assert (lo / level if level > 0.0 else math.inf) <= bound


def test_ratio_bound_on_the_long_axis_of_a_thin_obstacle(reference_cfg, derivation):
    """Along the long axis of a 12 x 0.2 m rectangle the level floor is within
    0.03% of the level, so a bound that undercounted the skin would fall
    below the exact ratio here."""
    ob = derive_obstacle(Vec2(0.0, 0.0), 12.0, 0.2, derivation)
    cfg = dataclasses.replace(reference_cfg, obstacles=(ob,))
    for k in range(1, 400):
        p = Vec2(ob.semi_x * (1.0 + 0.01 * k), 0.0)
        for defender in (False, True):
            (bound, lo, _), = obstacle_list(Vec2(p.x + sim.SKIN_M, 0.0), cfg,
                                            defender).bounds
            level = superelliptic_distance(p, ob)
            assert (lo / level if level > 0.0 else math.inf) <= bound


def test_list_rebuilt_once_moved_the_skin(reference_cfg):
    skin = sim.SKIN_M
    anchor = Vec2(0.0, -2.0)
    lists = [obstacle_list(anchor, reference_cfg, False)]
    inside = Vec2(math.nextafter(skin, 0.0), anchor.y)
    refresh_lists(lists, [inside], reference_cfg)
    assert lists[0].anchor == anchor
    on_skin = Vec2(skin, anchor.y)
    refresh_lists(lists, [on_skin], reference_cfg)
    assert lists[0].anchor == on_skin
