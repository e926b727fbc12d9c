"""Exactness of obstacle culling.

In a run every agent's kernels see only its obstacle list, the guidance
field sees only the obstacles that can reach the defenders' sensing zone,
and the safety snapshot walks the lists' ratio bounds.  Each list and bound
comes from one test: level_floor at a distance_floor, against a band level.
These properties check that floor against superelliptic_distance, and the
list-driven kernels against the full-scan loops they replaced, the
reference: the snapshot's below, the defender field's in conftest.py.
"""

import copy
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from herdsim import sim
from herdsim.attacker import attacker_field, obstacle_push
from herdsim.cli import main
from herdsim.defender_control import defender_field
from herdsim.environment import (ATTACKER_CIRCLE_FACTORS, CULL_SLACK, RATIO_COLUMNS,
                                 ObstacleDerivation, contour_offsets,
                                 derive_obstacle, distance_floor, level_floor,
                                 scenario_from_dict, superelliptic_distance,
                                 validate_scenario)
from herdsim.formation_field import combined_field
from herdsim.geom import BlendTriplet, Vec2, blend_weight, dist
from herdsim.herding import obstacle_resultant
from herdsim.sim import build_context, obstacle_list, refresh_lists, run, safety_snapshot

from conftest import outcome, ref_defender_field

PEERS = BlendTriplet(0.25, 0.32, 0.42)
AVOID = BlendTriplet(0.3, 0.4, 0.5)


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
    peer_min = cfg.defenders.peer_band.lo
    n = len(defender_positions)
    for j in range(n):
        for l in range(j + 1, n):
            r_dd = max(r_dd, ratio(peer_min, dist(defender_positions[j],
                                                  defender_positions[l])))

    r_ad = 0.0
    standoff_min = cfg.attacker.standoff_band.lo
    for p in defender_positions:
        r_ad = max(r_ad, ratio(standoff_min, dist(attacker_pos, p)))

    return r_ao, r_do, r_dd, r_ad


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

derivations = st.builds(
    ObstacleDerivation,
    formation_pad=st.floats(0.06, 4.0),
    defender_pad=st.floats(0.02, 1.0),
    attacker_mid_factor=st.just(ATTACKER_CIRCLE_FACTORS[0]),
    attacker_hi_factor=st.just(ATTACKER_CIRCLE_FACTORS[1]),
)


@st.composite
def obstacles(draw, params=None):
    """A rectangle of random size and place, derived with random (or given)
    footprint parameters; thin pads give large exponents and boxy shells."""
    params = params if params is not None else draw(derivations)
    center = Vec2(draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
    return derive_obstacle(center, draw(st.floats(0.2, 12.0)),
                           draw(st.floats(0.2, 12.0)), params)


def floor_reach(ob, level):
    """The distance from ob's center at which level_floor reaches level."""
    return (math.hypot(ob.semi_x, ob.semi_y)
            * ((1.0 + level) / (1.0 - CULL_SLACK)) ** (1.0 / (2.0 * ob.exponent)))


@st.composite
def points_near(draw, ob):
    """A point around ob: anywhere within a few reaches, within 1e-9 relative
    of formation_reach or of where the level floor reaches the defender
    band's hi, or where the level floor is barely positive."""
    corner = math.atan2(ob.semi_y, ob.semi_x)
    theta = draw(st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from([corner, math.pi - corner, corner - math.pi, -corner])))
    r = draw(st.one_of(
        st.floats(0.0, 3.0 * ob.formation_reach),
        st.sampled_from([ob.formation_reach, floor_reach(ob, ob.defender_band.hi)]).flatmap(
            lambda reach: st.floats(-1e-9, 1e-9).map(lambda u: reach * (1.0 + u))),
        st.floats(0.0, 1e-12).map(lambda u: floor_reach(ob, 0.0) * (1.0 + u)),
    ))
    return Vec2(ob.center.x + r * math.cos(theta), ob.center.y + r * math.sin(theta))


@st.composite
def obstacle_and_point(draw):
    ob = draw(obstacles())
    return ob, draw(points_near(ob))


@st.composite
def worlds(draw):
    """Obstacles sharing one derivation, plus an attacker and 2-4 defenders
    (every scenario holds at least two) placed around randomly chosen
    obstacles."""
    params = draw(derivations)
    obs = draw(st.lists(obstacles(params), min_size=1, max_size=5))

    def point():
        return draw(st.sampled_from(obs).flatmap(points_near))

    return obs, point(), [point() for _ in range(draw(st.integers(2, 4)))]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300)
@given(obstacle_and_point())
def test_weight_is_zero_beyond_reach(case):
    """Beyond formation_reach, or where the level floor at the point's
    distance floor is at or above a band's hi, the band's weight is 0."""
    ob, p = case
    dx = p.x - ob.center.x
    dy = p.y - ob.center.y
    level = superelliptic_distance(p, ob)
    beyond = [(dx * dx + dy * dy >= ob.formation_reach ** 2, ob.formation_band)]
    floor = level_floor(ob, distance_floor(p, ob, 0.0))
    beyond += [(floor >= band.hi, band) for band in (ob.formation_band, ob.defender_band)]
    for out_of_reach, band in beyond:
        if out_of_reach:
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
    cfg = reference_cfg._replace(obstacles=tuple(obs))
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
    if defender:
        return superelliptic_distance(p, ob) < ob.defender_band.hi
    d = math.hypot(p.x - ob.center.x, p.y - ob.center.y)
    return d <= cfg.attacker.sensing_radius and d < ob.attacker_band.hi


@st.composite
def list_worlds(draw, reference_cfg):
    """0-8 obstacles packed close enough for shells and circles to overlap,
    a random sensing radius, and an attacker and 2-4 defenders, each agent
    displaced from its own list anchor by at most the skin: anywhere within
    it, within 1e-9 relative of it, or exactly on it.  An agent sits anywhere, on an obstacle's center,
    or near one of its culling edges: the attacker circle's hi, the sensing
    radius, formation_reach, the defender band's hi contour, or where the
    level floor reaches that hi."""
    params = draw(derivations)
    obs = tuple(derive_obstacle(
        Vec2(draw(st.floats(-15.0, 15.0)), draw(st.floats(-15.0, 15.0))),
        draw(st.floats(0.2, 6.0)), draw(st.floats(0.2, 6.0)), params)
        for _ in range(draw(st.integers(0, 8))))
    sensing = draw(st.floats(0.0, 40.0))
    cfg = reference_cfg._replace(
        obstacles=obs, attacker=reference_cfg.attacker._replace(sensing_radius=sensing))
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
                theta = draw(st.floats(-math.pi, math.pi))
                c, s = math.cos(theta), math.sin(theta)
                hi_contour = math.hypot(*contour_offsets(ob, c, s, ob.defender_band.hi))
                radius = draw(st.sampled_from([ob.attacker_band.hi, sensing, ob.formation_reach,
                                               hi_contour, floor_reach(ob, ob.defender_band.hi)]))
                r = radius * (1.0 + draw(st.floats(-1e-9, 1e-9)))
                p = Vec2(ob.center.x + r * c, ob.center.y + r * s)
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
    defenders = [agent() for _ in range(draw(st.integers(2, 4)))]
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

    def field_over(obstacles):
        push = obstacle_push(p_a, obstacles, sensing)
        return attacker_field(p_a, positions, push, target, sensing, STANDOFF)

    def resultant_over(obstacles):
        return obstacle_resultant(obstacle_push(p_a, obstacles, sensing))

    assert outcome(field_over, lists[0].near) == outcome(field_over, obs)
    assert outcome(resultant_over, lists[0].near) == outcome(resultant_over, obs)
    for j in range(len(positions)):
        assert (outcome(defender_field, j, positions, target, lists[j + 1].near, PEERS,
                        p_a, AVOID)
                == outcome(ref_defender_field, j, positions, target, obs, PEERS,
                           p_a, AVOID))
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
    cfg = reference_cfg._replace(obstacles=(ob,))
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


# ---------------------------------------------------------------------------
# the guidance list
# ---------------------------------------------------------------------------

def zone_world(reference_cfg, center, zone, obs):
    """The bundled scenario with the protected area at center, a sensing
    zone of radius zone around it, and the obstacles obs."""
    return reference_cfg._replace(
        obstacles=tuple(obs),
        protected=reference_cfg.protected._replace(center=center),
        defenders=reference_cfg.defenders._replace(sensing_zone_radius=zone))


@st.composite
def zone_worlds(draw, reference_cfg):
    """A point that run()'s zone test admits, anywhere in a sensing zone or
    on its rim within 1e-9 relative, and 1-6 obstacles: centered anywhere up
    to twice their formation reach beyond the rim, within 1e-9 relative of
    the zone radius plus that reach, or placed so that the point lies on one
    of their formation contours between lo and hi (just below hi included).
    Such an obstacle may sit straight out from the point along an axis, where
    the contour of an elongated shell comes closest to its reach."""
    params = draw(derivations)
    center = Vec2(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))
    zone = draw(st.floats(0.5, 60.0))
    r = draw(st.one_of(st.floats(0.0, zone),
                       st.floats(-1e-9, 1e-9).map(lambda u: zone * (1.0 + u))))
    theta = draw(st.one_of(st.floats(-math.pi, math.pi),
                           st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi])))
    p = Vec2(center.x + r * math.cos(theta), center.y + r * math.sin(theta))
    assume(dist(p, center) <= zone)
    obs = []
    for _ in range(draw(st.integers(1, 6))):
        ob = derive_obstacle(center, draw(st.floats(0.2, 6.0)), draw(st.floats(0.2, 6.0)),
                             params)
        beta = draw(st.one_of(st.floats(-math.pi, math.pi), st.just(theta + math.pi)))
        if draw(st.booleans()):
            band = ob.formation_band
            level = draw(st.one_of(st.floats(band.lo, band.hi), st.floats(0.0, 1e-9).map(
                lambda u: band.hi * (1.0 - u))))
            dx, dy = contour_offsets(ob, math.cos(beta), math.sin(beta), level)
            c = Vec2(p.x - dx, p.y - dy)
        else:
            reach = ob.formation_reach
            d = draw(st.one_of(
                st.floats(0.0, zone + 2.0 * reach),
                st.floats(-1e-9, 1e-9).map(lambda u: (zone + reach) * (1.0 + u))))
            c = Vec2(center.x + d * math.cos(beta), center.y + d * math.sin(beta))
        obs.append(ob._replace(center=c))
    cfg = zone_world(reference_cfg, center, zone, obs)
    safe = Vec2(draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0)))
    return cfg, p, safe


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_guidance_list_field_matches_full_scan(reference_cfg, data):
    cfg, p, safe = data.draw(zone_worlds(reference_cfg))
    guidance = build_context(cfg).guidance
    assert (outcome(combined_field, p, guidance, safe)
            == outcome(combined_field, p, cfg.obstacles, safe))


def test_guidance_list_holds_the_obstacles_that_reach_the_zone(reference_cfg, derivation):
    """On a 20 m zone: one obstacle inside, one whose center lies outside
    but whose formation shell reaches in, and two out of reach.  Each
    listed obstacle weighs in somewhere in the zone, and no other does."""
    zone = 20.0
    ob = derive_obstacle(Vec2(0.0, 0.0), 2.0, 3.0, derivation)
    reach = ob.formation_reach
    obs = [ob._replace(center=c) for c in (
        Vec2(10.0, 0.0), Vec2(0.0, zone + 0.5 * reach),
        Vec2(0.0, -(zone + 2.0 * reach)), Vec2(-(zone + 1.5 * reach), 0.0))]
    cfg = zone_world(reference_cfg, Vec2(0.0, 0.0), zone, obs)
    assert build_context(cfg).guidance == tuple(obs[:2])
    assert math.hypot(*obs[1].center) > zone
    # the zone's rim, and each obstacle center's nearest point in the zone
    points = [Vec2(zone * math.cos(2.0 * math.pi * k / 720),
                   zone * math.sin(2.0 * math.pi * k / 720)) for k in range(720)]
    for o in obs:
        scale = min(1.0, zone / math.hypot(*o.center))
        points.append(Vec2(scale * o.center.x, scale * o.center.y))
    for k, o in enumerate(obs):
        weighs = any(blend_weight(superelliptic_distance(q, o), o.formation_band) > 0.0
                     for q in points)
        assert weighs == (k < 2)


def test_guidance_list_keeps_an_elongated_shell_that_touches_the_rim(reference_cfg,
                                                                     derivation):
    """A 12 x 0.2 m rectangle derives an elliptic shell whose farthest
    formation hi contour point, on its long axis, lies within 2e-4 of
    formation_reach.  Placed with that point on a 20 m zone's rim, the
    obstacle is listed.  Placed with its contour 1% of (hi - mid) inside hi
    on the rim, at 0.998 formation_reach from its center, it weighs in at
    that rim point, so a list radius below that drops a term of the field."""
    zone = 20.0
    ob = derive_obstacle(Vec2(0.0, 0.0), 12.0, 0.2, derivation)
    band = ob.formation_band
    hi_radii = [math.hypot(*contour_offsets(ob, math.cos(beta), math.sin(beta), band.hi))
                for beta in (0.5 * math.pi * k / 90 for k in range(91))]
    assert max(hi_radii) == hi_radii[0] > (1.0 - 2e-4) * ob.formation_reach
    rim = Vec2(zone, 0.0)
    safe = Vec2(0.0, -10.0)
    for level, weighs in ((band.hi, False), (band.hi - 0.01 * (band.hi - band.mid), True)):
        far, _ = contour_offsets(ob, 1.0, 0.0, level)
        o = ob._replace(center=Vec2(zone + far, 0.0))
        cfg = zone_world(reference_cfg, Vec2(0.0, 0.0), zone, [o])
        assert build_context(cfg).guidance == (o,)
        assert (blend_weight(superelliptic_distance(rim, o), band) > 0.0) == weighs
        assert (combined_field(rim, (o,), safe) != combined_field(rim, (), safe)) == weighs


def test_bundled_guidance_list_is_every_obstacle(reference_cfg):
    assert build_context(reference_cfg).guidance == reference_cfg.obstacles


def test_far_obstacle_whose_floor_overflows_is_culled(bundle_doc, tmp_path):
    """A 1000 m square derives exponent 17.2, so 1e13 m away (d / h)^(2n)
    overflows a float and its level floor is inf.  5.3e11 m away the floor is
    still finite (2.1e304) but the level overflows: as the only obstacle,
    the snapshot's bound walk evaluates it there.  The level is inf at
    either distance, and validation, every list and the run go on exactly as
    without the obstacle; `simulate` ends at t_max (exit 5), with both
    obstacle ratios 0 where the obstacle is alone."""
    for bundled, x, floor_overflows in ((True, 1e13, True), (False, 1e13, True),
                                        (False, 5.3e11, False)):
        doc = copy.deepcopy(bundle_doc)
        doc["attacker"]["sensing_radius_m"] = 2000.0
        if not bundled:
            doc["obstacles"] = []
        near_cfg = scenario_from_dict(doc)
        doc["obstacles"].append({"center_m": [x, 0.0], "width_m": 1000.0, "height_m": 1000.0})
        cfg = scenario_from_dict(doc)
        far = cfg.obstacles[-1]
        assert (level_floor(far, distance_floor(cfg.attacker.start, far, 0.0))
                == math.inf) == floor_overflows
        assert superelliptic_distance(cfg.attacker.start, far) == math.inf
        assert validate_scenario(cfg) == []
        assert far not in build_context(cfg).guidance
        trace = run(cfg, t_max=1.0)
        assert trace.values == run(near_cfg, t_max=1.0).values
        if not bundled:
            for name in ("ratio_attacker_obstacle", "ratio_defender_obstacle"):
                assert set(trace.column(name)) == {0.0}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--t-max", "1", "--svg", "off",
                     "--out", str(tmp_path / "o")]) == 5


@pytest.mark.parametrize("attacker, defenders, expected", [
    # two coincident defenders
    (Vec2(500.0, 500.0), [Vec2(400.0, 400.0), Vec2(400.0, 400.0)],
     {"defender_defender": math.inf}),
    # the attacker on a defender
    (Vec2(400.0, 400.0), [Vec2(400.0, 400.0), Vec2(430.0, 400.0)],
     {"attacker_defender": math.inf}),
], ids=["coincident-defenders", "attacker-on-defender"])
def test_snapshot_agent_ratios_match_full_scan(reference_cfg, attacker, defenders, expected):
    """Each agent-agent ratio is taken at its pairs' minimum distance: a zero
    distance gives inf, as the pair loops did."""
    lists = [obstacle_list(p, reference_cfg, k > 0)
             for k, p in enumerate([attacker, *defenders])]
    snap = safety_snapshot(attacker, defenders, reference_cfg, lists)
    assert snap == full_scan_snapshot(attacker, defenders, reference_cfg)
    for name, value in expected.items():
        assert snap[RATIO_COLUMNS.index("ratio_" + name)] == value
