"""The blend kernels (`geom.repel`, `geom.close_blend`) against the
hand-written loops they replaced.

The attacker's obstacle push, the attacker field and the defender field each
had their own radial push loop and attraction step; those loops are the
reference, the attacker's copied below and the defender's in conftest.py
(its radial loop now also takes the attacker, on its own band, after the
peers), and the kernels built on the blend must return equal results,
raising where they raised.  The loops weigh every source; the kernels skip
one at or beyond its band's hi.  Positions and band thresholds are
multiples of 1/32 and small, so a source placed a band threshold (or the
sensing radius) away along an axis sits at exactly that distance.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from herdsim import formation_field, geom
from herdsim.attacker import attacker_field, obstacle_push
from herdsim.defender_control import defender_field
from herdsim.errors import DomainError
from herdsim.formation_field import follow_obstacles
from herdsim.environment import superelliptic_distance
from herdsim.geom import BlendTriplet, Vec2, blend_weight, close_blend, repel
from herdsim.herding import obstacle_resultant
from herdsim.sim import run

from conftest import outcome, ref_defender_field, ref_follow_obstacles


# ---------------------------------------------------------------------------
# the loops before the blend
# ---------------------------------------------------------------------------

def ref_obstacle_push(position, obstacles, sensing_radius):
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


def ref_attacker_field(position, defenders, push, protected_center,
                       sensing_radius, standoff):
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
    return rx, ry


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def dyadic(lo, hi):
    """Multiples of 1/32 in [lo, hi]."""
    return st.integers(int(lo * 32), int(hi * 32)).map(lambda k: k / 32.0)


@st.composite
def bands(draw):
    lo, mid, hi = sorted(draw(st.lists(dyadic(0.0, 8.0), min_size=3, max_size=3,
                                       unique=True)))
    return BlendTriplet(lo, mid, hi)


@st.composite
def sources(draw, p, band, reach):
    """A point around p: anywhere nearby, or along an axis exactly at the
    band's mid or hi, at the reach, or on p itself (rarely)."""
    kind = draw(st.sampled_from(["free"] * 5 + ["mid", "hi", "reach", "on"]))
    if kind == "free":
        return Vec2(p.x + draw(dyadic(-10.0, 10.0)), p.y + draw(dyadic(-10.0, 10.0)))
    r = {"mid": band.mid, "hi": band.hi, "reach": reach, "on": 0.0}[kind]
    ux, uy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
    return Vec2(p.x + ux * r, p.y + uy * r)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(st.data())
def test_attacker_kernels_match_the_loops(reference_cfg, data):
    p = Vec2(data.draw(dyadic(-40.0, 60.0)), data.draw(dyadic(-40.0, 60.0)))
    sensing = data.draw(dyadic(0.5, 12.0))
    standoff = data.draw(bands())
    template = reference_cfg.obstacles[0]
    obs = []
    for _ in range(data.draw(st.integers(0, 4))):
        band = data.draw(bands())
        # obstacle_push reads only the center and the attacker band
        obs.append(template._replace(center=data.draw(sources(p, band, sensing)),
                                     attacker_band=band))
    defenders = data.draw(st.lists(sources(p, standoff, sensing), max_size=4))
    target = data.draw(st.one_of(st.just(p), sources(p, standoff, sensing)))

    push = outcome(obstacle_push, p, obs, sensing)
    ref_push = outcome(ref_obstacle_push, p, obs, sensing)
    if ref_push is DomainError:
        assert push is DomainError
        return
    assert push[:3] == ref_push
    assert obstacle_resultant(push) == (math.hypot(ref_push[1], ref_push[2]),
                                        math.atan2(ref_push[2], ref_push[1]))
    assert (outcome(attacker_field, p, defenders, push, target, sensing, standoff)
            == outcome(ref_attacker_field, p, defenders, ref_push, target, sensing,
                       standoff))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_defender_field_matches_the_loops(reference_cfg, data):
    # around the bundled obstacles, so that obstacle weights come into play
    p = Vec2(data.draw(dyadic(-15.0, 25.0)), data.draw(dyadic(10.0, 65.0)))
    peer_band = data.draw(bands())
    peers = data.draw(st.lists(sources(p, peer_band, peer_band.hi), max_size=3))
    index = data.draw(st.integers(0, len(peers)))
    positions = peers[:index] + [p] + peers[index:]
    goal = data.draw(st.one_of(st.just(p), sources(p, peer_band, peer_band.hi)))
    avoid = data.draw(bands())
    args = (index, positions, goal, reference_cfg.obstacles, peer_band,
            data.draw(sources(p, avoid, avoid.hi)), avoid)
    assert outcome(defender_field, *args) == outcome(ref_defender_field, *args)


def test_band_edges_and_coincidence():
    band = BlendTriplet(0.5, 1.0, 2.0)
    p = Vec2(3.0, 4.0)
    empty = (1.0, 0.0, 0.0, False)
    # at mid the weight is 1; at hi, and beyond the reach, nothing is added
    assert repel(p, [(Vec2(2.0, 4.0), band)], 5.0, empty) == (0.0, 1.0, 0.0, True)
    assert repel(p, [(Vec2(3.0, 2.0), band)], 5.0, empty) == empty
    assert repel(p, [(Vec2(3.0, 4.5), band)], 0.25, empty) == empty
    with pytest.raises(DomainError, match=r"\(3\.0, 4\.0\)"):
        repel(p, [(p, band)], 5.0, empty)
    # a coincident source raises wherever it stands among the sources
    with pytest.raises(DomainError):
        repel(p, [(Vec2(30.0, 4.0), band), (p, band)], 5.0, empty)
    # the attraction gets the leftover weight, and nothing at the target
    assert close_blend(p, Vec2(3.0, 7.0), (0.5, 0.25, 0.0, True)) == (0.25, 0.5)
    assert close_blend(p, p, (0.5, 0.25, 0.0, True)) == (0.25, 0.0)


# ---------------------------------------------------------------------------
# the cull: a blend skips a source at or beyond its band's hi before weighing it
# ---------------------------------------------------------------------------

EDGES = {"below": -1, "at": 0, "above": 1}


def nudge(x, sign):
    """x moved one ulp up (sign 1) or down (sign -1), or x itself (sign 0)."""
    return math.nextafter(x, sign * math.inf) if sign else x


def spy_on_weights(monkeypatch):
    """Record every weight the kernels take, where geom and formation_field
    bind blend_weight, as (distance or level, band, weight)."""
    taken = []

    def spy(delta, band):
        taken.append((delta, band, blend_weight(delta, band)))
        return taken[-1][2]

    monkeypatch.setattr(geom, "blend_weight", spy)
    monkeypatch.setattr(formation_field, "blend_weight", spy)
    return taken


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_cull_at_the_band_edge_matches_the_loops(reference_cfg, monkeypatch, edge):
    """A source at hi, or one ulp either side of it, and an obstacle whose
    level sits there, blend as the loops that weigh every source blend them;
    the kernels weigh only what lies below hi."""
    taken = spy_on_weights(monkeypatch)
    band = BlendTriplet(0.5, 1.0, 2.0)
    p = Vec2(0.0, 0.0)
    q = Vec2(nudge(band.hi, EDGES[edge]), 0.0)
    far = Vec2(0.0, 100.0)
    template = reference_cfg.obstacles[0]
    obs = [template._replace(center=q, attacker_band=band)]
    push = obstacle_push(p, obs, 5.0)
    assert push[:3] == ref_obstacle_push(p, obs, 5.0)
    assert (attacker_field(p, [q], push, far, 5.0, band)
            == ref_attacker_field(p, [q], push[:3], far, 5.0, band))
    args = (0, [p, q], far, [], band, Vec2(0.0, -q.x), band)
    assert defender_field(*args) == ref_defender_field(*args)

    # the bands' hi moved the other way puts the level at p on the same side of it
    p = Vec2(template.center.x + 2.0 * template.semi_x, template.center.y)
    level = superelliptic_distance(p, template)
    hi = nudge(level, -EDGES[edge])
    edge_band = BlendTriplet(0.0, 0.5 * level, hi)
    ob = template._replace(formation_band=edge_band, defender_band=edge_band)
    for defender in (False, True):
        prod, fx, fy, hit = follow_obstacles(p, [ob], far, defender)
        ref = ref_follow_obstacles(p, [ob], far, defender)
        assert (prod, fx, fy, hit) == (*ref[:3], ref[3] > 0.0)
    assert all(delta < b.hi for delta, b, _ in taken)
    assert bool(taken) == (edge == "below")


def test_no_weight_taken_on_the_bundled_run_is_zero(reference_cfg, monkeypatch):
    """Every blend culls at its band's hi, so a short bundled run weighs only
    sources that get a nonzero weight."""
    taken = spy_on_weights(monkeypatch)
    run(reference_cfg, t_max=10.0)
    assert taken
    assert all(weight != 0.0 for _, _, weight in taken)
