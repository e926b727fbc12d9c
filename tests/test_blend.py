"""The blend kernels (`geom.repel`, `geom.close_blend`) against the
hand-written loops they replaced.

The attacker's obstacle push, the attacker field and the defender field each
had their own radial push loop and attraction step; those loops are copied
below as the reference (the defender's radial loop now also takes the
attacker, on its own band, after the peers), and the kernels built on the
blend must return equal results, raising where they raised.  Positions and band thresholds are
multiples of 1/32 and small, so a source placed a band threshold (or the
sensing radius) away along an axis sits at exactly that distance.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from herdsim.attacker import attacker_field, obstacle_push
from herdsim.defender_control import defender_field
from herdsim.errors import DomainError
from herdsim.formation_field import repulsive_angle
from herdsim.environment import superelliptic_distance
from herdsim.geom import BlendTriplet, Vec2, blend_weight, close_blend, repel
from herdsim.herding import obstacle_resultant


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
    return Vec2(rx, ry)


def ref_follow_obstacles(p, obstacles, target, defender):
    prod = 1.0
    fx = 0.0
    fy = 0.0
    active = None
    sigma_max = 0.0
    for k, ob in enumerate(obstacles):
        band = ob.defender_band if defender else ob.formation_band
        sigma = blend_weight(superelliptic_distance(p, ob), band)
        if sigma <= 0.0:
            continue
        prod *= 1.0 - sigma
        phi = repulsive_angle(p, ob, target)
        fx += sigma * math.cos(phi)
        fy += sigma * math.sin(phi)
        if sigma > sigma_max:
            sigma_max = sigma
            active = k
    return prod, fx, fy, sigma_max, active


def ref_defender_field(index, positions, goal, obstacles, peer_band, attacker, avoid):
    p = positions[index]
    prod, rx, ry, sigma_max, _ = ref_follow_obstacles(p, obstacles, goal, True)
    conflict = sigma_max > 0.0

    others = [(q, peer_band) for l, q in enumerate(positions) if l != index]
    for other, band in others + [(attacker, avoid)]:
        dx = p.x - other.x
        dy = p.y - other.y
        d = math.hypot(dx, dy)
        if d == 0.0:
            raise DomainError(f"defender {index} coincides with {other}")
        sigma = blend_weight(d, band)
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


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
        obs.append(dataclasses.replace(template, center=data.draw(sources(p, band, sensing)),
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
    # the attraction gets the leftover weight, and nothing at the target
    assert close_blend(p, Vec2(3.0, 7.0), (0.5, 0.25, 0.0, True)) == Vec2(0.25, 0.5)
    assert close_blend(p, p, (0.5, 0.25, 0.0, True)) == Vec2(0.25, 0.0)
