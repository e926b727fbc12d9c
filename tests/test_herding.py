import math
import re

import numpy as np
import pytest

from herdsim.attacker import attacker_field, obstacle_push
from herdsim.environment import derive_obstacle, formation_spec
from herdsim.errors import ConfigError, InfeasibleHeadingError
from herdsim.geom import BlendTriplet, Vec2, blend_weight, dist, wrap_angle
from herdsim.herding import (formation_goals, heading_rate, obstacle_resultant,
                             schedule_heading, solve_command_heading)


def test_offsets_symmetric_thirds():
    spec = formation_spec(3, math.pi / 2.0, 0.55, 0.3, 0.1)
    assert spec.offsets == pytest.approx((-math.pi / 4.0, 0.0, math.pi / 4.0))
    assert spec.offsets[0] == -spec.offsets[-1]


def test_arc_magnitude_value():
    spec = formation_spec(3, math.pi / 2.0, 0.55, 0.3, 0.1)
    # sin(3*pi/8)/sin(pi/8), frozen from direct evaluation
    assert spec.arc_magnitude == pytest.approx(2.41421356237309, abs=1e-12)


def test_spread_below_minimum_rejected():
    # peers as large as the standoff force 2*pi/3 for three defenders
    spread = 2.0 * math.pi / 3.0 - 1e-6
    with pytest.raises(ConfigError, match=rf"^spread: {re.escape(repr(spread))} rad is below "
                                          r"the minimum 2\.094395 rad for 3 defenders$"):
        formation_spec(3, spread, 0.55, 0.3, 0.3)
    formation_spec(3, 2.0 * math.pi / 3.0 + 1e-6, 0.55, 0.3, 0.3)


def test_resultant_empty():
    assert obstacle_resultant(obstacle_push(Vec2(0.0, 0.0), [], 10.0)) == (0.0, 0.0)


def test_resultant_single_obstacle_north(derivation):
    ob = derive_obstacle(Vec2(0.0, 8.0), 2.0, 2.0, derivation)
    d = 0.5 * (ob.attacker_band.lo + ob.attacker_band.mid)
    mag, angle = obstacle_resultant(obstacle_push(Vec2(0.0, 8.0 - d), [ob], 100.0))
    assert mag == pytest.approx(1.0)
    assert angle == pytest.approx(-math.pi / 2.0)


def test_resultant_symmetric_pair(derivation):
    # two saturated sources at +-45 degrees bearing add along the bisector
    oa = derive_obstacle(Vec2(4.0, 4.0), 2.0, 2.0, derivation)
    obb = derive_obstacle(Vec2(4.0, -4.0), 2.0, 2.0, derivation)
    assert math.hypot(4.0, 4.0) < oa.attacker_band.mid  # saturated at the origin
    mag, angle = obstacle_resultant(obstacle_push(Vec2(0.0, 0.0), [oa, obb], 100.0))
    assert mag == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert angle == pytest.approx(math.pi, abs=1e-9)


def test_command_reduces_to_desired_without_obstacles():
    assert solve_command_heading(0.7, 0.0, 0.0, 2.0) == pytest.approx(0.7)


def test_command_unchanged_when_resultant_aligned():
    assert solve_command_heading(0.7, 0.5, 0.7, 2.0) == pytest.approx(0.7)


def test_command_worked_example():
    # frozen from direct evaluation of the closed form
    cmd = solve_command_heading(math.pi / 2.0, 0.8, math.pi / 4.0, 2.41421356237309)
    assert cmd == pytest.approx(1.8073097818736, abs=1e-10)


def test_command_infeasible_raises():
    with pytest.raises(InfeasibleHeadingError):
        solve_command_heading(0.0, 1.5, 0.3, 1.2)


def test_command_alignment_residual_random():
    rng = np.random.default_rng(9)
    mag = 2.0806046117362795
    for _ in range(200):
        desired = rng.uniform(-math.pi, math.pi)
        gamma = rng.uniform(-math.pi, math.pi)
        fo = rng.uniform(0.0, 1.0)
        cmd = solve_command_heading(desired, fo, gamma, mag)
        # alignment equation in its cosine-multiplied (pole-free) form
        residual = mag * math.sin(cmd - desired) - fo * math.sin(desired - gamma)
        assert abs(residual) < 1e-12
        # and the total field really points along the desired direction
        fx = fo * math.cos(gamma) + mag * math.cos(cmd)
        fy = fo * math.sin(gamma) + mag * math.sin(cmd)
        assert abs(wrap_angle(math.atan2(fy, fx) - desired)) < 1e-9


def test_saturated_arc_field_aligns_with_desired(derivation):
    """Defenders on their slots with a partially blended obstacle: the full
    attacker field must point along the commanded herd direction."""
    ob = derive_obstacle(Vec2(0.0, 0.0), 3.0, 3.0, derivation)
    spec = formation_spec(3, 2.0, 0.55, 0.3, 0.25)
    standoff = BlendTriplet(0.3, 0.8, 0.9)
    rng = np.random.default_rng(21)
    for _ in range(100):
        desired = rng.uniform(-math.pi, math.pi)
        d = rng.uniform(ob.attacker_band.lo, ob.attacker_band.hi * 0.999)
        bearing = rng.uniform(-math.pi, math.pi)
        # the attacker at this bearing from the center is pushed along `bearing`
        r_a = Vec2(ob.center.x + d * math.cos(bearing),
                   ob.center.y + d * math.sin(bearing))
        fo = blend_weight(d, ob.attacker_band)
        cmd = solve_command_heading(desired, fo, bearing, spec.arc_magnitude)
        defenders, _ = formation_goals(r_a, Vec2(0.0, 0.0), cmd, 0.0, spec)
        fx, fy = attacker_field(r_a, defenders, obstacle_push(r_a, [ob], 1e6),
                                Vec2(500.0, 0.0), 1e6, standoff)
        assert abs(wrap_angle(math.atan2(fy, fx) - desired)) < 1e-6


def test_heading_rate_basics():
    assert heading_rate(0.4, 0.4, 0.01, 1.0) == 0.0
    assert heading_rate(0.0, 0.002, 0.01, 1.0) == pytest.approx(0.2)
    # clamped at the limit, and unwrapped across the seam
    assert heading_rate(0.0, 0.5, 0.01, 1.0) == 1.0
    assert heading_rate(0.0, -0.5, 0.01, 1.0) == -1.0
    assert heading_rate(math.pi - 0.001, -math.pi + 0.001, 0.01, 1.0) \
        == pytest.approx(0.2)


def heading_rate_closed_form(desired: float, desired_rate: float, command: float,
                             resultant_mag: float, resultant_mag_rate: float,
                             resultant_angle: float, resultant_angle_rate: float,
                             magnitude: float) -> float:
    """Exact command-heading rate from the differentiated alignment equation.

    Needs rates the planner cannot measure directly; kept as a cross-check
    for the finite-difference path.  Undefined at desired = +-pi/2 where the
    tangent blows up.
    """
    t = math.tan(desired)
    sec2 = 1.0 / math.cos(desired) ** 2
    cg, sg = math.cos(resultant_angle), math.sin(resultant_angle)
    cc, sc = math.cos(command), math.sin(command)
    denom = magnitude * (cc + t * sc)
    num = (resultant_mag_rate * (t * cg - sg)
           - resultant_mag * resultant_angle_rate * (t * sg + cg)
           + sec2 * desired_rate * (resultant_mag * cg + magnitude * cc))
    return num / denom


def test_heading_rate_closed_form_matches_finite_difference():
    mag = 2.0806046117362795

    def fo(t):
        return 0.5 + 0.3 * math.sin(0.3 * t)

    def gamma(t):
        return 0.2 + 0.1 * math.sin(0.7 * t)

    def desired(t):
        return 0.8 + 0.2 * math.sin(0.5 * t)

    def command(t):
        return desired(t) + math.asin(fo(t) / mag * math.sin(desired(t) - gamma(t)))

    h = 1e-3
    for t in np.linspace(0.5, 9.5, 19):
        fd = (command(t + h) - command(t - h)) / (2.0 * h)
        analytic = heading_rate_closed_form(
            desired(t), 0.1 * math.cos(0.5 * t), command(t),
            fo(t), 0.09 * math.cos(0.3 * t),
            gamma(t), 0.07 * math.cos(0.7 * t), mag)
        assert abs(fd - analytic) < 1e-5


def test_schedule_phases():
    quarter = math.pi / 2.0 - 0.1   # the captured offset, short by the margin
    table = [  # (t, t_capture, offset)
        (1.0, None, 0.0),                      # approach
        (12.0, 10.0, 0.5 * quarter),           # transition midpoint
        # t == t_capture + transition_time is still on the ramp; here
        # t - t_capture rounds above 4 s, so it ends one ulp past quarter
        (4.03 + 4.0, 4.03, (4.03 + 4.0 - 4.03) * quarter / 4.0),
        (30.0, 10.0, quarter),                 # captured
    ]
    for t, t_capture, offset in table:
        # field angle 0.4 rad, transition time 4 s, tangent margin 0.1 rad
        assert schedule_heading(0.4, t, t_capture, 4.0, 0.1) == wrap_angle(0.4 + offset)


def test_goals_geometry():
    spec = formation_spec(3, 2.0, 0.55, 0.3, 0.25)
    goals, velocities = formation_goals(Vec2(1.0, 2.0), Vec2(0.3, -0.1), 0.0, 0.0, spec)
    # middle slot sits directly behind the commanded direction
    mid_goal = goals[1]
    assert mid_goal.x == pytest.approx(1.0 - 0.55)
    assert mid_goal.y == pytest.approx(2.0)
    # zero arc rotation: every slot just rides the attacker velocity
    for vx, vy in velocities:
        assert vx == pytest.approx(0.3)
        assert vy == pytest.approx(-0.1)
    # all slots on the arc circle
    for goal in goals:
        assert dist(goal, Vec2(1.0, 2.0)) == pytest.approx(0.55)


def test_goal_rotation_feedforward():
    spec = formation_spec(2, 1.0, 0.5, 0.3, 0.25)
    rate = 0.4
    goals, velocities = formation_goals(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 0.0, rate, spec)
    assert len(goals) == len(velocities) == 2
    for goal, (vx, vy) in zip(goals, velocities):
        # velocity perpendicular to the spoke, magnitude radius*rate
        spoke = Vec2(goal.x, goal.y)
        assert abs(vx * spoke.x + vy * spoke.y) < 1e-12
        assert math.hypot(vx, vy) == pytest.approx(0.5 * rate)


def test_goal_separation_respects_peer_minimum():
    rng = np.random.default_rng(4)
    for _ in range(50):
        count = int(rng.integers(2, 7))
        standoff_min = rng.uniform(0.2, 1.0)
        peer_min = rng.uniform(0.05, 1.9) * standoff_min
        arc_radius = standoff_min * rng.uniform(1.0, 2.0)
        from herdsim.environment import min_spread
        needed = min_spread(count, standoff_min, peer_min)
        if needed >= 2.0 * math.pi:
            continue
        spread = rng.uniform(needed, min(needed * 1.5 + 0.1, 2.0 * math.pi))
        spec = formation_spec(count, spread, arc_radius, standoff_min, peer_min)
        goals, _ = formation_goals(Vec2(0.0, 0.0), Vec2(0.0, 0.0), 0.3, 0.0, spec)
        for a, b in zip(goals, goals[1:]):
            assert dist(a, b) >= peer_min - 1e-9
