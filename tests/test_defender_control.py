import math

import numpy as np
import pytest

from herdsim.defender_control import (TrackingGains, convergence_bounds, defender_field,
                                      defender_velocity, solve_tracking_gains,
                                      terminal_phase_time)
from herdsim.environment import derive_obstacle, superelliptic_distance
from herdsim.errors import ConfigError, DomainError
from herdsim.formation_field import repulsive_angle
from herdsim.geom import BlendTriplet, Vec2, blend_weight

from conftest import contour_point

PEERS = BlendTriplet(0.25, 0.32, 0.42)
# the bundled world's attacker-avoidance band: standoff lo 0.3 to arc radius
# 0.55 less goal tolerance 0.05; FAR is an attacker beyond it
AVOID = BlendTriplet(0.3, 0.4, 0.5)
FAR = Vec2(100.0, 100.0)

# handoff roots frozen from an independent bisection oracle run to 1e-14
HANDOFF_ORACLE = {0.3: 1.49867022192001, 0.5: 1.08865949248265, 0.7: 0.75722748188702}


def bundle_gains():
    return solve_tracking_gains(0.5, 2.6, 1.0, 0.55, 0.3)


@pytest.mark.parametrize("exponent,root", sorted(HANDOFF_ORACLE.items()))
def test_handoff_error_matches_oracle(exponent, root):
    gains = solve_tracking_gains(exponent, 2.0, 1.0, 0.0, 0.0)
    assert gains.handoff_error == pytest.approx(root, abs=1e-10)
    # the defining relation holds at the solution
    e = gains.handoff_error
    assert abs((1.0 - math.tanh(e) ** 2) - exponent * math.tanh(e) / e) < 1e-12


def test_bundled_gains_frozen(reference_cfg):
    # bit patterns of the gains the hand-written bisection produced before it
    # moved onto environment.bisect
    frozen = TrackingGains(approach_speed=1.435, terminal_gain=1.095294156598228,
                           terminal_exponent=0.5, handoff_error=1.0886594924826527)
    cfg = reference_cfg
    for vmax in cfg.defenders.speed_max:
        gains = solve_tracking_gains(cfg.control.terminal_exponent, vmax,
                                     cfg.attacker.speed_max, cfg.formation.arc_radius,
                                     cfg.control.heading_rate_max)
        assert gains == frozen


def test_handoff_relation_signs():
    # below the root the slope surplus is positive, above it negative
    def residual(e, k):
        return (1.0 - math.tanh(e) ** 2) - k * math.tanh(e) / e

    assert residual(1e-8, 0.5) > 0.0
    assert residual(10.0, 0.5) < 0.0


def test_gains_budget():
    gains = bundle_gains()
    assert gains.approach_speed == pytest.approx(2.6 - 1.0 - 0.55 * 0.3)
    assert gains.terminal_gain == pytest.approx(
        gains.approach_speed * math.tanh(gains.handoff_error)
        / gains.handoff_error ** 0.5)


def test_gains_reject_bad_exponent():
    with pytest.raises(ConfigError):
        solve_tracking_gains(1.0, 2.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        solve_tracking_gains(0.0, 2.0, 1.0, 0.0, 0.0)


def test_gains_reject_exhausted_budget():
    with pytest.raises(ConfigError):
        solve_tracking_gains(0.5, 2.0, 1.0, 0.55, 2.0)


def test_speed_continuous_at_handoff():
    gains = bundle_gains()
    e = gains.handoff_error
    far = gains.approach_speed * math.tanh(e)
    near = gains.terminal_gain * e ** gains.terminal_exponent
    assert abs(far - near) < 1e-12


def test_field_points_at_goal_when_clear():
    positions = [Vec2(0.0, 0.0), Vec2(10.0, 0.0)]
    (fx, fy), conflict = defender_field(0, positions, Vec2(3.0, 4.0), [], PEERS, FAR, AVOID)
    assert not conflict
    assert fx == pytest.approx(0.6)
    assert fy == pytest.approx(0.8)


def test_field_pure_peer_repulsion_when_saturated():
    positions = [Vec2(0.0, 0.0), Vec2(0.2, 0.0)]
    (fx, fy), conflict = defender_field(0, positions, Vec2(5.0, 0.0), [], PEERS, FAR, AVOID)
    assert conflict
    assert fx == pytest.approx(-1.0)
    assert fy == pytest.approx(0.0, abs=1e-12)


def test_field_obstacle_blend_norm_identity(derivation):
    ob = derive_obstacle(Vec2(0.0, 0.0), 3.0, 3.0, derivation)
    goal = Vec2(0.5, 10.0)
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 30:
        beta = rng.uniform(0.0, 2.0 * math.pi)
        level = rng.uniform(ob.defender_band.mid, ob.defender_band.hi)
        p = contour_point(ob, beta, level)
        s = blend_weight(superelliptic_distance(p, ob), ob.defender_band)
        if not (0.0 < s < 1.0):
            continue
        f, conflict = defender_field(0, [p], goal, [ob], PEERS, FAR, AVOID)
        assert conflict
        toward = math.atan2(goal.y - p.y, goal.x - p.x)
        gap = toward - repulsive_angle(p, ob, goal)
        expect = math.sqrt(1.0 + 2.0 * s * (1.0 - s) * (math.cos(gap) - 1.0))
        assert math.hypot(*f) == pytest.approx(expect, abs=1e-12)
        checked += 1


def test_field_rejects_coincident_peers():
    with pytest.raises(DomainError):
        defender_field(0, [Vec2(1.0, 1.0), Vec2(1.0, 1.0)], Vec2(0.0, 0.0), [], PEERS,
                       FAR, AVOID)
    with pytest.raises(DomainError):
        defender_field(0, [Vec2(1.0, 1.0)], Vec2(0.0, 0.0), [], PEERS, Vec2(1.0, 1.0), AVOID)


@pytest.mark.parametrize("gap, weight", [(0.35, 1.0), (0.45, 0.5), (0.5, 0.0)])
def test_field_avoids_the_attacker_on_its_band(gap, weight):
    # the attacker straight ahead on the way to the goal: saturated up to
    # the band's mid, where the field points straight back; the cubic's
    # midpoint halfway to hi, where push and attraction cancel; nothing from
    # hi on.  Inside the band the defender is in conflict, as near a peer.
    (fx, fy), conflict = defender_field(0, [Vec2(0.0, 0.0)], Vec2(5.0, 0.0), [], PEERS,
                                        Vec2(gap, 0.0), AVOID)
    assert conflict == (weight > 0.0)
    assert fx == pytest.approx(1.0 - 2.0 * weight)
    assert fy == 0.0


def test_velocity_tracks_goal_velocity_at_zero_error():
    gains = bundle_gains()
    v = defender_velocity(Vec2(1.0, 1.0), Vec2(1.0, 1.0), (0.4, -0.2), (1.0, 0.0), False,
                          gains)
    assert v == (0.4, -0.2)


def test_velocity_branches_agree_at_handoff():
    gains = bundle_gains()
    e = gains.handoff_error
    goal = Vec2(0.0, 0.0)
    p = Vec2(e, 0.0)
    field = Vec2(-1.0, 0.0)
    near = defender_velocity(p, goal, Vec2(0.0, 0.0), field, True, gains)
    far_gains = gains
    far = far_gains.approach_speed * math.tanh(e)
    assert math.hypot(*near) == pytest.approx(far, abs=1e-12)


def test_velocity_saturates_far_out():
    gains = bundle_gains()
    v = defender_velocity(Vec2(10.0, 0.0), Vec2(0.0, 0.0), Vec2(0.5, 0.5),
                          Vec2(-1.0, 0.0), True, gains)
    assert math.hypot(*v) == pytest.approx(gains.approach_speed, rel=1e-6)


def test_velocity_degenerate_field_holds():
    # no direction to move in: the caller holds the defender for one step
    gains = bundle_gains()
    assert defender_velocity(Vec2(1.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 0.0),
                             Vec2(0.0, 0.0), True, gains) is None


def test_velocity_bounded_by_budget():
    gains = bundle_gains()
    rng = np.random.default_rng(12)
    vmax = 2.6
    for _ in range(200):
        p = Vec2(*rng.uniform(-5.0, 5.0, size=2))
        goal = Vec2(*rng.uniform(-5.0, 5.0, size=2))
        u = rng.uniform(-math.pi, math.pi)
        field = Vec2(math.cos(u), math.sin(u))
        # slot velocity within its structural bound: attacker speed + arc swing
        gv_angle = rng.uniform(-math.pi, math.pi)
        gv_mag = rng.uniform(0.0, 1.0 + 0.55 * 0.3)
        gv = Vec2(gv_mag * math.cos(gv_angle), gv_mag * math.sin(gv_angle))
        conflict = bool(rng.integers(0, 2))
        v = defender_velocity(p, goal, gv, field, conflict, gains)
        assert math.hypot(*v) <= vmax + 1e-12


def test_convergence_bounds_examples():
    gains = bundle_gains()
    assert convergence_bounds(2.0, gains) > 0.0
    # frozen closed-form value ln(sinh 2 / sinh 0.5) / 1.0 of the far-field time
    gains_half = solve_tracking_gains(0.5, 2.0, 1.0, 0.0, 0.0)
    gains_half = gains_half.__class__(gains_half.approach_speed,
                                      gains_half.terminal_gain,
                                      gains_half.terminal_exponent, 0.5)
    assert convergence_bounds(2.0, gains_half) == pytest.approx(1.94018969856120, abs=1e-10)
    # the summed form stays finite where sinh(e0) overflows
    assert math.isfinite(convergence_bounds(1000.0, gains))


@pytest.mark.parametrize("heading_rate", [0.3, 2.5])
def test_convergence_bounds_match_the_integrated_tracking_law(heading_rate):
    """Euler integration (dt = 1e-4) of defender_velocity toward a still goal
    on a field pointing at it crosses the handoff error within 0.5 percent
    of convergence_bounds, at a fast and a slow approach speed."""
    gains = solve_tracking_gains(0.5, 2.6, 1.0, 0.55, heading_rate)
    goal = Vec2(0.0, 0.0)
    p = Vec2(2.0, 0.0)
    t = 0.0
    dt = 1e-4
    while p.norm() > gains.handoff_error:
        vx, vy = defender_velocity(p, goal, goal, goal - p, False, gains)
        p = Vec2(p.x + vx * dt, p.y + vy * dt)
        t += dt
    assert t == pytest.approx(convergence_bounds(2.0, gains), rel=0.005)


def test_convergence_bound_zero_inside_basin():
    gains = bundle_gains()
    assert convergence_bounds(gains.handoff_error, gains) == 0.0


def test_power_law_finite_time_matches_closed_form():
    """Integrating the near-goal regime from the handoff error must hit zero
    in the closed-form time within 2 percent."""
    gains = bundle_gains()
    e = gains.handoff_error
    t = 0.0
    dt = 1e-4
    budget = terminal_phase_time(gains, e)
    while e > 1e-9:
        e -= gains.terminal_gain * e ** gains.terminal_exponent * dt
        t += dt
        assert t < 2.0 * budget
    assert t == pytest.approx(budget, rel=0.02)
