import math

import pytest
from hypothesis import given, strategies as st

from herdsim.attacker import AttackerState, attacker_field, attacker_step
from herdsim.environment import derive_obstacle
from herdsim.errors import DomainError
from herdsim.geom import BlendTriplet, Vec2
from herdsim.herding import obstacle_resultant

STANDOFF = BlendTriplet(0.3, 0.8, 0.9)


def test_unopposed_field_points_at_protected():
    f = attacker_field(Vec2(4.0, 3.0), [], [], Vec2(0.0, 0.0), 10.0, STANDOFF)
    assert f.x == pytest.approx(-0.8)
    assert f.y == pytest.approx(-0.6)


def test_saturated_defender_annihilates_attraction():
    f = attacker_field(Vec2(0.0, 0.0), [Vec2(0.5, 0.0)], [], Vec2(100.0, 0.0),
                       10.0, STANDOFF)
    # weight 1 kills the attractive product; only repulsion away from the defender
    assert f.x == pytest.approx(-1.0)
    assert f.y == pytest.approx(0.0)


def test_out_of_range_defender_ignored():
    near = attacker_field(Vec2(0.0, 0.0), [], [], Vec2(10.0, 0.0), 10.0, STANDOFF)
    far = attacker_field(Vec2(0.0, 0.0), [Vec2(0.0, 50.0)], [], Vec2(10.0, 0.0),
                         10.0, STANDOFF)
    assert near == far


def test_obstacle_repulsion_uses_circular_band(derivation):
    ob = derive_obstacle(Vec2(0.0, 6.0), 2.0, 2.0, derivation)
    d = 0.5 * (ob.attacker_band.lo + ob.attacker_band.mid)  # saturated weight
    p = Vec2(0.0, 6.0 - d)
    f = attacker_field(p, [], [ob], Vec2(0.0, -100.0), 100.0, STANDOFF)
    assert f.x == pytest.approx(0.0, abs=1e-12)
    assert f.y == pytest.approx(-1.0)


def test_coincident_defender_rejected():
    with pytest.raises(DomainError):
        attacker_field(Vec2(1.0, 1.0), [Vec2(1.0, 1.0)], [], Vec2(0.0, 0.0),
                       10.0, STANDOFF)


def test_attacker_on_an_obstacle_center_rejected_by_both_push_kernels(derivation):
    # the arc command cancels the push the attacker feels, so the resultant
    # refuses the same point the attacker field does
    ob = derive_obstacle(Vec2(3.0, 6.0), 2.0, 1.0, derivation)
    with pytest.raises(DomainError):
        attacker_field(ob.center, [], [ob], Vec2(0.0, 0.0), 10.0, STANDOFF)
    with pytest.raises(DomainError):
        obstacle_resultant(ob.center, [ob], 10.0)


def test_step_normalizes_field():
    s = AttackerState(position=Vec2(0.0, 0.0), heading=0.0, speed=1.0)
    out = attacker_step(s, Vec2(2.0, 0.0), turn=0.05, dt=0.1)
    assert out.position.x == pytest.approx(0.1)
    assert out.position.y == pytest.approx(0.0)


def test_deadlock_turns_by_fixed_increment():
    s = AttackerState(position=Vec2(0.0, 0.0), heading=0.3, speed=1.0)
    for k in range(3):
        s = attacker_step(s, Vec2(0.0, 0.0), turn=0.05, dt=0.01)
        assert s.heading == pytest.approx(0.3 + 0.05 * (k + 1))


def test_step_displacement_bounded():
    s = AttackerState(position=Vec2(2.0, -1.0), heading=1.0, speed=1.0)
    out = attacker_step(s, Vec2(0.3, -0.9), turn=0.05, dt=0.01)
    moved = math.hypot(out.position.x - 2.0, out.position.y + 1.0)
    assert moved <= 1.0 * 0.01 + 1e-12


def test_step_rejects_bad_dt():
    s = AttackerState(position=Vec2(0.0, 0.0), heading=0.0, speed=1.0)
    with pytest.raises(ValueError):
        attacker_step(s, Vec2(1.0, 0.0), turn=0.05, dt=0.0)


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_translation_equivariance(ox, oy):
    off = Vec2(ox, oy)
    pos = Vec2(1.0, 2.0)
    defenders = [Vec2(1.4, 2.3), Vec2(0.5, 1.8)]
    protected = Vec2(-3.0, -4.0)
    base = attacker_field(pos, defenders, [], protected, 10.0, STANDOFF)
    moved = attacker_field(pos + off, [d + off for d in defenders], [],
                           protected + off, 10.0, STANDOFF)
    assert moved.x == pytest.approx(base.x, abs=1e-9)
    assert moved.y == pytest.approx(base.y, abs=1e-9)
