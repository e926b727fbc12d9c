import math

import pytest
from hypothesis import given, strategies as st

from herdsim.attacker import attacker_field, attacker_step, obstacle_push
from herdsim.environment import derive_obstacle
from herdsim.errors import DomainError
from herdsim.geom import BlendTriplet, Vec2

STANDOFF = BlendTriplet(0.3, 0.8, 0.9)


def test_unopposed_field_points_at_protected():
    p = Vec2(4.0, 3.0)
    fx, fy = attacker_field(p, [], obstacle_push(p, [], 10.0), Vec2(0.0, 0.0), 10.0,
                            STANDOFF)
    assert fx == pytest.approx(-0.8)
    assert fy == pytest.approx(-0.6)


def test_saturated_defender_annihilates_attraction():
    p = Vec2(0.0, 0.0)
    fx, fy = attacker_field(p, [Vec2(0.5, 0.0)], obstacle_push(p, [], 10.0),
                            Vec2(100.0, 0.0), 10.0, STANDOFF)
    # weight 1 kills the attractive product; only repulsion away from the defender
    assert fx == pytest.approx(-1.0)
    assert fy == pytest.approx(0.0)


def test_out_of_range_defender_ignored():
    p = Vec2(0.0, 0.0)
    push = obstacle_push(p, [], 10.0)
    near = attacker_field(p, [], push, Vec2(10.0, 0.0), 10.0, STANDOFF)
    far = attacker_field(p, [Vec2(0.0, 50.0)], push, Vec2(10.0, 0.0), 10.0, STANDOFF)
    assert near == far


def test_obstacle_repulsion_uses_circular_band(derivation):
    ob = derive_obstacle(Vec2(0.0, 6.0), 2.0, 2.0, derivation)
    d = 0.5 * (ob.attacker_band.lo + ob.attacker_band.mid)  # saturated weight
    p = Vec2(0.0, 6.0 - d)
    fx, fy = attacker_field(p, [], obstacle_push(p, [ob], 100.0), Vec2(0.0, -100.0), 100.0,
                            STANDOFF)
    assert fx == pytest.approx(0.0, abs=1e-12)
    assert fy == pytest.approx(-1.0)


def test_coincident_defender_rejected():
    with pytest.raises(DomainError):
        p = Vec2(1.0, 1.0)
        attacker_field(p, [p], obstacle_push(p, [], 10.0), Vec2(0.0, 0.0), 10.0, STANDOFF)


def test_obstacle_push_rejects_an_obstacle_center(derivation):
    # the arc command and the attacker field take this one push
    ob = derive_obstacle(Vec2(3.0, 6.0), 2.0, 1.0, derivation)
    with pytest.raises(DomainError):
        obstacle_push(ob.center, [ob], 10.0)


def test_step_normalizes_field():
    assert attacker_step(0.7, Vec2(2.0, 0.0), turn=0.05) == 0.0


def test_deadlock_turns_by_fixed_increment():
    heading = 0.3
    for k in range(3):
        heading = attacker_step(heading, Vec2(0.0, 0.0), turn=0.05)
        assert heading == pytest.approx(0.3 + 0.05 * (k + 1))


def test_step_displacement_bounded():
    # the heading follows the field, not the last heading; the run moves the
    # attacker by at most its speed (tests/test_sim.py)
    heading = attacker_step(1.0, Vec2(0.3, -0.9), turn=0.05)
    assert heading == math.atan2(-0.9, 0.3)


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_translation_equivariance(ox, oy):
    def shift(q):
        return Vec2(q.x + ox, q.y + oy)

    pos = Vec2(1.0, 2.0)
    defenders = [Vec2(1.4, 2.3), Vec2(0.5, 1.8)]
    protected = Vec2(-3.0, -4.0)
    base = attacker_field(pos, defenders, obstacle_push(pos, [], 10.0), protected,
                          10.0, STANDOFF)
    moved = attacker_field(shift(pos), [shift(d) for d in defenders],
                           obstacle_push(shift(pos), [], 10.0), shift(protected), 10.0,
                           STANDOFF)
    assert moved[0] == pytest.approx(base[0], abs=1e-9)
    assert moved[1] == pytest.approx(base[1], abs=1e-9)
