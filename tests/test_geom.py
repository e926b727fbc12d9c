import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from herdsim.environment import ObstacleDerivation
from herdsim.errors import ConfigError
from herdsim.geom import (BlendTriplet, Frozen, Vec2, blend_weight, unit, wrap_angle,
                          wrap_sector)

BAND = BlendTriplet(1.0, 2.0, 3.0)


def test_blend_plateau():
    assert blend_weight(1.5, BAND) == 1.0


def test_blend_outside():
    assert blend_weight(3.0, BAND) == 0.0
    assert blend_weight(7.0, BAND) == 0.0


def test_blend_ramp_midpoint():
    assert blend_weight(2.5, BAND) == pytest.approx(0.5, abs=1e-15)


def test_blend_cubic_value():
    # hand-evaluated cubic coefficients for the (1, 2, 3) band at 2.25
    assert blend_weight(2.25, BAND) == pytest.approx(0.84375, abs=1e-15)


def test_blend_saturates_below_lo():
    assert blend_weight(0.2, BAND) == 1.0
    assert blend_weight(-5.0, BAND) == 1.0


@pytest.mark.parametrize("bad", [(2.0, 1.0, 3.0), (1.0, 1.0, 3.0),
                                 (1.0, 3.0, 3.0), (-0.5, 1.0, 2.0)])
def test_invalid_band_rejected(bad):
    with pytest.raises(ConfigError):
        BlendTriplet(*bad)


def test_positional_and_keyword_construction_agree():
    assert BlendTriplet(1.0, 2.0, 3.0) == BlendTriplet(hi=3.0, lo=1.0, mid=2.0)
    assert ObstacleDerivation(0.85, 0.2, 1.2, 1.4) == ObstacleDerivation(
        formation_pad=0.85, defender_pad=0.2, attacker_mid_factor=1.2, attacker_hi_factor=1.4)


@pytest.mark.parametrize("args, kwargs", [((1.0, 2.0), {}),
                                          ((1.0, 2.0, 3.0), {"top": 4.0}),
                                          ((1.0, 2.0, 3.0, 4.0), {})])
def test_constructor_refuses_missing_and_unknown_fields(args, kwargs):
    with pytest.raises(TypeError):
        BlendTriplet(*args, **kwargs)


def test_records_have_no_defaults():
    # scenario_from_dict passes both attacker circle factors; nothing fills them in
    with pytest.raises(TypeError):
        ObstacleDerivation(0.85, 0.2)


def test_checks_run_on_construction_and_replace():
    with pytest.raises(ConfigError, match=r"^blend thresholds must satisfy "
                                          r"0 <= lo < mid < hi, got \(1, 1, 2\)$"):
        BlendTriplet(1, 1, 2)
    with pytest.raises(ConfigError, match=r"^blend thresholds must satisfy "
                                          r"0 <= lo < mid < hi, got \(1, 2, 0.5\)$"):
        BlendTriplet(1, 2, 3)._replace(hi=0.5)


def test_record_defining_init_is_refused():
    # Frozen writes every record's constructor; one of its own would bypass it
    with pytest.raises(TypeError, match="defines __init__"):
        class Pair(Frozen):
            __slots__ = ("a", "b")

            def __init__(self, a, b):
                pass


@given(st.floats(0.0, 4.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.floats(-2.0, 12.0))
def test_blend_range_and_monotonicity(lo, gap1, gap2, delta):
    band = BlendTriplet(lo, lo + gap1, lo + gap1 + gap2)
    w = blend_weight(delta, band)
    assert 0.0 <= w <= 1.0
    assert blend_weight(delta + 0.05, band) <= w + 1e-12


@pytest.mark.parametrize("junction", ["mid", "hi"])
def test_blend_c1_at_junctions(junction):
    band = BlendTriplet(0.5, 1.7, 2.9)
    x = getattr(band, junction)
    h = 1e-8
    left = (blend_weight(x, band) - blend_weight(x - h, band)) / h
    right = (blend_weight(x + h, band) - blend_weight(x, band)) / h
    assert abs(left - right) < 1e-6


def test_wrap_examples():
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.5) == 0.5
    assert wrap_angle(math.pi) == pytest.approx(math.pi)


@given(st.floats(-1e6, 1e6))
def test_wrap_angle_idempotent_and_in_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w
    # congruent modulo a full turn
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-6)
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-6)


@given(st.floats(-1e6, 1e6))
def test_wrap_sector_range(theta):
    w = wrap_sector(theta)
    assert 0.0 <= w < 2.0 * math.pi
    assert wrap_sector(w) == w


def test_vec2_ops():
    a = Vec2(3.0, 4.0)
    b = Vec2(1.0, -1.0)
    assert a + b == Vec2(4.0, 3.0)
    assert a - b == Vec2(2.0, 5.0)
    assert 2.0 * a == Vec2(6.0, 8.0)
    assert (-a).norm() == 5.0
    assert unit(a) == Vec2(0.6, 0.8)
    assert unit(Vec2(0.0, 0.0)) == Vec2(0.0, 0.0)
    assert not Vec2(math.nan, 0.0).is_finite()


def test_vec2_is_an_immutable_pair_but_not_a_tuple():
    v = Vec2(1.0, 2.0)
    with pytest.raises(AttributeError):
        v.x = 3.0
    # a slots record: no per-instance dict, and no tuple underneath
    assert not hasattr(v, "__dict__") and not issubclass(Vec2, tuple)
    x, y = v
    assert (x, y) == tuple(v) == (1.0, 2.0)
    assert v == Vec2(1.0, 2.0) and hash(v) == hash(Vec2(1.0, 2.0))
    assert v != Vec2(2.0, 1.0)
    assert v != (1.0, 2.0)
    assert repr(v) == "Vec2(x=1.0, y=2.0)"
    assert v._replace(y=5.0) == Vec2(1.0, 5.0) and v == Vec2(1.0, 2.0)


@pytest.mark.parametrize("round_trip", [lambda r: pickle.loads(pickle.dumps(r)),
                                        copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("which", ["ScenarioConfig", "Obstacle", "BlendTriplet", "Vec2"])
def test_records_pickle_and_copy(reference_cfg, round_trip, which):
    record = {"ScenarioConfig": reference_cfg, "Obstacle": reference_cfg.obstacles[0],
              "BlendTriplet": BAND, "Vec2": Vec2(1.0, -2.5)}[which]
    again = round_trip(record)
    assert type(again) is type(record) and again == record
