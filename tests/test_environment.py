import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herdsim.environment import (CULL_SLACK, EXPONENT_RESIDUAL_MAX, MAX_STEPS,
                                 OUTER_PAD_FACTORS, SOLVER_TOL, IntegratorConfig,
                                 ObstacleDerivation, ScenarioConfig,
                                 arc_magnitude, contour_offsets, corner_level,
                                 derive_obstacle, load_scenario, min_spread,
                                 reference_scenario_path, scenario_from_dict,
                                 scenario_warnings, shell_points, solve_shape_exponent,
                                 superelliptic_distance, validate_scenario)
from herdsim.errors import ConfigError, SolverError
from herdsim.geom import BlendTriplet, Vec2

from conftest import REFERENCE_OBSTACLES, contour_tangent_angle, small_scenario_doc


def bisect_exponent_oracle(w, h, iw, ih):
    """Independent root finder for the coupled exponent/corner-level pair."""
    def level(n):
        return 0.5 * ((iw / w) ** (2 * n) + (ih / h) ** (2 * n)) - 1.0

    def g(n):
        return n - 1.0 / (1.0 - math.exp(-level(n)))

    lo, hi = 1.0 + 1e-9, 50.0
    assert g(lo) < 0.0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    n = 0.5 * (lo + hi)
    return n, level(n)


# frozen from the bisection oracle above, run to 1e-14 before the build
ORACLE_N = 1.10981029497268
ORACLE_LEVEL = 2.3131900884547


def test_solver_matches_frozen_oracle():
    n, lvl = solve_shape_exponent(2.0, 3.0, 3.7, 4.7)
    assert n == pytest.approx(ORACLE_N, abs=1e-9)
    assert lvl == pytest.approx(ORACLE_LEVEL, abs=1e-9)


def test_solver_finds_root_next_to_one():
    # a strongly inflated thin rectangle: the root sits ~1e-12 above 1
    w, h = 0.5085711448582121, 4.201833998489935
    iw, ih = w + 2.0 * 1.736529523230634, h + 2.0 * 0.49538264500539264
    n, lvl = solve_shape_exponent(w, h, iw, ih)
    assert n > 1.0
    assert abs(n - 1.0 / (1.0 - math.exp(-lvl))) <= SOLVER_TOL
    assert lvl == corner_level(w, h, iw, ih, n)


def test_solver_accepts_a_rounding_cycle_at_the_root():
    # a nearly uninflated rectangle: near its root, 95.19, the iteration
    # ends in a rounding 2-cycle whose step, 1.3e-12, stays above SOLVER_TOL
    # for all SOLVER_MAX_ITER steps, while the residual is 2.7e-12
    w, h, pad = 40.0, 35.0, 1.03e-3
    iw, ih = w + 2.0 * pad, h + 2.0 * pad
    n, lvl = solve_shape_exponent(w, h, iw, ih)
    assert n == pytest.approx(95.19293759, abs=1e-8)
    assert abs(n - 1.0 / (1.0 - math.exp(-lvl))) <= EXPONENT_RESIDUAL_MAX
    assert lvl == corner_level(w, h, iw, ih, n)


def test_solver_error_when_the_iteration_does_not_settle():
    # a 100 nm pad on a 20 m square puts the root near n = 7071, where the
    # damped iteration ends in a cycle of amplitude 3.7e-9 and residual
    # 7.4e-9: SOLVER_MAX_ITER steps run out with the residual out of bounds
    w, pad = 20.0, 1e-7
    with pytest.raises(SolverError, match="exponent residual"):
        solve_shape_exponent(w, w, w + 2.0 * pad, w + 2.0 * pad)


def test_solver_matches_oracle_on_random_rectangles():
    # side/inflation ranges keep the corner level moderate; past ~30 the
    # exponent sits within machine epsilon of its lower limit and float
    # comparisons against an oracle stop being meaningful
    rng = np.random.default_rng(7)
    for _ in range(25):
        w, h = rng.uniform(1.0, 8.0, size=2)
        iw = w + 2.0 * rng.uniform(0.2, 1.2)
        ih = h + 2.0 * rng.uniform(0.2, 1.2)
        n, lvl = solve_shape_exponent(w, h, iw, ih)
        n_ref, lvl_ref = bisect_exponent_oracle(w, h, iw, ih)
        assert n == pytest.approx(n_ref, abs=1e-8)
        assert lvl == pytest.approx(lvl_ref, rel=1e-8)
        assert n > 1.0
        assert lvl > 0.0
        # both defining relations hold
        assert abs(n - 1.0 / (1.0 - math.exp(-lvl))) < 1e-9
        assert abs(0.5 * ((iw / w) ** (2 * n) + (ih / h) ** (2 * n)) - 1.0 - lvl) < 1e-9


def test_solver_rejects_non_inflated():
    with pytest.raises(ConfigError):
        solve_shape_exponent(2.0, 3.0, 2.0, 4.0)


def test_superelliptic_distance_landmarks(derivation):
    ob = derive_obstacle(Vec2(1.0, -2.0), 2.0, 3.0, derivation)
    assert superelliptic_distance(ob.center, ob) == -1.0
    assert superelliptic_distance(Vec2(ob.center.x + ob.semi_x, ob.center.y), ob) \
        == pytest.approx(0.0, abs=1e-12)
    corner = Vec2(ob.center.x + ob.formation_width / 2.0,
                  ob.center.y + ob.formation_height / 2.0)
    assert superelliptic_distance(corner, ob) == pytest.approx(ob.formation_band.lo, abs=1e-9)


def test_levels_nest_along_rays(derivation):
    ob = derive_obstacle(Vec2(0.0, 0.0), 3.0, 4.0, derivation)
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u = Vec2(math.cos(theta), math.sin(theta))
        radii = np.sort(rng.uniform(0.05, 12.0, size=4))
        levels = [superelliptic_distance(Vec2(r * u.x, r * u.y), ob) for r in radii]
        assert all(a < b for a, b in zip(levels, levels[1:]))


def test_all_inflated_corners_on_lo_contour(derivation):
    ob = derive_obstacle(Vec2(-3.0, 7.0), 2.0, 3.0, derivation)
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            corner = Vec2(ob.center.x + sx * ob.formation_width / 2.0,
                          ob.center.y + sy * ob.formation_height / 2.0)
            assert superelliptic_distance(corner, ob) == \
                pytest.approx(ob.formation_band.lo, abs=1e-9)


def test_tangent_square_diagonal(derivation):
    ob = derive_obstacle(Vec2(0.0, 0.0), 2.0, 2.0, derivation)
    assert math.tan(contour_tangent_angle(Vec2(1.0, 1.0), ob)) == pytest.approx(-1.0)


def test_tangent_axis_limits(derivation):
    ob = derive_obstacle(Vec2(0.0, 0.0), 2.0, 3.0, derivation)
    # vertical tangent approaching the x axis, horizontal on the y axis
    assert abs(contour_tangent_angle(Vec2(4.0, 1e-13), ob)) == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert abs(contour_tangent_angle(Vec2(0.0, 4.0), ob)) == pytest.approx(math.pi, abs=1e-9)


def test_derive_obstacle_footprint(derivation):
    # defender radius 0.1, arc radius 0.55, clearance 0.2 -> side + 1.7
    ob = derive_obstacle(Vec2(0.0, 0.0), 2.0, 3.0, derivation)
    assert ob.formation_width == pytest.approx(3.7)
    assert ob.formation_height == pytest.approx(4.7)
    # defender radius 0.1 and clearance 0.1 -> side + 0.4
    assert superelliptic_distance(Vec2(1.2, 1.7), ob) == \
        pytest.approx(ob.defender_band.lo, abs=1e-9)
    assert ob.defender_band.lo < ob.formation_band.lo
    assert ob.defender_band.lo > 0.0
    assert ob.attacker_band.lo == pytest.approx(math.hypot(3.7, 4.7))


def test_derive_obstacle_deterministic(derivation):
    a = derive_obstacle(Vec2(2.0, 5.0), 3.0, 4.0, derivation)
    b = derive_obstacle(Vec2(2.0, 5.0), 3.0, 4.0, derivation)
    assert a == b


def derive_obstacle_by_hand(center, width, height, params):
    """derive_obstacle as it was written before the bands shared one formula:
    the reference that test_derive_obstacle_bands_match_the_hand_formulas
    compares against."""
    pad = params.formation_radius + params.clearance
    fw = width + 2.0 * pad
    fh = height + 2.0 * pad
    exponent, lvl_lo = solve_shape_exponent(width, height, fw, fh)
    half_exp = 2.0 ** (1.0 / (2.0 * exponent))
    semi_x = 0.5 * width * half_exp
    semi_y = 0.5 * height * half_exp
    f_mid, f_hi = OUTER_PAD_FACTORS
    lvl_mid = corner_level(width, height, width + 2.0 * f_mid * pad,
                           height + 2.0 * f_mid * pad, exponent)
    lvl_hi = corner_level(width, height, width + 2.0 * f_hi * pad,
                          height + 2.0 * f_hi * pad, exponent)
    pad_d = params.defender_radius + params.defender_clearance
    dw = width + 2.0 * pad_d
    dh = height + 2.0 * pad_d
    d_lo = corner_level(width, height, dw, dh, exponent)
    d_mid = corner_level(width, height, width + 2.0 * f_mid * pad_d,
                         height + 2.0 * f_mid * pad_d, exponent)
    d_hi = corner_level(width, height, width + 2.0 * f_hi * pad_d,
                        height + 2.0 * f_hi * pad_d, exponent)
    r_lo = math.hypot(fw, fh)
    attacker_band = BlendTriplet(r_lo, params.attacker_mid_factor * r_lo,
                                 params.attacker_hi_factor * r_lo)

    def reach(level):
        scale = (1.0 + level) ** (1.0 / (2.0 * exponent))
        return math.hypot(semi_x, semi_y) * scale * (1.0 + CULL_SLACK)

    return (center, width, height, fw, fh, exponent, semi_x, semi_y, math.hypot(semi_x, semi_y),
            BlendTriplet(lvl_lo, lvl_mid, lvl_hi), BlendTriplet(d_lo, d_mid, d_hi),
            attacker_band, reach(lvl_hi))


def test_derive_obstacle_bands_match_the_hand_formulas():
    rng = random.Random(14)
    for _ in range(300):
        params = ObstacleDerivation(
            formation_radius=rng.uniform(0.1, 3.0), clearance=rng.uniform(0.05, 1.0),
            defender_clearance=rng.uniform(0.01, 0.5), defender_radius=rng.uniform(0.05, 0.5),
            attacker_mid_factor=rng.uniform(1.01, 1.2), attacker_hi_factor=rng.uniform(1.25, 1.5))
        center = Vec2(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
        width, height = rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)
        ob = derive_obstacle(center, width, height, params)
        fields = tuple(getattr(ob, f) for f in ob.__slots__)
        # repr compares every float to the last bit
        assert repr(fields) == repr(derive_obstacle_by_hand(center, width, height, params))


def test_records_are_immutable_values(reference_cfg):
    """Records of equal field values are equal and hash alike, refuse
    assignment to every field, and never equal a tuple of their values."""
    again, _ = load_scenario(reference_scenario_path())
    ob, twin = reference_cfg.obstacles[0], again.obstacles[0]
    for rec, other in [(reference_cfg, again), (ob, twin),
                       (ob.formation_band, twin.formation_band),
                       (reference_cfg.safe, again.safe)]:
        assert rec is not other and rec == other and hash(rec) == hash(other)
        values = tuple(getattr(rec, f) for f in rec.__slots__)
        assert rec != values and values != rec
        for name in rec.__slots__:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(other, name))
        assert rec == other
    assert BlendTriplet(0.0, 1.0, 2.0) != BlendTriplet(0.0, 1.0, 3.0)


def test_integrator_config_caps_the_step_count():
    assert IntegratorConfig(dt=1.0, t_max=float(MAX_STEPS)).t_max == MAX_STEPS
    for dt, t_max in [(1.0, MAX_STEPS * (1.0 + 1e-12)), (1e-300, 200.0), (1e-320, 200.0),
                      (0.01, 1e300)]:
        with pytest.raises(ConfigError, match="MAX_STEPS"):
            IntegratorConfig(dt=dt, t_max=t_max)
    for dt, t_max in [(0.0, 1.0), (-0.01, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                      (0.01, 0.0), (0.01, math.inf), (0.01, math.nan)]:
        with pytest.raises(ConfigError, match="must be finite and positive"):
            IntegratorConfig(dt=dt, t_max=t_max)


def test_min_spread_example():
    assert min_spread(3, 0.3, 0.3) == pytest.approx(2.0 * math.pi / 3.0)


def test_validate_clean_bundle(reference_cfg):
    assert validate_scenario(reference_cfg) == []
    assert scenario_warnings(reference_cfg) == []


def test_shell_points_lie_on_their_level_and_rays(derivation):
    # each point solves E = level on its ray in closed form; shifting it by
    # the center rounds its coordinates, which the 2n-th power magnifies, so
    # its evaluated level is within a few dozen ulps of 1 + level
    samples = 720
    for w, h in ((2.0, 3.0), (4.0, 1.0), (0.5, 6.0)):
        ob = derive_obstacle(Vec2(-7.0, 12.0), w, h, derivation)
        for level in (ob.defender_band.lo, ob.formation_band.hi):
            points = shell_points(ob, level, samples)
            assert len(points) == samples
            for i, p in enumerate(points):
                level_ulp = math.ulp(1.0 + level)
                assert abs(superelliptic_distance(p, ob) - level) <= 32 * level_ulp
                beta = math.atan2(p.y - ob.center.y, p.x - ob.center.x)
                assert abs(math.remainder(beta - 2.0 * math.pi * i / samples,
                                          2.0 * math.pi)) <= 1e-14


def sampled_shell_violations(cfg, boundary_samples=720):
    """The validator's shell-overlap and safe-area-shell tests without the
    reach prefilter: every pair and every obstacle is sampled."""
    v = []
    boundaries = [shell_points(ob, ob.formation_band.hi, boundary_samples)
                  for ob in cfg.obstacles]
    for (i, a), (j, b) in itertools.combinations(enumerate(cfg.obstacles), 2):
        overlap = any(superelliptic_distance(p, b) <= b.formation_band.hi
                      for p in boundaries[i])
        overlap = overlap or any(superelliptic_distance(p, a) <= a.formation_band.hi
                                 for p in boundaries[j])
        overlap = overlap or superelliptic_distance(a.center, b) <= b.formation_band.hi
        if overlap:
            v.append(f"shell-overlap: outer shells of obstacles {i} and {j} intersect")

    t = [2.0 * math.pi * k / boundary_samples for k in range(boundary_samples)]
    ring = [Vec2(cfg.safe.center.x + cfg.safe.radius * math.cos(a),
                 cfg.safe.center.y + cfg.safe.radius * math.sin(a)) for a in t]
    for i, ob in enumerate(cfg.obstacles):
        touched = any(superelliptic_distance(p, ob) <= ob.formation_band.hi for p in ring)
        touched = touched or superelliptic_distance(cfg.safe.center, ob) <= ob.formation_band.hi
        touched = touched or cfg.safe.contains(ob.center)
        if touched:
            v.append(f"safe-area-shell: obstacle {i} outer shell reaches into the safe area")
    return v


def shell_violations(cfg):
    return [s for s in validate_scenario(cfg)
            if s.startswith(("shell-overlap", "safe-area-shell"))]


def test_validate_coincident_obstacles():
    doc = small_scenario_doc()
    doc["obstacles"] = [
        {"center_m": [0.0, 20.0], "width_m": 2.0, "height_m": 2.0},
        {"center_m": [0.0, 20.0], "width_m": 2.0, "height_m": 2.0},
    ]
    doc["attacker"]["start_m"] = [0.0, 35.0]
    cfg = scenario_from_dict(doc)
    v = validate_scenario(cfg)
    assert any(s.startswith("shell-overlap") for s in v)
    assert any(s.startswith("obstacle-spacing") for s in v)
    assert shell_violations(cfg) == sampled_shell_violations(cfg)

    # three mutually overlapping shells: each obstacle sits in two sampled
    # pairs, and each pair is reported
    doc["obstacles"] = [{"center_m": c, "width_m": 2.0, "height_m": 2.0}
                        for c in ([0.0, 20.0], [1.0, 20.0], [0.5, 21.0])]
    cfg = scenario_from_dict(doc)
    assert shell_violations(cfg) == sampled_shell_violations(cfg) == [
        f"shell-overlap: outer shells of obstacles {i} and {j} intersect"
        for i, j in ((0, 1), (0, 2), (1, 2))]
    # a small shell nested in a large one, off its center: only the small
    # shell's points lie in the other, whichever obstacle comes first
    big = {"center_m": [0.0, 20.0], "width_m": 12.0, "height_m": 12.0}
    small = {"center_m": [4.0, 20.0], "width_m": 0.5, "height_m": 0.5}
    for pair in ([big, small], [small, big]):
        doc["obstacles"] = pair
        cfg = scenario_from_dict(doc)
        assert shell_violations(cfg) == sampled_shell_violations(cfg) == [
            "shell-overlap: outer shells of obstacles 0 and 1 intersect"]

    # pairs straddling their summed reach, and obstacles straddling the safe
    # area's rim widened by their reach, along an axis, a shell corner and
    # one more ray: the prefilter must report exactly what the unfiltered
    # sampled test reports, overlaps and clear cases alike
    a_rect = {"center_m": [0.0, 20.0], "width_m": 2.0, "height_m": 2.0}
    b_size = {"width_m": 3.0, "height_m": 1.5}
    doc["obstacles"] = [a_rect, {"center_m": [50.0, 20.0], **b_size}]
    a, b = scenario_from_dict(doc).obstacles
    safe = cfg.safe
    seen = set()
    for theta in (0.0, math.atan2(b.semi_y, b.semi_x), 1.0):
        ray = (math.cos(theta), math.sin(theta))
        for f in (0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1):
            gap = f * (a.formation_reach + b.formation_reach)
            pair = [a_rect, {"center_m": [gap * ray[0], 20.0 + gap * ray[1]], **b_size}]
            rim = safe.radius + f * b.formation_reach
            touching = [{"center_m": [safe.center.x + rim * ray[0],
                                      safe.center.y + rim * ray[1]], **b_size}]
            for obstacles in (pair, touching):
                doc["obstacles"] = obstacles
                placed = scenario_from_dict(doc)
                expected = sampled_shell_violations(placed)
                assert shell_violations(placed) == expected
                seen.add((len(obstacles), bool(expected)))
    assert seen == {(1, False), (1, True), (2, False), (2, True)}


def test_safe_area_prefilter_keeps_a_thin_shell_on_the_rim():
    """A 12 x 0.2 m rectangle on the safe area's x axis, its long axis
    toward the safe center, with its formation hi contour just inside and
    just outside the rim: along that axis the level floor is within 0.03% of
    the level, so a prefilter tighter than hi would drop the touching shell."""
    doc = small_scenario_doc()
    rect = {"width_m": 12.0, "height_m": 0.2}
    doc["obstacles"] = [{"center_m": [100.0, 0.0], **rect}]
    cfg = scenario_from_dict(doc)
    ob = cfg.obstacles[0]
    far, _ = contour_offsets(ob, 1.0, 0.0, ob.formation_band.hi)
    safe = cfg.safe
    for scale, touching in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
        x = safe.center.x + safe.radius + scale * far
        doc["obstacles"] = [{"center_m": [x, safe.center.y], **rect}]
        placed = scenario_from_dict(doc)
        assert shell_violations(placed) == sampled_shell_violations(placed)
        assert bool(shell_violations(placed)) == touching


def test_validate_clearance_violation():
    cfg = scenario_from_dict(small_scenario_doc(**{"formation.clearance_m": 0.1}))
    v = validate_scenario(cfg)
    assert any(s.startswith("clearance") for s in v)


def test_validate_inconsistent_reference_parameters():
    """A deliberately inconsistent parameter set: with default circle
    factors three obstacle pairs sit too close for their circular stand-ins.
    Expected set frozen from an independent pre-build check."""
    doc = small_scenario_doc()
    doc["obstacles"] = [{"center_m": [x, y], "width_m": w, "height_m": h}
                        for x, y, w, h in REFERENCE_OBSTACLES]
    doc["attacker"]["start_m"] = [20.0, 48.0]
    doc["safe_area"] = {"center_m": [-5.0, 60.0], "radius_m": 5.0}
    doc["defenders"]["start_m"] = [[-10.0, 16.0], [6.0, 2.0], [-5.0, -1.0]]
    del doc["obstacle_model"]["attacker_circle_factors"]
    doc["capture"]["transition_time_s"] = 4.6
    cfg = scenario_from_dict(doc)
    v = validate_scenario(cfg)
    spacing = sorted(s.split(":")[1].split("but")[0] for s in v
                     if s.startswith("obstacle-spacing"))
    assert len(spacing) == 3
    joined = " | ".join(spacing)
    for pair in ("obstacles 0 and 1", "obstacles 3 and 4", "obstacles 3 and 5"):
        assert pair in joined


def test_validate_speed_order():
    cfg = scenario_from_dict(small_scenario_doc(**{"attacker.speed_max_mps": 3.0}))
    assert any(s.startswith("speed-order") for s in validate_scenario(cfg))


def test_validate_safe_radius_bound():
    cfg = scenario_from_dict(small_scenario_doc(**{"capture.transition_time_s": 30.0}))
    assert any(s.startswith("safe-radius") for s in validate_scenario(cfg))


@pytest.mark.parametrize("key, value, violation", [
    ("attacker.start_m", [math.nextafter(0.3, 1.0), 9.0], None),
    ("attacker.start_m", [0.3, 9.0], "attacker_defender ratio 1 (defender 1)"),
    ("attacker.start_m", [0.0, 9.0], "attacker_defender ratio inf (defender 1)"),
    ("defenders.start_m", [[-4.0, 10.0], [0.0, 9.0], [0.25, 9.0]],
     "defender_defender ratio 1 (defenders 1 and 2)"),
    ("obstacles", [{"center_m": [-4.0, 10.0], "width_m": 2.0, "height_m": 2.0}],
     "defender_obstacle ratio inf (defender 0, obstacle 0)"),
], ids=["standoff-above-lo", "standoff-at-lo", "standoff-zero", "peer-at-lo",
        "defender-on-obstacle"])
def test_start_clearance(key, value, violation):
    # a ratio threshold / actual reaches 1 where the actual distance is at or
    # below its threshold (standoff lo 0.3, peer lo 0.25)
    doc = small_scenario_doc()
    section, field = key.split(".") if "." in key else (key, None)
    if field:
        doc[section][field] = value
    else:
        doc[section] = value
    found = [s for s in validate_scenario(scenario_from_dict(doc))
             if s.startswith("start-clearance")]
    assert found == ([f"start-clearance: {violation}"] if violation else [])


def full_scan_start_clearance(cfg):
    """validate_scenario's start-clearance lines, every obstacle-start pair
    evaluated (as the validator does, with no level-floor prefilter)."""
    ratio = lambda lo, actual: math.inf if actual <= 0.0 else lo / actual
    v = []
    a0, starts = cfg.attacker.start, cfg.defenders.starts
    for i, ob in enumerate(cfg.obstacles):
        e, lo = superelliptic_distance(a0, ob), ob.formation_band.lo
        if e <= lo:
            v.append(f"start-clearance: attacker_obstacle ratio {ratio(lo, e):.4g} "
                     f"(obstacle {i})")
        for k, p in enumerate(starts):
            e, lo = superelliptic_distance(p, ob), ob.defender_band.lo
            if e <= lo:
                v.append(f"start-clearance: defender_obstacle ratio {ratio(lo, e):.4g} "
                         f"(defender {k}, obstacle {i})")
    lo = cfg.defenders.peer_band.lo
    for (j, p), (k, q) in itertools.combinations(enumerate(starts), 2):
        if math.dist(p, q) <= lo:
            v.append(f"start-clearance: defender_defender ratio "
                     f"{ratio(lo, math.dist(p, q)):.4g} (defenders {j} and {k})")
    lo = cfg.attacker.standoff_band.lo
    for k, p in enumerate(starts):
        if math.dist(a0, p) <= lo:
            v.append(f"start-clearance: attacker_defender ratio "
                     f"{ratio(lo, math.dist(a0, p)):.4g} (defender {k})")
    return v


def test_start_clearance_prefilter_matches_full_scan(reference_cfg, derivation):
    """Starts on the lo contour of their band scaled by 1 -+ 1e-9 (just
    inside and just outside), on the hi contour and at the center, along an
    axis, a shell corner and two more rays, around each bundled obstacle and
    a 12 x 0.2 m one, whose level floor along its long axis is within 0.03%
    of the level."""
    thin = derive_obstacle(Vec2(60.0, -40.0), 12.0, 0.2, derivation)
    obstacles = (*reference_cfg.obstacles, thin)
    cfg = reference_cfg._replace(obstacles=obstacles)

    def place(ob, band, where, beta):
        if where == "center":
            return ob.center
        scale, level = {"lo-in": (1.0 - 1e-9, band.lo), "lo-out": (1.0 + 1e-9, band.lo),
                        "hi": (1.0, band.hi)}[where]
        dx, dy = contour_offsets(ob, math.cos(beta), math.sin(beta), level)
        return Vec2(ob.center.x + scale * dx, ob.center.y + scale * dy)

    seen = set()
    for ob in obstacles:
        corner = math.atan2(ob.semi_y, ob.semi_x)
        for where in ("lo-in", "lo-out", "hi", "center"):
            for beta in (0.0, corner, 2.0, -2.5):
                starts = tuple(place(ob, ob.defender_band, where, beta + 0.5 * math.pi * k)
                               for k in range(3))
                placed = cfg._replace(
                    attacker=cfg.attacker._replace(start=place(ob, ob.formation_band, where, beta)),
                    defenders=cfg.defenders._replace(starts=starts))
                found = [s for s in validate_scenario(placed) if s.startswith("start-clearance")]
                expected = full_scan_start_clearance(placed)
                assert found == expected
                seen.update((where, s.split()[1]) for s in expected)
    assert {w for w, _ in seen} == {"lo-in", "center"}
    assert {"attacker_obstacle", "defender_obstacle"} <= {pair for _, pair in seen}


def test_bands_are_read_as_blend_triplets():
    cfg = scenario_from_dict(small_scenario_doc())
    assert cfg.attacker.standoff_band == BlendTriplet(0.3, 0.8, 0.9)
    assert cfg.defenders.peer_band == BlendTriplet(0.25, 0.32, 0.42)


def test_defender_speed_is_range_checked_with_no_defenders():
    # the scalar is read, and refused, even when no defender takes it
    doc = small_scenario_doc(**{"defenders.start_m": [], "defenders.speed_max_mps": -1})
    with pytest.raises(ConfigError,
                       match=r"^defenders\.speed_max_mps must be positive, got -1\.0$"):
        scenario_from_dict(doc)


def test_readme_scenario_block_parses():
    # every key the README documents is one the parser knows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    block = re.sub(r"//[^\n]*", "", block).replace(", ...", "")
    scenario_from_dict(json.loads(block))


def test_arc_radius_midpoint_warning():
    doc = small_scenario_doc(**{"formation.arc_radius_m": 0.5})
    w = scenario_warnings(scenario_from_dict(doc))
    assert any(s.startswith("arc-radius-midpoint") for s in w)


def test_corner_level_helper():
    n = 1.25
    lvl = corner_level(2.0, 3.0, 3.0, 4.0, n)
    assert lvl == pytest.approx(0.5 * (1.5 ** 2.5 + (4 / 3) ** 2.5) - 1.0)


@pytest.mark.parametrize("dotted,value", [
    ("formation.arc_radius_m", 0.0),
    ("attacker.body_radius_m", 0.0),
    ("defenders.body_radius_m", -0.1),
    ("defenders.speed_max_mps", 0.0),
])
def test_degenerate_scalars_rejected_at_load(dotted, value):
    with pytest.raises(ConfigError):
        scenario_from_dict(small_scenario_doc(**{dotted: value}))


# the clique search the arc-magnitude check used before it compared against
# one obstacle, copied verbatim as the reference
def _max_overlap_count(cfg: ScenarioConfig) -> int:
    """Largest set of obstacles whose attacker-model influence discs can
    overlap at a single point (clique of the pairwise overlap graph)."""
    n = len(cfg.obstacles)
    adj = [[False] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = cfg.obstacles[i], cfg.obstacles[j]
        d = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
        if d < a.attacker_band.hi + b.attacker_band.hi:
            adj[i][j] = adj[j][i] = True
    best = 1 if n else 0

    def grow(clique, candidates):
        nonlocal best
        best = max(best, len(clique))
        for k in candidates:
            if all(adj[k][m] for m in clique):
                grow(clique + [k], [c for c in candidates if c > k])

    grow([], list(range(n)))
    return best


def two_defender_doc(spread, obstacles):
    doc = small_scenario_doc(**{"formation.spread_rad": spread})
    doc["defenders"]["start_m"] = [[-4.0, 10.0], [4.0, 10.0]]
    doc["obstacles"] = obstacles
    return doc


def test_arc_magnitude_below_one_obstacle_rejected():
    # two unit pushers 3 rad apart nearly cancel: sin(3) / sin(1.5) ~ 0.14
    assert arc_magnitude(2, 3.0) == pytest.approx(0.1415, abs=1e-4)
    doc = two_defender_doc(3.0, [{"center_m": [20.0, 20.0], "width_m": 2.0,
                                  "height_m": 2.0}])
    v = validate_scenario(scenario_from_dict(doc))
    assert [s for s in v if s.startswith("arc-magnitude")] == [
        "arc-magnitude: 0.141474 must exceed the worst simultaneous obstacle "
        "repulsion 1.0 or the heading command becomes unsolvable"]


def test_arc_magnitude_without_obstacles_accepted():
    v = validate_scenario(scenario_from_dict(two_defender_doc(3.0, [])))
    assert not any(s.startswith("arc-magnitude") for s in v)


rect = st.fixed_dictionaries({
    "center_m": st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)).map(list),
    "width_m": st.floats(0.5, 4.0),
    "height_m": st.floats(0.5, 4.0),
})


@settings(max_examples=150, deadline=None)
@given(st.lists(rect, min_size=0, max_size=5))
def test_spacing_check_bounds_overlap_count(obstacles):
    # the arc-magnitude check compares against 1 because a scenario without
    # obstacle-spacing violations has no two overlapping influence discs
    cfg = scenario_from_dict(two_defender_doc(2.0, obstacles))
    spaced = not any(s.startswith("obstacle-spacing") for s in validate_scenario(cfg))
    assert spaced == (_max_overlap_count(cfg) <= 1)
