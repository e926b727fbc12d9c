import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from herdsim.environment import (EXPONENT_RESIDUAL_MAX, SOLVER_TOL, ScenarioConfig,
                                 arc_magnitude, corner_level, derive_obstacle,
                                 min_spread, scenario_from_dict,
                                 scenario_warnings, shell_points, solve_shape_exponent,
                                 superelliptic_distance, validate_scenario)
from herdsim.errors import ConfigError, SolverError
from herdsim.geom import Vec2

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


def test_validate_clearance_violation():
    cfg = scenario_from_dict(small_scenario_doc(**{"formation.clearance_m": 0.1}))
    v = validate_scenario(cfg)
    assert any(s.startswith("clearance") for s in v)


def test_validate_inconsistent_reference_parameters():
    """A deliberately inconsistent parameter set: the saturated standoff
    radius implied by the arc geometry exceeds the given outer radius, and
    with default circle factors three obstacle pairs sit too close for their
    circular stand-ins.  Expected set frozen from an independent pre-build
    check."""
    doc = small_scenario_doc()
    doc["obstacles"] = [{"center_m": [x, y], "width_m": w, "height_m": h}
                        for x, y, w, h in REFERENCE_OBSTACLES]
    doc["attacker"]["start_m"] = [20.0, 48.0]
    doc["attacker"]["defender_standoff_band_m"] = [0.3, 0.8, 0.65]
    doc["safe_area"] = {"center_m": [-5.0, 60.0], "radius_m": 5.0}
    doc["defenders"]["start_m"] = [[-10.0, 16.0], [6.0, 2.0], [-5.0, -1.0]]
    del doc["obstacle_model"]["attacker_circle_factors"]
    doc["capture"]["transition_time_s"] = 4.6
    cfg = scenario_from_dict(doc)
    v = validate_scenario(cfg)
    assert any(s.startswith("standoff-triplet") for s in v)
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
