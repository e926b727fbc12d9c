import ast
import copy
import hashlib
import importlib
import inspect
import json
import math
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import herdsim
from herdsim import (cli, defender_control, environment, errors, formation_field,
                     reference_scenario_path, sim)
from herdsim.cli import main
from herdsim.geom import dist

from conftest import REFERENCE_OBSTACLES, child_env, load_bench_workloads, small_scenario_doc


# `check` stdout after its first line, which names the scenario and its digest
CHECK_BUNDLED_STDOUT = """\
defenders: 3, obstacles: 6
spread: 2.000000 rad (minimum 1.719102)
arc repulsion magnitude: 2.080605
tracking gains: approach 1.435000 m/s, terminal gain 1.095294, handoff error 1.088659 m
terminal phase: 1.905 s
attacker straight-line arrival bound: 52.000 s
reach: 37.659 s against arrival 52.000 s
obstacle shells (exponent, formation level lo/mid/hi, defender lo, circle radii):
  [0] 2x3 @ (10, 23): n=1.109810 levels=(2.3132, 3.1348, 4.0586) defender_lo=0.4095 circle=(5.982, 6.580, 7.178)
  [1] 3x4 @ (-6, 18): n=1.225324 levels=(1.6934, 2.2780, 2.9323) defender_lo=0.3110 circle=(7.388, 8.127, 8.865)
  [2] 2x2 @ (11, 5): n=1.069810 levels=(2.7295, 3.7063, 4.8050) defender_lo=0.4771 circle=(5.233, 5.756, 6.279)
  [3] 3x3 @ (15, 43): n=1.179360 levels=(1.8833, 2.5365, 3.2676) defender_lo=0.3434 circle=(6.647, 7.311, 7.976)
  [4] 3x4 @ (-2, 45): n=1.225324 levels=(1.6934, 2.2780, 2.9323) defender_lo=0.3110 circle=(7.388, 8.127, 8.865)
  [5] 4x3 @ (12, 60): n=1.225324 levels=(1.6934, 2.2780, 2.9323) defender_lo=0.3110 circle=(7.388, 8.127, 8.865)
scenario is clean
"""
# sha256 of the same lines for the benchmark's cluttered world, seed 1
CHECK_CLUTTERED_1_SHA256 = "146d3b4a539c935c444184c73fac60be02cd63b9fca6d567ccabd6b2d8d66636"


def test_check_stdout_is_pinned(tmp_path, capsys):
    assert main(["check"]) == 0
    assert capsys.readouterr().out.split("\n", 1)[1] == CHECK_BUNDLED_STDOUT
    path = tmp_path / "cluttered.json"
    path.write_text(json.dumps(load_bench_workloads().cluttered_doc(1)))
    assert main(["check", "--scenario", str(path)]) == 0
    rest = capsys.readouterr().out.split("\n", 1)[1]
    assert hashlib.sha256(rest.encode()).hexdigest() == CHECK_CLUTTERED_1_SHA256


def test_check_prints_the_reach_against_the_arrival(tmp_path, capsys, bundle_doc):
    """At heading_rate_max_radps 1.75 the slot's rotation eats the speed
    budget, and reach outlasts the attacker's arrival; check still exits 0."""
    doc = copy.deepcopy(bundle_doc)
    doc["control"]["heading_rate_max_radps"] = 1.75
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    arrival = lines.index("attacker straight-line arrival bound: 52.000 s")
    assert lines[arrival + 1] == "reach: 84.770 s against arrival 52.000 s"


@pytest.mark.parametrize("overrides", [
    {"attacker.speed_max_mps": 0}, {"control.heading_rate_max_radps": 50},
], ids=["attacker-at-rest", "gains-unsolvable"])
def test_check_prints_no_reach_without_an_arrival_and_gains(tmp_path, capsys, overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_scenario_doc(**overrides)))
    main(["check", "--scenario", str(path)])
    assert "reach:" not in capsys.readouterr().out


def test_check_bundle_clean(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "scenario is clean" in out
    assert "arc repulsion magnitude" in out
    assert "tracking gains" in out
    assert "terminal phase: 1.905 s" in out


def test_simulate_bundle_artifacts(cli_artifacts):
    assert cli_artifacts["exit1"] == 0
    assert cli_artifacts["exit2"] == 0
    for name in ("trace.csv", "summary.json", "trajectories.svg", "ratios.svg"):
        assert name in cli_artifacts["first"]
    summary = json.loads(cli_artifacts["first"]["summary.json"])
    assert summary["captured"] is True
    assert summary["manifest"]["scenario_sha256"]
    assert summary["manifest"]["outputs"]["trace_csv"] == "trace.csv"


def test_missing_scenario_exit_code(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    # unreadable paths: a directory, and a path below a regular file (root
    # ignores permission bits, so no permission-based case)
    (tmp_path / "file.json").write_text("{}")
    for unreadable in (tmp_path, tmp_path / "file.json" / "below.json"):
        capsys.readouterr()
        assert main(["check", "--scenario", str(unreadable)]) == 2
        assert "error: cannot read scenario file: " in capsys.readouterr().err


def test_malformed_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--scenario", str(bad)]) == 3
    bad.write_text(json.dumps({"protected_area": {}}))
    assert main(["check", "--scenario", str(bad)]) == 3
    # not UTF-8 text, a UTF-16 byte-order mark before an odd byte count, and
    # lists nested deeper than the interpreter's recursion limit
    for raw in (b'{"a": "\xff"}', b"\xff\xfe{", b"[" * 100_000):
        bad.write_bytes(raw)
        capsys.readouterr()
        assert main(["check", "--scenario", str(bad)]) == 3
        assert "error: bad scenario: scenario file is not valid JSON: " in \
            capsys.readouterr().err


EXTRA_KEY_OBSTACLE = {"center_m": [50.0, 50.0], "width_m": 2.0, "height_m": 2.0,
                      "color": "red"}


def obstacles_then(width):
    """A sound obstacle, then one of the given width."""
    return [{"center_m": [50.0, 50.0], "width_m": 2.0, "height_m": 2.0},
            {"center_m": [-50.0, 50.0], "width_m": width, "height_m": 2.0}]


@pytest.mark.parametrize("key, value", [
    ("solver", 3),
    ("obstacle_model", [1]),
    ("obstacles", [5]),
    ("solver", {"tolerance": 1e-12, "max_iterations": 500}),
    ("formation.goal_tolerance_mm", 9.0),
    ("obstacles", [EXTRA_KEY_OBSTACLE]),
    ("defenders.speed_max_mps", math.inf),
    ("defenders.speed_max_mps", [2.6, math.inf, 2.6]),
    ("defenders.speed_max_mps", True),
    ("defenders.speed_max_mps", ["2.6", 2.6, 2.6]),
    ("attacker.speed_max_mps", "1.0"),
    ("attacker.speed_max_mps", True),
    pytest.param("attacker.speed_max_mps", 10 ** 400, id="int-beyond-float-range"),
    ("attacker.start_m", ["0", 20]),
    ("attacker.defender_standoff_band_m", [0.3, True, 0.9]),
    ("defenders.peer_separation_band_m", [0.25]),
])
def test_malformed_scenario_value_exit_code(tmp_path, capsys, key, value):
    if "." in key:
        doc = small_scenario_doc(**{key: value})
    else:
        doc = small_scenario_doc()
        doc[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err
    assert "bad scenario" in err
    assert key in err


@pytest.mark.parametrize("key, value, named", [
    ("obstacle_model.attacker_circle_factors", [1.1, "1.2"],
     "obstacle_model.attacker_circle_factors[1] must be a number"),
    ("defenders.speed_max_mps", [2.6, True, 2.6], "defenders.speed_max_mps[1] must be a number"),
    ("defenders.speed_max_mps", [2.6, 2.6, 1e400], "defenders.speed_max_mps[2] must be finite"),
    ("attacker.defender_standoff_band_m", [0.3, 0.8, "0.9"],
     "attacker.defender_standoff_band_m[2] must be a number"),
    ("defenders.start_m", [[-4.0, 10.0], [0.0, "9"], [4.0, 10.0]],
     "defenders.start_m[1][1] must be a number"),
    ("obstacles", [{"center_m": [50.0, None], "width_m": 2.0, "height_m": 2.0}],
     "obstacles[0].center_m[1] must be a number"),
    ("obstacles", [EXTRA_KEY_OBSTACLE], "unknown key(s) obstacles[0].color"),
    ("formation.goal_tolerance_mm", 9.0, "unknown key(s) formation.goal_tolerance_mm"),
    ("solver", {"tolerance": 1e-12}, "unknown key(s) solver"),
    # a side so small that the derived bands come out infinite
    ("obstacles", obstacles_then(5e-324),
     "obstacles[1]: blend thresholds must be finite: BlendTriplet(lo=inf, mid=inf, hi=inf)"),
    ("obstacles", obstacles_then(0), "obstacles[1]: obstacle sides must be positive, got 0.0x2.0"),
    # a rule on one value is checked where the value is read
    ("attacker.defender_standoff_band_m", [0.3, 0.8, 0.65],
     "attacker.defender_standoff_band_m: blend thresholds must satisfy 0 <= lo < mid < hi, "
     "got (0.3, 0.8, 0.65)"),
    ("defenders.peer_separation_band_m", [0.25, 0.42, 0.32],
     "defenders.peer_separation_band_m: blend thresholds must satisfy 0 <= lo < mid < hi, "
     "got (0.25, 0.42, 0.32)"),
    ("control.terminal_exponent", 1.5, "control.terminal_exponent must be in (0, 1), got 1.5"),
    ("capture.tangent_margin_rad", 2.0,
     "capture.tangent_margin_rad must be in (0, pi/2), got 2.0"),
    ("protected_area.radius_m", -1, "protected_area.radius_m must be positive, got -1.0"),
    ("attacker.body_radius_m", 0, "attacker.body_radius_m must be positive, got 0.0"),
    ("defenders.speed_max_mps", -2.6, "defenders.speed_max_mps must be positive, got -2.6"),
    ("defenders.speed_max_mps", [2.6, -1, 2.6],
     "defenders.speed_max_mps[1] must be positive, got -1.0"),
    ("formation.arc_radius_m", 0, "formation.arc_radius_m must be positive, got 0.0"),
    ("capture.transition_time_s", 0, "capture.transition_time_s must be positive, got 0.0"),
    ("attacker.speed_max_mps", -1, "attacker.speed_max_mps must be non-negative, got -1.0"),
    ("obstacle_model.attacker_circle_factors", [1.3, 1.2],
     "obstacle_model.attacker_circle_factors must satisfy 1 < mid < hi, got [1.3, 1.2]"),
    ("control.heading_rate_max_radps", -0.3,
     "control.heading_rate_max_radps must be non-negative, got -0.3"),
    ("formation.goal_tolerance_m", -1,
     "formation.goal_tolerance_m must be non-negative, got -1.0"),
    ("capture.dwell_factor", -1, "capture.dwell_factor must be non-negative, got -1.0"),
    ("formation.defender_clearance_m", -0.15,
     "formation.defender_clearance_m must be non-negative, got -0.15"),
    ("attacker.start_m", [1.0], "attacker.start_m must be a 2-element [x, y] list"),
    ("defenders.speed_max_mps", [2.6, 2.6],
     "defenders.speed_max_mps list must match start_m length"),
    ("obstacle_model.attacker_circle_factors", [1.1],
     "obstacle_model.attacker_circle_factors must be [mid, hi]"),
    ("defenders.start_m", 5, "defenders.start_m must be a list of [x, y] pairs"),
], ids=["circle-factor", "speed-list-bool", "speed-list-inf", "standoff-band", "defender-start",
        "obstacle-center", "obstacle-extra-key", "formation-extra-key", "solver-section",
        "obstacle-bands-infinite", "obstacle-side-0", "standoff-band-order", "peer-band-order",
        "terminal-exponent", "tangent-margin", "protected-radius", "attacker-body-radius",
        "defender-speed", "defender-speed-list", "arc-radius", "transition-time",
        "attacker-speed", "circle-factor-order", "heading-rate", "goal-tolerance",
        "dwell-factor", "defender-clearance", "attacker-start", "speed-list-length",
        "circle-factor-length", "defender-start-list"])
@pytest.mark.parametrize("command", ["check", "simulate", "sweep"])
def test_bad_scenario_error_names_the_path(tmp_path, capsys, command, key, value, named):
    if "." in key:
        doc = small_scenario_doc(**{key: value})
    else:
        doc = small_scenario_doc()
        doc[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    extra = {"check": [], "simulate": ["--out", str(tmp_path / "o")],
             "sweep": ["--obstacle", "0", "--out", str(tmp_path / "o")]}[command]
    assert main([command, "--scenario", str(path), *extra]) == 3
    assert f"error: bad scenario: {named}" in capsys.readouterr().err


def test_simulate_stopped_at_step_zero_writes_every_artifact(tmp_path):
    # round(0.004 / 0.01) = 0 steps: the trace holds the start row alone
    out = tmp_path / "o"
    assert main(["simulate", "--t-max", "0.004", "--out", str(out)]) == 5
    assert sorted(p.name for p in out.iterdir()) == [
        "ratios.svg", "summary.json", "trace.csv", "trajectories.svg"]
    assert json.loads((out / "summary.json").read_text())["steps"] == 0


def test_invalid_scenario_exit_code(tmp_path, capsys):
    doc = small_scenario_doc(**{"formation.clearance_m": 0.05})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "violation: clearance" in err


@pytest.mark.parametrize("section, absent, key, value, violation", [
    # the default transition time (pi/2)(v_min - v_a)/R is -1.14 s here
    ("capture", "transition_time_s", "attacker.speed_max_mps", 3.0, "speed-order"),
    # the default defender clearance, half the formation's, is -0.075 m here
    ("formation", "defender_clearance_m", "formation.clearance_m", -0.15, "clearance"),
], ids=["transition-time", "defender-clearance"])
def test_unusable_derived_default_is_reported_under_its_rule(tmp_path, capsys, bundle_doc,
                                                             section, absent, key, value,
                                                             violation):
    doc = copy.deepcopy(bundle_doc)
    del doc[section][absent]
    where, name = key.split(".")
    doc[where][name] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    captured = capsys.readouterr()
    assert f"violation: {violation}:" in captured.out
    assert absent not in captured.out + captured.err


def test_arc_radius_that_collapses_the_attacker_band_is_a_violation(tmp_path, capsys):
    # R = standoff lo + goal tolerance: the defenders' attacker band would run
    # from lo 0.3 to R - tolerance = 0.3, so the validator refuses it (exit 4)
    # before build_context could raise on the collapsed band (exit 3)
    doc = small_scenario_doc(**{"formation.arc_radius_m": 0.3 + 0.05})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    assert "violation: arc-radius: 0.35 must lie in (0.3 + 0.05, 0.8]" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "violation: arc-radius" in capsys.readouterr().err


def test_spread_below_minimum_exit_code(tmp_path, capsys):
    doc = small_scenario_doc(**{"formation.spread_rad": 0.5})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "violation: spread" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_defenders_is_malformed(tmp_path, capsys, count):
    # an arc needs 2 defenders, so DefenderTeamConfig refuses fewer
    doc = small_scenario_doc(**{"defenders.start_m": [[0.0, 5.0]] * count,
                                "defenders.speed_max_mps": [2.6] * count})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    named = "error: bad scenario: defenders.start_m"
    assert main(["check", "--scenario", str(path)]) == 3
    assert named in capsys.readouterr().err
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", [1e-6, 0.5, 10.0])
@pytest.mark.parametrize("world", ["bundled", "open-field"])
def test_loose_solver_tolerance_is_a_solver_failure(tmp_path, capsys, monkeypatch,
                                                     bundle_doc, world, tolerance):
    # a loose tolerance stops the exponent iteration (bundled world) or the
    # handoff bisection (no obstacles) short of the relation it solves
    if world == "bundled":
        doc = bundle_doc
        monkeypatch.setattr(environment, "SOLVER_TOL", tolerance)
    else:
        doc = small_scenario_doc()
        monkeypatch.setattr(defender_control, "SOLVER_TOL", tolerance)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 6
    assert main(["simulate", "--scenario", str(path), "--t-max", "0.5",
                 "--out", str(tmp_path / "o")]) == 6
    assert "residual" in capsys.readouterr().err


def test_tiny_obstacle_side_is_a_solver_failure(tmp_path, capsys, bundle_doc):
    # the first exponent step overflows the corner level
    doc = json.loads(json.dumps(bundle_doc))
    doc["obstacles"].append({"center_m": [200.0, 200.0], "width_m": 1e-300,
                             "height_m": 2.0})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 6
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 6
    assert "obstacle at" in capsys.readouterr().err


def test_check_attacker_at_rest(tmp_path, capsys):
    doc = small_scenario_doc(**{"attacker.speed_max_mps": 0})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tracking gains: approach" in out
    assert "unsolvable" not in out
    assert "arrival bound" not in out


def test_check_prints_the_arrival_bound_when_the_gains_are_unsolvable(tmp_path, capsys):
    # the arrival bound needs only the attacker's start and speed
    doc = small_scenario_doc(**{"control.heading_rate_max_radps": 50})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    out = capsys.readouterr().out
    assert "tracking gains unsolvable" in out
    assert "attacker straight-line arrival bound: 20.000 s" in out


def test_attacker_start_in_protected_area_is_a_violation(tmp_path, capsys):
    doc = small_scenario_doc(**{"attacker.start_m": [0.0, 1.0]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    assert "violation: attacker-start" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "violation: attacker-start" in capsys.readouterr().err


@pytest.mark.parametrize("start, ratio", [
    ((10.0, 60.0), "inf (obstacle 5)"),
    ((10.0, 20.0), "1.741 (obstacle 0)"),
    ((0.0, 48.0), "1.243 (obstacle 4)"),
], ids=["at-10-60", "at-10-20", "at-0-48"])
def test_attacker_start_inside_a_shell_is_a_violation(tmp_path, capsys, bundle_doc,
                                                      start, ratio):
    doc = json.loads(json.dumps(bundle_doc))
    doc["attacker"]["start_m"] = list(start)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    violation = f"violation: start-clearance: attacker_obstacle ratio {ratio}"
    assert main(["check", "--scenario", str(path)]) == 4
    assert violation in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert violation in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, violation", [
    # a zero standoff saturates every gap of the arc at a half turn
    ("attacker", "defender_standoff_band_m", [0.0, 0.8, 0.9],
     "spread: 2.0 rad is below the minimum 6.283185 rad for 3 defenders"),
    # the defenders would stop planning inside the far side of the safe area
    ("defenders", "sensing_zone_radius_m", 55.0,
     "sensing-zone: the safe area reaches 65.2080 m from the protected center, "
     "beyond the 55.0 m sensing zone"),
] + [
    # an attacker held in a safe area that meets the protected area can still
    # breach: the concentric run ends breached; the one at (0, 4) captures,
    # but in an area that meets the protected one
    ("safe_area", "center_m", [0.0, y],
     f"safe-area-overlap: the safe and protected areas' centers are {y:.4f} m apart, "
     f"not more than their summed radii 7.0000 m")
    for y in (0.0, 4.0)
] + [
    # the attacker would ignore obstacle 5's circle model beyond its sensing radius
    ("attacker", "sensing_radius_m", radius,
     f"sensing-radius: attacker sensing radius {float(radius)} m is below 8.8654 m, "
     f"the hi of obstacle 5's attacker band")
    for radius in (0, -1, 2.0, 7.0)
], ids=["standoff-lo-0", "sensing-zone-55", "safe-area-at-0-0", "safe-area-at-0-4",
        "sensing-radius-0", "sensing-radius--1", "sensing-radius-2", "sensing-radius-7"])
def test_bundled_world_violation(tmp_path, capsys, bundle_doc, section, key, value,
                                 violation):
    doc = json.loads(json.dumps(bundle_doc))
    doc[section][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    assert f"violation: {violation}" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert f"violation: {violation}" in capsys.readouterr().err


@pytest.mark.xfail(reason="ROADMAP 10: check calls this scenario clean, but sweep --obstacle 0 "
                          "finds a half-turn gap (max |gap| 3.1416 rad against the limit "
                          "3.0416) and the guidance field vanishes 9.1 m from the safe center")
def test_thin_wall_whose_field_vanishes_is_a_violation(tmp_path, bundle_doc):
    doc = json.loads(json.dumps(bundle_doc))
    doc["obstacles"] = [{"center_m": [0.0, 40.0], "width_m": 6.0, "height_m": 1.0}]
    doc["safe_area"]["center_m"] = [4.0, 33.07]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4


def test_zero_heading_rate_limit_keeps_the_defenders_under_their_cap(tmp_path, bundle_doc):
    # a negative limit is refused where it is read: heading_rate's clamp
    # turns it into +|limit|, and the gains then budget an approach speed
    # above the cap; 0 is the least limit, and it stays sound
    doc = json.loads(json.dumps(bundle_doc))
    doc["control"]["heading_rate_max_radps"] = 0.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["check", "--scenario", str(path)]) == 0
    assert main(["simulate", "--scenario", str(path), "--svg", "off", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "captured-stable"
    caps = doc["defenders"]["speed_max_mps"]
    assert all(v <= cap for v, cap in zip(summary["maxima"]["defender_speed_mps"], caps, strict=True))


def test_sensing_radius_at_the_widest_band_is_clean(tmp_path, bundle_doc, reference_cfg):
    widest = max(ob.attacker_band.hi for ob in reference_cfg.obstacles)
    assert widest == 8.865393392286661
    doc = json.loads(json.dumps(bundle_doc))
    doc["attacker"]["sensing_radius_m"] = widest
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 0


def type_checking_namespace(module) -> dict:
    """The module's globals plus the names its `if TYPE_CHECKING:` blocks
    import, which exist for annotations only."""
    ns = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(body=node.body, type_ignores=[]),
                         module.__file__, "exec"), ns)
    return ns


def test_every_annotation_resolves():
    checked = 0
    for info in pkgutil.iter_modules(herdsim.__path__, "herdsim."):
        if info.name == "herdsim.__main__":   # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        ns = type_checking_namespace(module)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj, globalns=ns)
                members = [m.fget if isinstance(m, property) else m
                           for m in vars(obj).values()]
                for fn in filter(inspect.isfunction, members):
                    typing.get_type_hints(fn, globalns=ns)
                checked += 1
            elif inspect.isfunction(obj):
                typing.get_type_hints(obj, globalns=ns)
                checked += 1
    assert checked > 100


# Runs cli.main(argv) in a fresh interpreter (argv None: import only) and
# prints its exit code and whether numpy got imported, as the last line.
NUMPY_PROBE = """
import sys
from herdsim import cli
argv = {argv!r}
try:
    code = 0 if argv is None else cli.main(argv)
except SystemExit as exc:
    code = exc.code
print(code, "numpy" in sys.modules)
"""


# Worlds whose obstacles the validator samples along their shells: in
# "pair" two 2 m squares sit closer than their summed formation_reach (and
# break obstacle-spacing), in "near-safe" one lies within the safe area's
# radius plus its formation_reach and clear of it.
SAMPLED_WORLDS = {"pair": [(20.0, 20.0), (28.0, 20.0)], "near-safe": [(0.0, 49.0)]}


def write_sampled_worlds(folder):
    for name, centers in SAMPLED_WORLDS.items():
        doc = small_scenario_doc()
        doc["obstacles"] = [{"center_m": list(c), "width_m": 2.0, "height_m": 2.0}
                            for c in centers]
        cfg = environment.scenario_from_dict(doc)
        obs = cfg.obstacles
        if name == "pair":
            assert dist(obs[0].center, obs[1].center) < \
                obs[0].formation_reach + obs[1].formation_reach
        else:
            assert dist(obs[0].center, cfg.safe.center) < \
                cfg.safe.radius + obs[0].formation_reach
        (folder / f"{name}.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("argv, code, loads_numpy", [
    (None, 0, False),
    (["--version"], 0, False),
    (["check"], 0, False),
    # the bundled run is not captured within 1 s, hence exit 5
    (["simulate", "--svg", "off", "--t-max", "1", "--out", "o"], 5, False),
    (["simulate", "--t-max", "1", "--out", "o"], 5, False),
    (["check", "--scenario", "pair.json"], 4, False),
    (["simulate", "--scenario", "pair.json", "--t-max", "1", "--out", "o"], 4, False),
    (["check", "--scenario", "near-safe.json"], 0, False),
    (["simulate", "--scenario", "near-safe.json", "--t-max", "1", "--out", "o"], 5, False),
    (["sweep", "--obstacle", "0", "--out", "o"], 0, True),
], ids=["import", "version", "check", "simulate-svg-off", "simulate", "check-pair",
        "simulate-pair", "check-near-safe", "simulate-near-safe", "sweep"])
def test_numpy_is_imported_only_where_arrays_are_built(tmp_path, argv, code, loads_numpy):
    write_sampled_worlds(tmp_path)
    # a fresh interpreter: this one imported numpy long ago
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE.format(argv=argv)],
                          cwd=tmp_path, env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{code} {loads_numpy}"


def test_python_dash_m_herdsim_runs_the_cli(tmp_path):
    # the benchmark's children and the README start the program this way
    for argv, out in [(["--version"], "herdsim 0.1.0\n"), (["check"], "scenario is clean\n")]:
        proc = subprocess.run([sys.executable, "-m", "herdsim", *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(out), argv


def test_simulate_prints_the_run_notices(tmp_path, capsys, monkeypatch):
    # the re-arm world of tests/test_sim.py: its 2 m safe area fails
    # safe-radius, and the attacker leaves it twice after the arc formed
    doc = small_scenario_doc(**{"safe_area.radius_m": 2.0, "attacker.start_m": [0.0, 30.0]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "validate_scenario", lambda cfg: [])
    assert main(["simulate", "--scenario", str(path), "--svg", "off",
                 "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "safe area" in line] == [
        "warning: attacker left the safe area at t=41.990",
        "warning: attacker left the safe area at t=51.440"]


def test_check_inconsistent_reference_parameters_flagged(tmp_path, capsys):
    doc = small_scenario_doc()
    doc["obstacles"] = [{"center_m": [x, y], "width_m": w, "height_m": h}
                        for x, y, w, h in REFERENCE_OBSTACLES]
    doc["attacker"]["start_m"] = [20.0, 48.0]
    doc["safe_area"] = {"center_m": [-5.0, 60.0], "radius_m": 5.0}
    del doc["obstacle_model"]["attacker_circle_factors"]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    assert "obstacle-spacing" in capsys.readouterr().out


def test_dt_override_doubles_rows(tmp_path):
    doc = small_scenario_doc(**{"integrator.t_max_s": 1.0})
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    # neither run captures; both exhaust the 1 s budget, so exit 5
    assert main(["simulate", "--scenario", str(path), "--out", str(out1),
                 "--svg", "off"]) == 5
    assert main(["simulate", "--scenario", str(path), "--out", str(out2),
                 "--svg", "off", "--dt", "0.005"]) == 5
    rows1 = len((out1 / "trace.csv").read_text().strip().split("\n"))
    rows2 = len((out2 / "trace.csv").read_text().strip().split("\n"))
    assert rows1 == 102  # header + 101 states
    assert rows2 == 2 * rows1 - 2


@pytest.mark.parametrize("override", [
    ["--dt", "nan"], ["--t-max", "nan"], ["--t-max", "inf"], ["--dt", "-1"],
    ["--dt", "inf"], ["--dt", "0"], ["--t-max=-inf"]],
    ids=lambda o: " ".join(o))
def test_unusable_dt_or_t_max_override_exits_3(tmp_path, capsys, override):
    # refused before the run: a NaN or infinite t_max has no step count, and
    # an infinite dt would run 0 steps
    out = tmp_path / "o"
    assert main(["simulate", "--out", str(out), *override]) == 3
    assert "dt and t_max must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    ["--dt", "1e-320"], ["--dt", "1e-300"], ["--t-max", "1e300"],
    ["--dt", "0.001", "--t-max", "1000.001"]],
    ids=lambda o: " ".join(o))
def test_step_count_above_max_steps_exits_3(tmp_path, capsys, override):
    # refused before step 0: 1e-320 once overflowed round(t_max / dt), and
    # 1e-300 asked for 2e302 steps
    out = tmp_path / "o"
    assert main(["simulate", "--out", str(out), *override]) == 3
    assert "more than MAX_STEPS = 1000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt", [1e-320, 1e-300])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_scenario_step_count_above_max_steps_exits_3(tmp_path, capsys, command, dt):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_scenario_doc(**{"integrator.dt_s": dt})))
    out = tmp_path / "o"
    extra = ["--out", str(out)] if command == "simulate" else []
    assert main([command, "--scenario", str(path), *extra]) == 3
    assert "error: bad scenario: t_max / dt asks for" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_unusable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, below):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked with an unusable --out")
    monkeypatch.setattr(formation_field, "singularity_sweep", no_work)
    monkeypatch.setattr(sim, "run", no_work)
    blocker = tmp_path / "F"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    extra = ["--obstacle", "0"] if command == "sweep" else []
    assert main([command, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write to --out {out}: {blocker} is not a directory\n"


@pytest.mark.parametrize("command, name", [
    ("simulate", "trace.csv"), ("simulate", "ratios.svg"),
    ("sweep", "sweep.csv"), ("sweep", "sweep.svg")])
def test_artifact_name_taken_by_a_directory_exits_2_before_any_work(tmp_path, capsys,
                                                                     monkeypatch, command, name):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} worked with {name} taken by a directory")
    monkeypatch.setattr(formation_field, "singularity_sweep", no_work)
    monkeypatch.setattr(sim, "run", no_work)
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    extra = ["--obstacle", "0"] if command == "sweep" else []
    assert main([command, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write to --out {out}: {out / name} is not a regular file\n"


@pytest.mark.parametrize("svg", ["on", "off"])
def test_sweep_with_a_non_finite_gap_exits_1_and_writes_nothing(tmp_path, capsys,
                                                                monkeypatch, svg):
    gap_lattice = formation_field._gap_lattice

    def with_a_nan(*args):
        gap = gap_lattice(*args)
        gap[1, 1] = math.nan
        return gap
    monkeypatch.setattr(formation_field, "_gap_lattice", with_a_nan)
    out = tmp_path / "o"
    assert main(["sweep", "--obstacle", "0", "--svg", svg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: sweep gap is not finite in cell (0, 0)\n")
    assert not out.exists()


def test_svg_off_leaves_the_svg_names_unchecked(tmp_path):
    out = tmp_path / "o"
    (out / "sweep.svg").mkdir(parents=True)
    assert main(["sweep", "--obstacle", "0", "--svg", "off", "--out", str(out)]) == 0
    assert (out / "sweep.csv").is_file()


def exit_code_table() -> dict:
    """code -> meaning, from the README's "Exit codes" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    return {int(m[1]): m[2] for m in re.finditer(r"^\| (\d+) \| (.*) \|$", section, re.M)}


def test_every_error_exits_with_its_documented_code(monkeypatch, capsys):
    table = exit_code_table()
    assert sorted(table) == [0, 1, 2, 3, 4, 5, 6]
    kinds = [c for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.HerdsimError)]
    for kind in kinds:
        def raise_it(args, kind=kind):
            raise kind("raised by the command")
        monkeypatch.setattr(cli, "cmd_check", raise_it)
        assert main(["check"]) == kind.exit_code, kind.__name__
        assert capsys.readouterr().err == "error: raised by the command\n"
        assert kind.exit_code in table, kind.__name__
    codes = [k.exit_code for k in kinds]
    assert set(codes) == {1, 2, 3, 6}
    # one class per input exit code, so a caller catches each by one name
    assert (codes.count(2), codes.count(3)) == (1, 1)


def test_svg_off_suppresses_plots(tmp_path):
    doc = small_scenario_doc(**{"integrator.t_max_s": 1.0})
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    main(["simulate", "--scenario", str(path), "--out", str(out), "--svg", "off"])
    assert (out / "trace.csv").exists()
    assert not (out / "trajectories.svg").exists()


def test_sweep_bundle_passes(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--obstacle", "0", "--out", str(out)]) == 0
    assert "pass" in capsys.readouterr().out
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.svg").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["max_abs_rad"] < 3.1415926 - 0.1


def test_sweep_rejects_low_resolution(tmp_path):
    assert main(["sweep", "--obstacle", "0", "--resolution", "16",
                 "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("resolution", ["769", "20000"])
def test_sweep_rejects_resolution_above_768(tmp_path, capsys, resolution):
    # refused before any array is built; 20000 would raise MemoryError
    assert main(["sweep", "--obstacle", "0", "--resolution", resolution,
                 "--out", str(tmp_path)]) == 3
    assert "resolution must be 64 to 768" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("margin", ["-5", "3.1416", "4", "inf", "nan"])
def test_sweep_rejects_a_margin_that_certifies_nothing(tmp_path, capsys, margin):
    # a limit of pi - margin above pi, at or below 0, or NaN certifies nothing
    assert main(["sweep", "--obstacle", "0", "--margin", margin,
                 "--out", str(tmp_path)]) == 3
    assert "margin must be finite and in [0, pi)" in capsys.readouterr().err


def test_sweep_rejects_bad_index(tmp_path, capsys):
    assert main(["sweep", "--obstacle", "17", "--out", str(tmp_path)]) == 3
    assert main(["sweep", "--obstacle", "-1", "--out", str(tmp_path)]) == 3
    assert "error: obstacle index -1 out of range (scenario has 6)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bundled_scenario_path_exists():
    assert reference_scenario_path().is_file()
