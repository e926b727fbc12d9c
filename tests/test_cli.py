import json
import math
import subprocess
import sys

import pytest

from herdsim import defender_control, environment, reference_scenario_path
from herdsim.cli import main
from herdsim.geom import dist

from conftest import REFERENCE_OBSTACLES, child_env, small_scenario_doc


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


def test_missing_scenario_exit_code(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_malformed_scenario_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--scenario", str(bad)]) == 3
    bad.write_text(json.dumps({"protected_area": {}}))
    assert main(["check", "--scenario", str(bad)]) == 3


EXTRA_KEY_OBSTACLE = {"center_m": [50.0, 50.0], "width_m": 2.0, "height_m": 2.0,
                      "color": "red"}


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
], ids=["circle-factor", "speed-list-bool", "speed-list-inf", "standoff-band", "defender-start",
        "obstacle-center", "obstacle-extra-key", "formation-extra-key", "solver-section"])
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


def test_spread_below_minimum_exit_code(tmp_path, capsys):
    doc = small_scenario_doc(**{"formation.spread_rad": 0.5})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "violation: spread" in capsys.readouterr().err


def test_lone_defender_is_a_violation(tmp_path, capsys):
    doc = small_scenario_doc(**{"defenders.start_m": [[0.0, 5.0]],
                                "defenders.speed_max_mps": [2.6]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    assert "violation: defender-count" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "violation: defender-count" in capsys.readouterr().err


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


def test_check_attacker_at_rest(tmp_path, capsys):
    doc = small_scenario_doc(**{"attacker.speed_max_mps": 0})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tracking gains: approach" in out
    assert "unsolvable" not in out
    assert "arrival bound" not in out


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


def test_check_inconsistent_reference_parameters_flagged(tmp_path, capsys):
    doc = small_scenario_doc()
    doc["obstacles"] = [{"center_m": [x, y], "width_m": w, "height_m": h}
                        for x, y, w, h in REFERENCE_OBSTACLES]
    doc["attacker"]["start_m"] = [20.0, 48.0]
    doc["attacker"]["defender_standoff_band_m"] = [0.3, 0.8, 0.65]
    doc["safe_area"] = {"center_m": [-5.0, 60.0], "radius_m": 5.0}
    del doc["obstacle_model"]["attacker_circle_factors"]
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--scenario", str(path)]) == 4
    out = capsys.readouterr().out
    assert "standoff-triplet" in out
    assert "obstacle-spacing" in out


def test_dt_override_doubles_rows(tmp_path):
    doc = small_scenario_doc(**{"integrator.t_max_s": 1.0,
                                "defenders.sensing_zone_radius_m": 5.0})
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


def test_sweep_rejects_bad_index(tmp_path):
    assert main(["sweep", "--obstacle", "17", "--out", str(tmp_path)]) == 3


def test_bundled_scenario_path_exists():
    assert reference_scenario_path().is_file()
