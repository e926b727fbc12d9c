import ast
import copy
import gc
import hashlib
import inspect
import itertools
import math
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from herdsim.environment import scenario_from_dict, validate_scenario
from herdsim.errors import ConfigError
from herdsim import attacker, formation_field, sim
from herdsim.attacker import attacker_step
from herdsim.defender_control import defender_velocity, solve_tracking_gains
from herdsim.environment import safety_ratio, superelliptic_distance
from herdsim.geom import Vec2, blend_weight
from herdsim.herding import formation_goals, formation_spec
from herdsim.sim import SimState, SimTrace, build_context, run, safety_snapshot
from herdsim.svg import ratio_curves_svg, sweep_heatmap_svg, trajectory_svg

from conftest import (load_bench_workloads, random_params, random_world, small_scenario_doc,
                      written)

# sha256 of the bundled scenario's trace.csv; bench/run.py gates on the same value
GOLDEN_TRACE_SHA256 = "fb2507b0a5192badb68e321148f3ac080a3bf8be92c1a1695baa7edba68d81a4"
# sha256 of the other `simulate` artifacts of the bundled run
GOLDEN_ARTIFACT_SHA256 = {
    # re-baselined when summary.json dropped the line `"capture_held": true,`,
    # a copy of `captured` (was f6c3cf9e…422aee); nothing else moved
    "summary.json": "c9f67424fd3fc1760e05b6f761e0cf9b92c17cfb14a3a2e9ed91a03e5702dc62",
    "trajectories.svg": "a5ba9460afc7051070e64d4474c4d6fddfc3ea0bc464e403bf1de9c601119318",
    "ratios.svg": "8ec64aa710f9e86c5e87993dc4e175b24391467538b4094f2e7e281041c5a38d",
}
# sha256 of ratios.svg for runs that the bundled one does not cover
GOLDEN_RATIOS_SHA256 = {
    # the bundled world stopped at step 0 (t_max 0.004 s rounds to 0 steps)
    "step-0": "bb1a42000d43a7a71f5e67fc4080dc1682f7488d1c6e0ca8f9d31dfa6a2c7d38",
}
# sha256 of trace.csv for the bundled world from other attacker starts; each
# ends captured-stable with every ratio below 1
GOLDEN_START_TRACE_SHA256 = {
    (-30.0, 60.0): "ab5c734d73da5587fa9a7a885a2d646262260040c901be8f9fcbfe71b5df1662",
    (40.0, 60.0): "b71d2473b2495499881dd3110546d97bb69f037f6223c0804d4f76f049b953bc",
    (0.0, 20.0): "3b1afcc18f7f45fc8066a5bb3ab0522341f94f5df3bc0767faa5fdd9313a1205",
}


def test_zero_dt_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(small_scenario_doc(**{"integrator.dt_s": 0.0}))


@pytest.mark.parametrize("overrides, message", [
    ({"dt": -0.01}, "dt and t_max must be finite and positive, got dt=-0.01, t_max=60.0"),
    ({"dt": math.nan}, "dt and t_max must be finite and positive, got dt=nan, t_max=60.0"),
    ({"dt": 0.0}, "dt and t_max must be finite and positive, got dt=0.0, t_max=60.0"),
    # dt 0.01 from the scenario: twice MAX_STEPS
    ({"t_max": 20_000.0}, "t_max / dt asks for 2e+06 steps, more than MAX_STEPS = 1000000"),
], ids=["negative-dt", "nan-dt", "zero-dt", "too-many-steps"])
def test_run_overrides_pass_the_integrator_check(overrides, message):
    # run() builds the changed config through IntegratorConfig's constructor
    cfg = scenario_from_dict(small_scenario_doc())
    with pytest.raises(ConfigError) as exc:
        run(cfg, **overrides)
    assert str(exc.value) == message


def one_step(cfg):
    """run() for a single step: the trace, plus the attacker position and the
    defender positions and goals in its first and last rows."""
    trace = run(cfg, t_max=cfg.integrator.dt)

    def agents(k):
        def at(prefix):
            return Vec2(trace.column(f"{prefix}_x_m")[k], trace.column(f"{prefix}_y_m")[k])
        n = trace.defender_count
        return (at("attacker"), [at(f"d{j}") for j in range(n)],
                [at(f"d{j}_goal") for j in range(n)])

    return trace, agents(0), agents(-1)


def test_defenders_idle_outside_sensing_zone():
    doc = small_scenario_doc(**{"defenders.sensing_zone_radius_m": 5.0})
    cfg = scenario_from_dict(doc)  # attacker starts 20 m out, zone is 5 m
    trace, _, (attacker, defenders, goals) = one_step(cfg)
    starts = list(cfg.defenders.starts)
    assert defenders == starts
    assert goals == starts
    assert attacker != cfg.attacker.start
    assert trace.events["t_sense_s"] is None


def test_defenders_act_inside_sensing_zone():
    cfg = scenario_from_dict(small_scenario_doc())
    trace, _, (_, defenders, _) = one_step(cfg)
    assert trace.events["t_sense_s"] == 0.0
    assert any(d != s for d, s in zip(defenders, cfg.defenders.starts))


def test_static_world_only_time_advances():
    # a speed-zero attacker outside the sensing zone moves nothing
    doc = small_scenario_doc(**{"attacker.speed_max_mps": 0.0,
                                "defenders.sensing_zone_radius_m": 5.0})
    cfg = scenario_from_dict(doc)
    trace, before, after = one_step(cfg)
    assert after[:2] == before[:2]
    assert len(trace.rows) == 2
    assert trace.t_end == pytest.approx(cfg.integrator.dt)


def test_run_deterministic():
    cfg = scenario_from_dict(small_scenario_doc(**{"integrator.t_max_s": 8.0}))
    a = run(cfg)
    b = run(cfg)
    assert a.rows == b.rows
    assert a.to_csv() == b.to_csv()
    assert a.events == b.events


def test_run_converges_under_refinement():
    cfg = scenario_from_dict(small_scenario_doc())
    coarse = run(cfg, t_max=5.0)
    fine = run(cfg, dt=0.005, t_max=5.0)
    assert math.hypot(coarse.column("attacker_x_m")[-1] - fine.column("attacker_x_m")[-1],
                      coarse.column("attacker_y_m")[-1] - fine.column("attacker_y_m")[-1]) < 0.05
    assert len(fine.rows) == 2 * len(coarse.rows) - 1


def test_unopposed_attacker_breaches():
    # two idle defenders: the attacker breaches before it enters their 1 m
    # sensing zone, and it never comes within its 10 m sensing radius of them
    doc = small_scenario_doc(**{"defenders.start_m": [[-30.0, -30.0], [30.0, -30.0]],
                                "defenders.sensing_zone_radius_m": 1.0,
                                "attacker.start_m": [20.0, 48.0]})
    cfg = scenario_from_dict(doc)
    trace = run(cfg, t_max=80.0)
    assert trace.termination == "breached"
    assert trace.events["t_sense_s"] is None
    # straight-line run: hits the boundary of the protected disc just before
    # the center-arrival bound of 52 s
    assert 52.0 - 2.0 - 0.1 <= trace.events["t_breach_s"] <= 52.0


def test_attacker_starting_inside_safe_is_captured_once_the_arc_forms():
    # the capture clock waits for the arc: a clock started at t = 0 ended the
    # run at the 6 s dwell, with no arc formed, and the attacker was free to
    # walk out of the safe area
    doc = small_scenario_doc(**{"attacker.start_m": [0.0, 41.0]})
    cfg = scenario_from_dict(doc)
    trace = run(cfg)
    assert trace.events["t_formed_s"] == 22.75
    assert trace.events["t_capture_s"] == 37.230000000000004
    assert trace.termination == "captured-stable"
    assert trace.summary()["captured"]
    assert trace.t_end == 43.230000000000004
    assert trace.t_end - trace.events["t_capture_s"] == pytest.approx(
        cfg.capture.dwell_factor * cfg.capture.transition_time, abs=0.011)


# ROADMAP 1(g): the straight path from these starts crosses the safe area
# for longer than the dwell before any arc forms, which once passed for a
# capture (at 25.66 and 35.4 s, with no t_formed_s).  start -> (events,
# t_end, worst safety ratio to 3 places)
FORMED_CAPTURE_PINS = {
    (-10.0, 90.0): ({"t_sense_s": 10.56, "t_formed_s": 69.35000000000001,
                     "t_capture_s": 85.15, "t_breach_s": None}, 94.35000000000001, 0.706),
    (-10.0, 100.0): ({"t_sense_s": 20.5, "t_formed_s": 79.47, "t_capture_s": 95.17,
                      "t_breach_s": None}, 104.37, 0.696),
}


@pytest.mark.parametrize("start", sorted(FORMED_CAPTURE_PINS))
def test_capture_clock_waits_for_the_formed_arc(bundle_doc, start):
    events, t_end, worst = FORMED_CAPTURE_PINS[start]
    doc = copy.deepcopy(bundle_doc)
    doc["attacker"]["start_m"] = list(start)
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    trace = run(cfg)
    assert (trace.events, trace.termination, trace.t_end) == (events, "captured-stable", t_end)
    assert round(max(trace.maxima[name] for name in sim.RATIO_COLUMNS), 3) == worst


def world(seed):
    """The changes that turn the bundled document into random_world(seed)."""
    return {(section,): value for section, value in random_world(seed).items()}


def params(seed):
    """The changes that turn the bundled document into random_params(seed)."""
    return {(section,): value for section, value in random_params(seed).items()}


# Accepted scenarios that must capture with every ratio below 1.  (40, 30)
# and (40, 100) reached attacker_defender 1.0038 and 1.4818 while the
# defenders did not avoid the attacker (ROADMAP 1(a)).  The rest break a
# guarantee today, each named by its open ROADMAP item; the worlds are the
# six of the world census's 260 accepted worlds that do, and the params are
# one draw of each parameter-census class that item 1 does not mend.
# Mending one makes its test pass, which xfail_strict turns into a failure
# until the mark is removed.
@pytest.mark.parametrize("changes", [
    pytest.param({("attacker", "start_m"): [40.0, 30.0]}, id="start-40-30"),
    pytest.param({("attacker", "start_m"): [40.0, 100.0]}, id="start-40-100"),
    pytest.param({("attacker", "start_m"): [0.0, 25.0]}, id="start-0-25",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(c): attacker_obstacle ratio "
                                                "1.038 before the arc forms")),
    pytest.param({("attacker", "start_m"): [5.0, 30.0]}, id="start-5-30",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(c): attacker_obstacle ratio "
                                                "1.101 before the arc forms")),
    pytest.param(world(198), id="world-198",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(c): attacker_obstacle ratio "
                                                "2.010 before the arc forms")),
    pytest.param(world(869), id="world-869",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(c): attacker_obstacle ratio "
                                                "1.229 before the arc forms")),
    pytest.param(world(1006), id="world-1006",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(c): attacker_obstacle ratio "
                                                "1.739 before the arc forms")),
    pytest.param(world(1155), id="world-1155",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(h): attacker_obstacle ratio 1.072 "
                                                "at 76.76 s, after the arc formed at 74.95 s")),
    pytest.param(world(558), id="world-558",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(i): every ratio < 0.76, but the arc "
                                                "forms only at 187.42 s and the run ends t-max")),
    pytest.param(world(1200), id="world-1200",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(i): every ratio < 0.76, but the arc "
                                                "forms only at 183.72 s and the run ends t-max")),
    pytest.param(params(577), id="params-577",
                 marks=pytest.mark.xfail(reason="ROADMAP 4: every ratio < 0.89, but adjacent "
                                                "slots sit 0.407 m apart, below the peer band's "
                                                "hi, the arc never forms and the run ends t-max")),
    pytest.param(params(546), id="params-546",
                 marks=pytest.mark.xfail(reason="ROADMAP 9: every ratio < 0.73, but the arc "
                                                "forms only at 122.75 s and the run ends t-max")),
    pytest.param({("attacker", "speed_max_mps"): 0.5}, id="attacker-0.5",
                 marks=pytest.mark.xfail(reason="ROADMAP 1(i): every ratio < 0.75, but the arc "
                                                "never forms and the run ends t-max")),
    pytest.param({("control", "heading_rate_max_radps"): 1.75}, id="rate-1.75",
                 marks=pytest.mark.xfail(reason="ROADMAP 3: every ratio < 0.76, but the arc "
                                                "never forms and the attacker breaches at "
                                                "55.86 s")),
    pytest.param({("control", "heading_rate_max_radps"): 2.0}, id="rate-2.0",
                 marks=pytest.mark.xfail(reason="ROADMAP 3: every ratio < 0.76, but the arc "
                                                "never forms and the attacker breaches at "
                                                "55.86 s")),
])
def test_accepted_scenario_keeps_every_ratio_below_1(bundle_doc, changes):
    doc = copy.deepcopy(bundle_doc)
    for path, value in changes.items():
        record = doc[path[0]] if len(path) == 2 else doc
        record[path[-1]] = value
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    trace = run(cfg)
    assert all(trace.maxima[name] < 1.0 for name in sim.RATIO_COLUMNS)
    assert trace.termination == "captured-stable"


# the bundled world with one value changed: (section, key, value) ->
# (events, termination, t_end, steps)
RUN_RECORD_PINS = {
    # step 0 is terminal, so the attacker, inside the sensing zone, is never sensed
    "step-0": (("integrator", "t_max_s", 0.004),
               ({"t_sense_s": None, "t_formed_s": None, "t_capture_s": None,
                 "t_breach_s": None}, "t-max", 0.0, 0)),
    # capture holds one step after the entry
    "dwell-0": (("capture", "dwell_factor", 0),
                ({"t_sense_s": 0.0, "t_formed_s": 43.65, "t_capture_s": 73.66,
                  "t_breach_s": None}, "captured-stable", 73.67, 7367)),
    # starts 20 m outside the 80 m sensing zone
    "start-0-100": (("attacker", "start_m", [0.0, 100.0]),
                    ({"t_sense_s": 20.0, "t_formed_s": 80.58,
                      "t_capture_s": 89.57000000000001, "t_breach_s": None},
                     "captured-stable", 98.78, 9878)),
}


@pytest.mark.parametrize("case", sorted(RUN_RECORD_PINS))
def test_run_record_at_its_edges(bundle_doc, case):
    (section, key, value), expected = RUN_RECORD_PINS[case]
    doc = copy.deepcopy(bundle_doc)
    doc[section][key] = value
    trace = run(scenario_from_dict(doc))
    summary = trace.summary()
    assert (trace.events, trace.termination, trace.t_end, summary["steps"]) == expected
    assert list(trace.events) == ["t_sense_s", "t_formed_s", "t_capture_s", "t_breach_s"]


def snapshot(attacker, defenders, cfg):
    """safety_snapshot with each agent's obstacle list built at its position,
    keyed by its trace columns."""
    lists = [sim.obstacle_list(p, cfg, k > 0) for k, p in enumerate([attacker, *defenders])]
    return dict(zip(sim.RATIO_COLUMNS, safety_snapshot(attacker, defenders, cfg, lists)))


def test_snapshot_far_from_everything(reference_cfg):
    snap = snapshot(Vec2(500.0, 500.0),
                    [Vec2(400.0, 400.0), Vec2(430.0, 400.0)], reference_cfg)
    assert snap["ratio_attacker_obstacle"] < 0.01
    assert snap["ratio_defender_obstacle"] < 0.01
    assert snap["ratio_attacker_defender"] < 0.01
    assert snap["ratio_defender_defender"] < 0.01


def test_snapshot_boundary_and_violation(reference_cfg):
    peer_min = reference_cfg.defenders.peer_band.lo
    snap = snapshot(Vec2(500.0, 500.0),
                    [Vec2(400.0, 400.0), Vec2(400.0 + peer_min, 400.0)], reference_cfg)
    assert snap["ratio_defender_defender"] == pytest.approx(1.0)
    # a defender inside an obstacle's base contour has nonpositive level
    inside = reference_cfg.obstacles[0].center
    snap = snapshot(Vec2(500.0, 500.0), [inside, Vec2(400.0, 400.0)], reference_cfg)
    assert snap["ratio_defender_obstacle"] == math.inf


def agent_ratio_mismatches(trace, cfg):
    """Rows whose agent-agent ratios differ from the ratios recomputed from
    that row's own positions: safety_ratio(lo, min pairwise hypot)."""
    n = trace.defender_count
    ax, ay = trace.column("attacker_x_m"), trace.column("attacker_y_m")
    xs = [trace.column(f"d{j}_x_m") for j in range(n)]
    ys = [trace.column(f"d{j}_y_m") for j in range(n)]
    r_dd = trace.column("ratio_defender_defender")
    r_ad = trace.column("ratio_attacker_defender")
    bad = []
    for i in range(len(ax)):
        ps = [(x[i], y[i]) for x, y in zip(xs, ys)]
        peer = min((math.hypot(p[0] - q[0], p[1] - q[1])
                    for p, q in itertools.combinations(ps, 2)), default=math.inf)
        threat = min((math.hypot(ax[i] - x, ay[i] - y) for x, y in ps), default=math.inf)
        if (r_dd[i], r_ad[i]) != (safety_ratio(cfg.defenders.peer_band.lo, peer),
                                  safety_ratio(cfg.attacker.standoff_band.lo, threat)):
            bad.append(i)
    return bad


def test_agent_ratios_are_the_snapshots_own_measurement(reference_cfg, reference_run, bundle_doc):
    """Every row's agent-agent ratios are the snapshot's own measurement at
    that row's positions, on planning steps as on the others.  The second
    run starts 20 m outside the sensing zone, so its first 2,000 rows and
    its terminal row are not planning steps."""
    trace, _ = reference_run
    assert agent_ratio_mismatches(trace, reference_cfg) == []
    doc = copy.deepcopy(bundle_doc)
    doc["attacker"]["start_m"] = [0.0, 100.0]
    cfg = scenario_from_dict(doc)
    trace = run(cfg)
    assert trace.events["t_sense_s"] == 20.0
    assert agent_ratio_mismatches(trace, cfg) == []


def test_maxima_include_the_first_row():
    # the attacker starts 1 m from an idle defender and moves away from it,
    # so the attacker/defender ratio and the attacker speed peak in row 0
    doc = small_scenario_doc(**{"attacker.start_m": [0.0, 8.0],
                                "defenders.sensing_zone_radius_m": 5.0})
    cfg = scenario_from_dict(doc)
    trace = run(cfg, t_max=cfg.integrator.dt)
    assert trace.maxima["ratio_attacker_defender"] == cfg.attacker.standoff_band.lo / 1.0
    assert trace.maxima["attacker_speed_mps"] == pytest.approx(cfg.attacker.speed_max)
    assert trace.maxima["defender_speed_mps"] == [0.0, 0.0, 0.0]


def test_reference_run_events_ordered(reference_run):
    trace, _ = reference_run
    ev = trace.events
    assert ev["t_sense_s"] is not None
    assert ev["t_formed_s"] is not None
    assert ev["t_capture_s"] is not None
    assert ev["t_sense_s"] <= ev["t_formed_s"] <= ev["t_capture_s"]
    assert ev["t_breach_s"] is None


def test_reference_run_speed_bounds_every_step(reference_cfg, reference_run):
    trace, _ = reference_run
    limits = {"attacker": reference_cfg.attacker.speed_max}
    limits.update((f"d{j}", vmax) for j, vmax in enumerate(reference_cfg.defenders.speed_max))
    for agent, vmax in limits.items():
        speeds = map(math.hypot, trace.column(f"{agent}_vx_mps"), trace.column(f"{agent}_vy_mps"))
        assert all(speed <= vmax + 1e-12 for speed in speeds)
        # so no step moves the agent farther than vmax * dt
        x, y = trace.column(f"{agent}_x_m"), trace.column(f"{agent}_y_m")
        moved = map(math.hypot, map(float.__sub__, x[1:], x), map(float.__sub__, y[1:], y))
        assert all(d <= vmax * trace.dt + 1e-12 for d in moved)


def test_reference_run_time_monotone(reference_run):
    trace, _ = reference_run
    ts = trace.column("t_s")
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_csv_round_trip_shape(reference_run):
    trace, _ = reference_run
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == len(trace.rows) + 1
    assert len(lines[0].split(",")) == len(trace.columns)
    assert len(lines[1].split(",")) == len(trace.columns)


def test_trace_views_agree(reference_run):
    """column() and rows are two views of the one sample array."""
    trace, _ = reference_run
    rows = trace.rows
    assert rows is not trace.rows and rows == trace.rows
    assert len(rows) == trace.summary()["steps"] + 1 == 8287
    assert trace.t_end == rows[-1][0]
    for k, name in enumerate(trace.columns):
        column = trace.column(name)
        assert isinstance(column, array) and column.typecode == "d"
        assert list(column) == [row[k] for row in rows]


def test_trace_row_retains_at_most_300_bytes(reference_cfg):
    """A row of the bundled run's 29 samples takes 232 B as doubles; a tuple
    of floats per row retained 976 B."""
    run(reference_cfg, t_max=1.0)   # lazy set-up is not the trace's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(reference_cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.columns) == 29
    assert retained / (trace.summary()["steps"] + 1) <= 300


def test_step_builds_fewer_than_8_vec2s(reference_cfg, monkeypatch):
    """Counted, not timed: a step of the bundled run builds 7.0 Vec2s on
    average, its 4 new positions and 3 goals; every velocity and field is an
    (x, y) pair.  It built 19.0 while those were records too, and 21.0 while
    combined_field normalized its attraction through two throwaway records."""
    run(reference_cfg, t_max=1.0)   # lazy set-up is not the step's
    built = 0
    init = Vec2.__init__

    def counting_init(self, x, y):
        nonlocal built
        built += 1
        init(self, x, y)

    monkeypatch.setattr(Vec2, "__init__", counting_init)
    trace = run(reference_cfg)
    assert built / (trace.summary()["steps"] + 1) < 8


def test_gains_are_solved_once_per_distinct_speed(monkeypatch):
    cfg = scenario_from_dict(small_scenario_doc(**{"defenders.speed_max_mps": [2.6, 3.1, 2.6]}))
    solved = []

    def counting(exponent, vmax, *rest):
        solved.append(vmax)
        return solve_tracking_gains(exponent, vmax, *rest)
    monkeypatch.setattr(sim, "solve_tracking_gains", counting)
    gains = build_context(cfg).gains
    assert solved == [2.6, 3.1]
    assert gains == tuple(
        solve_tracking_gains(cfg.control.terminal_exponent, vmax, cfg.attacker.speed_max,
                             cfg.formation.arc_radius, cfg.control.heading_rate_max)
        for vmax in (2.6, 3.1, 2.6))


@pytest.mark.parametrize("conflict", [False, True])
def test_a_vec2_argument_gives_what_the_equal_pair_gives(conflict):
    """The step hands its velocities and fields on as (x, y) pairs; a Vec2 in
    their place unpacks to the same floats, so every result is bit for bit
    the same, and a velocity comes back as a pair either way."""
    gains = solve_tracking_gains(0.5, 2.6, 1.0, 0.55, 0.3)
    goal = Vec2(0.3, -0.7)
    for p, gv, field in [(Vec2(1.9, 2.3), (0.4, -0.2), (-0.6, 0.1)),      # tanh regime
                         (Vec2(0.31, -0.69), (-0.3, 0.25), (0.2, -0.9)),  # power law
                         (goal, (0.4, -0.2), (1.0, 0.0)),                 # on the goal
                         (Vec2(1.0, 0.0), (0.4, -0.2), (0.0, 0.0))]:      # a hold
        as_pairs = defender_velocity(p, goal, gv, field, conflict, gains)
        as_records = defender_velocity(p, goal, Vec2(*gv), Vec2(*field), conflict, gains)
        assert as_pairs is None or type(as_pairs) is tuple
        assert repr(as_records) == repr(as_pairs)
    for field in [(0.3, -0.9), (1e-7, 0.0), (-0.0, 0.0)]:
        assert (repr(attacker_step(1.0, Vec2(*field), 0.05))
                == repr(attacker_step(1.0, field, 0.05)))
    spec = formation_spec(3, 2.0, 0.55, 0.3, 0.25)
    vel = (0.37, -1.1)
    assert (repr(formation_goals(goal, Vec2(*vel), 0.8, 0.3, spec))
            == repr(formation_goals(goal, vel, 0.8, 0.3, spec)))


def test_lone_defender_rejected():
    doc = small_scenario_doc()
    doc["defenders"]["start_m"] = [[0.0, 5.0]]
    doc["defenders"]["speed_max_mps"] = [2.6]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def assert_moves_only_through_velocity(trace):
    """No hidden state: each agent's next position is exactly its position
    plus its logged velocity times dt, in every row."""
    dt = trace.dt
    for agent in ["attacker"] + [f"d{j}" for j in range(trace.defender_count)]:
        for axis in "xy":
            pos = trace.column(f"{agent}_{axis}_m")
            vel = trace.column(f"{agent}_v{axis}_mps")
            moved = array("d", map(lambda p, v: p + v * dt, pos[:-1], vel))
            assert pos[1:] == moved, (
                f"{agent}_{axis}: {sum(a != b for a, b in zip(pos[1:], moved))} steps off")


def test_positions_move_only_through_velocity(reference_run):
    assert_moves_only_through_velocity(reference_run[0])


def test_attacker_at_an_inexact_speed_moves_only_through_velocity(bundle_doc):
    # 0.7 m/s is not a power of two, so (speed * dt) * cos(h) rounds
    # differently from the logged velocity speed * cos(h) times dt
    doc = copy.deepcopy(bundle_doc)
    doc["attacker"]["speed_max_mps"] = 0.7
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    trace = run(cfg)
    assert (trace.termination, trace.events["t_formed_s"]) == ("captured-stable", 38.65)
    assert_moves_only_through_velocity(trace)


def test_desired_heading_mostly_continuous(reference_run):
    # smooth within phases; isolated jumps (watershed, capture ramp joins)
    # are expected but must stay rare
    trace, _ = reference_run
    headings = trace.column("heading_desired_rad")
    jumps = sum(1 for a, b in zip(headings, headings[1:])
                if abs(math.remainder(b - a, 2.0 * math.pi)) > 0.5)
    assert jumps < 0.01 * len(headings)


def test_state_starts_still_at_the_scenario_starts(reference_cfg):
    state = SimState(reference_cfg)
    assert (state.t, state.attacker, state.heading, state.attacker_velocity) == (
        0.0, reference_cfg.attacker.start, 0.0, (0.0, 0.0))
    assert state.positions == list(reference_cfg.defenders.starts)
    # the goals are the positions list itself, as on a hold step
    assert state.goals is state.positions
    assert state.velocities == [(0.0, 0.0)] * reference_cfg.defenders.count
    assert (state.desired, state.command, state.t_capture) == (0.0, None, None)


@pytest.mark.parametrize("n", [0, 2, 3])
def test_trace_columns_follow_the_defender_count(n):
    defender_columns = tuple(f"d{j}_{name}" for j in range(n)
                             for name in ("x_m", "y_m", "vx_mps", "vy_mps",
                                          "goal_x_m", "goal_y_m"))
    assert SimTrace(0.01, n).columns == (
        "t_s", "attacker_x_m", "attacker_y_m", "attacker_vx_mps", "attacker_vy_mps",
        "heading_desired_rad", "heading_cmd_rad", *defender_columns,
        "ratio_attacker_obstacle", "ratio_defender_obstacle", "ratio_defender_defender",
        "ratio_attacker_defender")


NON_FINITE = (math.nan, math.inf, -math.inf)


def with_coordinate(v, axis, value):
    """v with its x (axis 0) or y (axis 1) replaced by value."""
    return Vec2(value, v.y) if axis == 0 else Vec2(v.x, value)


def test_non_finite_state_raises():
    """A nan, +inf or -inf in either coordinate of the attacker's velocity
    makes a non-finite position, and each raises."""
    from herdsim.errors import IntegrityError
    from herdsim.sim import apply_commands
    cfg = scenario_from_dict(small_scenario_doc())
    for axis, value in itertools.product((0, 1), NON_FINITE):
        state = SimState(cfg)
        state.attacker_velocity = with_coordinate(Vec2(0.5, -0.25), axis, value)
        with pytest.raises(IntegrityError) as exc:
            apply_commands(state, cfg.integrator.dt)
        assert "t=" in str(exc.value), (axis, value)
        assert exc.value.dump["defenders"] == [tuple(p) for p in cfg.defenders.starts]


@pytest.mark.parametrize("bad", [0, -1])
def test_non_finite_defender_raises_and_dumps_positions(bad):
    """The first or last defender with a nan, +inf or -inf in either
    coordinate of its velocity raises, and the dump holds every position."""
    from herdsim.errors import IntegrityError
    from herdsim.sim import apply_commands
    cfg = scenario_from_dict(small_scenario_doc())
    dt = cfg.integrator.dt
    for axis, value in itertools.product((0, 1), NON_FINITE):
        state = SimState(cfg)
        velocities = [Vec2(0.5 * j, -0.25 * j) for j in range(cfg.defenders.count)]
        velocities[bad] = with_coordinate(Vec2(1.0, 1.0), axis, value)
        state.velocities = velocities
        with pytest.raises(IntegrityError) as exc:
            apply_commands(state, dt)
        dumped = [(p.x + v.x * dt, p.y + v.y * dt)
                  for p, v in zip(cfg.defenders.starts, velocities)]
        # nan never equals itself, so compare the reprs
        assert repr(exc.value.dump["defenders"]) == repr(dumped), (axis, value)
        assert exc.value.dump["attacker"] == tuple(cfg.attacker.start)


@pytest.mark.parametrize("agent", ["attacker", 0, -1], ids=["attacker", "first", "last"])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_step_that_overflows_raises(agent, axis):
    """Finite positions and velocities whose p + v * dt overflows raise."""
    from herdsim.errors import IntegrityError
    from herdsim.sim import apply_commands
    cfg = scenario_from_dict(small_scenario_doc())
    state = SimState(cfg)
    edge = with_coordinate(Vec2(0.0, 0.0), axis, -sys.float_info.max)
    push = with_coordinate(Vec2(0.0, 0.0), axis, -1e306)
    if agent == "attacker":
        state.attacker, state.attacker_velocity = edge, push
    else:
        positions, velocities = list(state.positions), list(state.velocities)
        positions[agent], velocities[agent] = edge, push
        state.positions, state.velocities = positions, velocities
    with pytest.raises(IntegrityError):
        apply_commands(state, cfg.integrator.dt)


def test_large_finite_state_does_not_raise():
    """Coordinates about 1e300 m, of either sign, are finite and move; so
    does an attacker at 1.5e308 m on both axes, whose coordinates' sum
    overflows."""
    from herdsim.sim import apply_commands
    cfg = scenario_from_dict(small_scenario_doc())
    dt = cfg.integrator.dt
    state = SimState(cfg)
    state.attacker, state.attacker_velocity = Vec2(1.5e308, 1.5e308), Vec2(-3e301, 1e302)
    n = cfg.defenders.count
    state.positions = [Vec2(-1e300 * (j + 1), 1e300) for j in range(n)]
    state.velocities = [Vec2(1e302, -1e302 * (j + 1)) for j in range(n)]
    before = [state.attacker, *state.positions]
    moves = [state.attacker_velocity, *state.velocities]
    apply_commands(state, dt)
    assert [state.attacker, *state.positions] == [
        Vec2(p.x + v.x * dt, p.y + v.y * dt) for p, v in zip(before, moves)]


def test_bench_gates_on_the_same_golden_trace():
    # bench/run.py keeps its own copy of the pin; read it without importing bench
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    pins = [ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "GOLDEN_TRACE_SHA256"
                    for target in node.targets)]
    assert pins == [GOLDEN_TRACE_SHA256]


def test_reference_trace_matches_golden_hash(cli_artifacts):
    trace_csv = cli_artifacts["first"]["trace.csv"]
    assert hashlib.sha256(trace_csv).hexdigest() == GOLDEN_TRACE_SHA256


@pytest.mark.parametrize("name", sorted(GOLDEN_ARTIFACT_SHA256))
def test_reference_artifacts_match_golden_hash(cli_artifacts, name):
    digest = hashlib.sha256(cli_artifacts["first"][name]).hexdigest()
    assert digest == GOLDEN_ARTIFACT_SHA256[name]


@pytest.mark.parametrize("case", sorted(GOLDEN_RATIOS_SHA256))
def test_ratios_svg_matches_golden_hash(case, reference_cfg):
    trace = run(reference_cfg, t_max=0.004)
    digest = hashlib.sha256(written(ratio_curves_svg, trace).encode()).hexdigest()
    assert digest == GOLDEN_RATIOS_SHA256[case]


@pytest.mark.parametrize("start", sorted(GOLDEN_START_TRACE_SHA256))
def test_other_start_traces_match_golden_hash(bundle_doc, start):
    doc = copy.deepcopy(bundle_doc)
    doc["attacker"]["start_m"] = list(start)
    trace = run(scenario_from_dict(doc))
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == \
        GOLDEN_START_TRACE_SHA256[start]


def test_streamed_trace_csv_equals_to_csv(cli_artifacts, reference_run):
    # `simulate` streams trace.csv into the file row by row
    trace, _ = reference_run
    assert cli_artifacts["first"]["trace.csv"] == trace.to_csv().encode()


def test_streamed_svgs_equal_the_returned_strings(cli_artifacts, reference_run,
                                                  reference_cfg):
    # `simulate` streams both SVGs into their files element by element; the
    # same writers give the same documents in process
    trace, _ = reference_run
    files = cli_artifacts["first"]
    assert files["trajectories.svg"] == written(trajectory_svg, trace, reference_cfg).encode()
    assert files["ratios.svg"] == written(ratio_curves_svg, trace).encode()


def test_writers_take_the_stream_they_write_to():
    # SimTrace.to_csv alone also returns its document: the benchmark hashes it
    for writer in (trajectory_svg, ratio_curves_svg, sweep_heatmap_svg,
                   formation_field.SweepReport.to_csv):
        assert inspect.signature(writer).parameters["out"].default is inspect.Parameter.empty
    assert inspect.signature(SimTrace.to_csv).parameters["out"].default is None


def test_capture_re_arms_after_the_attacker_leaves_the_safe_area(bundle_doc):
    # On the small world from (0, 30) with a 2 m safe area (below the
    # safe-radius rule) the formed arc lets the attacker out at 41.99 and
    # 51.44 s.  Each exit stops the capture clock and the next entry
    # restarts it; a capture that latched on the first exit would have ended
    # the run there.
    cfg = scenario_from_dict(small_scenario_doc(**{"safe_area.radius_m": 2.0,
                                                   "attacker.start_m": [0.0, 30.0]}))
    trace = run(cfg)
    assert [(round(t, 2), text) for t, text in trace.notices] == [
        (41.99, "attacker left the safe area"), (51.44, "attacker left the safe area")]
    assert trace.events["t_formed_s"] < 41.99
    assert trace.events["t_capture_s"] == 59.89
    assert trace.termination == "t-max"
    # (-10, 60) lies on the safe area's rim and the attacker leaves at
    # 1.65 s, before the arc forms, so that stay starts no clock at all
    doc = copy.deepcopy(bundle_doc)
    doc["attacker"]["start_m"] = [-10.0, 60.0]
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    trace = run(cfg)
    inside = [cfg.safe.contains(Vec2(x, y)) for x, y in
              zip(trace.column("attacker_x_m"), trace.column("attacker_y_m"))]
    assert inside[0] and not all(inside)
    assert trace.termination == "captured-stable"
    assert trace.events["t_capture_s"] > 1.65
    assert trace.summary()["captured"]
    assert all(trace.maxima[name] < 1.0 for name in sim.RATIO_COLUMNS)


def test_one_obstacle_push_per_step(reference_cfg, monkeypatch):
    # the arc command and the attacker field share one push per step
    original = attacker.obstacle_push
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("herdsim") and getattr(module, "obstacle_push", None) is original:
            monkeypatch.setattr(module, "obstacle_push", counted)
    trace = run(reference_cfg, t_max=1.0)
    assert trace.events["t_sense_s"] == 0.0   # every step plans
    assert len(calls) == len(trace.rows) - 1  # the last row is terminal


def test_degenerate_field_holds_the_defender_for_one_step(reference_cfg, monkeypatch):
    # defender 1's field vanishes at its 51st planning step (t = 0.5 s)
    original = sim.defender_field
    calls = itertools.count()

    def vanishing(index, *args):
        f, conflict = original(index, *args)
        if index == 1 and next(calls) == 50:
            f = Vec2(0.0, 0.0)
        return f, conflict

    monkeypatch.setattr(sim, "defender_field", vanishing)
    trace = run(reference_cfg, t_max=1.0)
    assert trace.events["t_sense_s"] == 0.0   # every step plans
    speed = trace.speed("d1")
    # the last row is terminal, where every agent stands still
    assert [i for i, v in enumerate(speed[:-1]) if v == 0.0] == [50]
    assert trace.notices == [(0.5, "defender 1 held on a degenerate field")]


def test_far_inert_obstacles_leave_run_unchanged(bundle_doc, reference_run):
    """Obstacles whose shells, attacker circles and sensing range stay far
    from every agent must not change a single trace value."""
    doc = copy.deepcopy(bundle_doc)
    # the reference agents stay inside [-50, 80] x [-50, 120]; a 150 m ring
    # around the box center keeps every added obstacle 40 m or more outside
    for k in range(12):
        theta = 2.0 * math.pi * k / 12
        doc["obstacles"].append({
            "center_m": [15.0 + 150.0 * math.cos(theta), 35.0 + 150.0 * math.sin(theta)],
            "width_m": 2.0 + 0.25 * (k % 5), "height_m": 3.5 - 0.25 * (k % 4)})
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    assert run(cfg).rows == reference_run[0].rows


@pytest.mark.parametrize("skin", [1e-3, 1e9])
def test_obstacle_list_skin_leaves_run_unchanged(monkeypatch, reference_cfg,
                                                 reference_run, skin):
    # 1 mm rebuilds the lists almost every step; 1e9 m lists every obstacle
    # once and never rebuilds
    monkeypatch.setattr(sim, "SKIN_M", skin)
    assert run(reference_cfg).rows == reference_run[0].rows


def test_obstacle_reached_midway_enters_lists(monkeypatch):
    """An obstacle out of every agent's list at the start acts on the
    attacker later; the rebuild that brings it in changes no trace value."""
    doc = small_scenario_doc()
    doc["obstacles"] = [{"center_m": [4.0, 30.0], "width_m": 2.0, "height_m": 2.0}]
    cfg = scenario_from_dict(doc)
    ob = cfg.obstacles[0]
    starts = [cfg.attacker.start, *cfg.defenders.starts]
    assert all(not sim.obstacle_list(p, cfg, k > 0).near for k, p in enumerate(starts))
    trace = run(cfg)
    reach = min(cfg.attacker.sensing_radius, ob.attacker_band.hi)
    assert any(math.hypot(x - ob.center.x, y - ob.center.y) < reach
               for x, y in zip(trace.column("attacker_x_m"), trace.column("attacker_y_m")))
    assert trace.rows != run(scenario_from_dict(small_scenario_doc())).rows
    monkeypatch.setattr(sim, "SKIN_M", 1e9)
    assert run(cfg).rows == trace.rows


def test_guidance_list_leaves_run_unchanged(monkeypatch):
    """An obstacle whose center lies just outside the 50 m sensing zone, but
    whose formation shell reaches into it, steers the guidance field; two
    far ones stay off the list.  The attacker senses obstacles only within
    3 m (validate_scenario flags that), so it cuts through the shell."""
    doc = small_scenario_doc(**{"defenders.sensing_zone_radius_m": 50.0,
                                "attacker.start_m": [0.0, 58.0],
                                "attacker.sensing_radius_m": 3.0,
                                "defenders.start_m": [[-4.0, 40.0], [0.0, 39.0], [4.0, 40.0]]})
    doc["obstacles"] = [{"center_m": [3.0, 50.5], "width_m": 2.0, "height_m": 2.0},
                        {"center_m": [0.0, 75.0], "width_m": 2.0, "height_m": 2.0},
                        {"center_m": [60.0, 0.0], "width_m": 3.0, "height_m": 2.0}]
    cfg = scenario_from_dict(doc)
    ob = cfg.obstacles[0]
    assert math.hypot(*ob.center) > 50.0
    assert build_context(cfg).guidance == (ob,)
    trace = run(cfg)
    assert any(math.hypot(x, y) <= 50.0 and blend_weight(
        superelliptic_distance(Vec2(x, y), ob), ob.formation_band) > 0.0
        for x, y in zip(trace.column("attacker_x_m"), trace.column("attacker_y_m")))

    original = sim.build_context

    def forced(guidance):
        monkeypatch.setattr(sim, "build_context",
                            lambda cfg: original(cfg)._replace(guidance=guidance))
        return run(cfg).rows

    assert forced(cfg.obstacles) == trace.rows
    assert forced(()) != trace.rows


@pytest.mark.parametrize("seed, listed", [(1, 10), (2, 9)])
def test_cluttered_world_scans_only_the_guidance_list(monkeypatch, seed, listed):
    """The benchmark's cluttered world adds 42 inert obstacles to the bundled
    one: the trace is the golden one, and the guidance field evaluates one
    level per listed obstacle per planning step."""
    cfg = scenario_from_dict(load_bench_workloads().cluttered_doc(seed))
    guidance = build_context(cfg).guidance
    assert len(cfg.obstacles) == 48 and len(guidance) == listed

    counts = {"fields": 0, "levels": 0}
    in_field = [False]
    original_field = sim.combined_field
    original_level = formation_field.superelliptic_distance

    def field(*args):
        counts["fields"] += 1
        in_field[0] = True
        try:
            return original_field(*args)
        finally:
            in_field[0] = False

    def level(*args):
        counts["levels"] += in_field[0]
        return original_level(*args)

    monkeypatch.setattr(sim, "combined_field", field)
    monkeypatch.setattr(formation_field, "superelliptic_distance", level)
    trace = run(cfg)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == GOLDEN_TRACE_SHA256
    assert counts["fields"] > 0
    assert counts["levels"] == listed * counts["fields"]
