"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from herdsim.defender_control import (convergence_bounds, defender_velocity,
                                      solve_tracking_gains, terminal_phase_time)
from herdsim.environment import superelliptic_distance
from herdsim.formation_field import follow_field, singularity_sweep
from herdsim.geom import BlendTriplet, Vec2, blend_weight, unit_xy, wrap_angle
from herdsim.herding import formation_goals, formation_spec, solve_command_heading
from herdsim.attacker import attacker_field, obstacle_push


def report(criterion: str, ok: bool, detail: str):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_reference_run_captures(cli_artifacts, reference_run):
    trace, wall = reference_run
    summary = json.loads(cli_artifacts["first"]["summary.json"])
    ok = (cli_artifacts["exit1"] == 0
          and summary["captured"]
          and summary["termination"] == "captured-stable"
          and trace.events["t_capture_s"] is not None
          and wall < 10.0 and cli_artifacts["wall"] < 10.0)
    report("C1", ok,
           f"capture at t={trace.events['t_capture_s']} s, dwell held, "
           f"run {wall:.2f} s / cli {cli_artifacts['wall']:.2f} s (< 10 s)")


def test_c02_safety_throughout(reference_cfg, reference_run):
    trace, _ = reference_run
    m = trace.maxima
    ratios = {k: m[k] for k in ("ratio_attacker_obstacle", "ratio_defender_obstacle",
                                "ratio_defender_defender", "ratio_attacker_defender")}
    speeds_ok = all(
        speed <= vmax + 1e-12
        for j, vmax in enumerate(reference_cfg.defenders.speed_max)
        for speed in map(math.hypot, trace.column(f"d{j}_vx_mps"), trace.column(f"d{j}_vy_mps")))
    ok = all(v < 1.0 for v in ratios.values()) and speeds_ok
    report("C2", ok,
           "max ratios " + ", ".join(f"{k.split('_', 1)[1]}={v:.3f}"
                                     for k, v in ratios.items())
           + f"; defender speeds within limits: {speeds_ok}")


def test_c03_nonsingularity_sweeps(reference_cfg):
    worst = 0.0
    slowest = 0.0
    for ob in reference_cfg.obstacles:
        t0 = time.perf_counter()
        rep = singularity_sweep(ob, resolution=128, margin=0.1)
        elapsed = time.perf_counter() - t0
        worst = max(worst, rep.max_abs)
        slowest = max(slowest, elapsed)
        if not rep.passed or elapsed >= 5.0:
            report("C3", False,
                   f"obstacle {ob.width}x{ob.height}: max|gap|={rep.max_abs:.4f}, "
                   f"{elapsed:.2f} s")
    report("C3", worst < math.pi - 0.1 and slowest < 5.0,
           f"six 128x128 sweeps: worst |gap| {worst:.4f} < {math.pi - 0.1:.4f} rad, "
           f"slowest {slowest:.2f} s < 5 s")


def test_c04_blend_ramp_c1():
    rng = np.random.default_rng(40)
    h = 1e-8
    worst = 0.0
    for _ in range(100):
        lo = rng.uniform(0.0, 5.0)
        mid = lo + rng.uniform(0.2, 3.0)
        hi = mid + rng.uniform(0.2, 3.0)
        band = BlendTriplet(lo, mid, hi)
        for x in (mid, hi):
            left = (blend_weight(x, band) - blend_weight(x - h, band)) / h
            right = (blend_weight(x + h, band) - blend_weight(x, band)) / h
            worst = max(worst, abs(left - right))
    report("C4", worst < 1e-6,
           f"100 random bands: worst one-sided derivative mismatch {worst:.2e} < 1e-6")


def test_c05_corner_identity_and_exponent_relations(derivation):
    from herdsim.environment import ObstacleDerivation, derive_obstacle
    rng = np.random.default_rng(50)
    worst_corner = 0.0
    worst_rel = 0.0
    for _ in range(100):
        w, h = rng.uniform(1.0, 8.0, size=2)
        pad = rng.uniform(0.2, 1.2)
        params = ObstacleDerivation(formation_pad=pad + 0.0,
                                    defender_pad=0.05 * pad + 0.05 * pad,
                                    attacker_mid_factor=1.15, attacker_hi_factor=1.3)
        ob = derive_obstacle(Vec2(*rng.uniform(-20.0, 20.0, size=2)), w, h, params)
        corner = Vec2(ob.center.x + ob.formation_width / 2.0,
                      ob.center.y + ob.formation_height / 2.0)
        worst_corner = max(worst_corner,
                           abs(superelliptic_distance(corner, ob) - ob.formation_band.lo))
        n, lvl = ob.exponent, ob.formation_band.lo
        rw = ob.formation_width / w
        rh = ob.formation_height / h
        worst_rel = max(worst_rel,
                        abs(n - 1.0 / (1.0 - math.exp(-lvl))),
                        abs(0.5 * (rw ** (2 * n) + rh ** (2 * n)) - 1.0 - lvl))
    ok = worst_corner < 1e-9 and worst_rel < 1e-9
    report("C5", ok,
           f"100 random obstacles: corner identity off by {worst_corner:.2e}, "
           f"worst defining-relation residual {worst_rel:.2e} (< 1e-9)")


def test_c06_command_heading_correctness(derivation):
    from herdsim.environment import derive_obstacle
    rng = np.random.default_rng(60)
    standoff = BlendTriplet(0.3, 0.8, 0.9)
    ob = derive_obstacle(Vec2(0.0, 0.0), 3.0, 3.0, derivation)
    specs = [formation_spec(2, 1.0, 0.55, 0.3, 0.25),
             formation_spec(3, 2.0, 0.55, 0.3, 0.25),
             formation_spec(5, 2.8, 0.55, 0.3, 0.1),
             formation_spec(8, 4.4, 0.55, 0.3, 0.1)]
    worst_residual = 0.0
    worst_align = 0.0
    for k in range(1000):
        spec = specs[k % len(specs)]
        desired = rng.uniform(-math.pi, math.pi)
        bearing = rng.uniform(-math.pi, math.pi)
        d = rng.uniform(ob.attacker_band.lo, ob.attacker_band.hi * 0.999)
        resultant = blend_weight(d, ob.attacker_band)
        command = solve_command_heading(desired, resultant, bearing,
                                        spec.arc_magnitude)
        worst_residual = max(worst_residual,
                             abs(spec.arc_magnitude * math.sin(command - desired)
                                 - resultant * math.sin(desired - bearing)))
        # repulsion from the obstacle points along `bearing` when the attacker
        # sits at that bearing from the obstacle center
        r_a = Vec2(ob.center.x + d * math.cos(bearing),
                   ob.center.y + d * math.sin(bearing))
        defenders, _ = formation_goals(r_a, Vec2(0.0, 0.0), command, 0.0, spec)
        fx, fy = attacker_field(r_a, defenders, obstacle_push(r_a, [ob], 1e6),
                                Vec2(800.0, 0.0), 1e6, standoff)
        worst_align = max(worst_align, abs(wrap_angle(math.atan2(fy, fx) - desired)))
    ok = worst_residual < 1e-9 and worst_align < 1e-6
    report("C6", ok,
           f"1000 tuples: worst alignment-equation residual {worst_residual:.2e} "
           f"(< 1e-9), worst field misalignment {worst_align:.2e} rad (< 1e-6)")


def test_c07_finite_time_tracking():
    gains = solve_tracking_gains(0.5, 2.6, 1.0, 0.55, 0.3)
    e0 = 2.0
    dt = 1e-4
    # t_reach is sampled on the dt grid, so it may land one step past the bound
    reach_bound = convergence_bounds(e0, gains) + dt
    total_bound = (reach_bound + terminal_phase_time(gains, gains.handoff_error)) * 1.02

    goal = Vec2(0.0, 0.0)
    p = Vec2(e0, 0.0)
    t = 0.0
    t_reach = None
    t_zero = None
    while t < total_bound + 1.0:
        err = math.hypot(p.x, p.y)
        if t_reach is None and err <= gains.handoff_error:
            t_reach = t
        if err < 1e-6:
            t_zero = t
            break
        field = unit_xy(goal.x - p.x, goal.y - p.y)
        vx, vy = defender_velocity(p, goal, (0.0, 0.0), field, False, gains)
        p = Vec2(p.x + vx * dt, p.y + vy * dt)
        t += dt
    ok = (t_reach is not None and t_reach <= reach_bound
          and t_zero is not None and t_zero <= total_bound)
    report("C7", ok,
           f"handoff reached at {t_reach:.3f} s (bound {reach_bound:.3f}), "
           f"error < 1e-6 at {t_zero:.3f} s (bound {total_bound:.3f})")


def test_c08_controller_continuity():
    gains = solve_tracking_gains(0.5, 2.6, 1.0, 0.55, 0.3)
    e = gains.handoff_error
    far_speed = gains.approach_speed * math.tanh(e)
    near_speed = gains.terminal_gain * e ** gains.terminal_exponent
    gap = abs(far_speed - near_speed)
    report("C8", gap < 1e-12,
           f"speed mismatch across the handoff {gap:.2e} < 1e-12")


def test_c09_global_attraction(reference_cfg):
    rng = np.random.default_rng(90)
    obstacles = reference_cfg.obstacles
    worst_norm = math.inf
    worst_slack = math.inf
    converged_all = True
    for _ in range(100):
        while True:
            p = Vec2(rng.uniform(-20.0, 28.0), rng.uniform(-10.0, 70.0))
            if all(superelliptic_distance(p, ob) > ob.formation_band.hi
                   for ob in obstacles):
                break
        _, converged, min_norm, min_slack = follow_field(p, obstacles,
                                                         reference_cfg.safe, step=0.03)
        converged_all = converged_all and converged
        worst_norm = min(worst_norm, min_norm)
        worst_slack = min(worst_slack, min_slack)
    ok = converged_all and worst_norm >= 1e-3 and worst_slack > 0.0
    report("C9", ok,
           f"100 streamlines converged={converged_all}, min field norm "
           f"{worst_norm:.4f} (>= 1e-3), min inner-shell slack {worst_slack:.4f}")


def test_c10_byte_identical_artifacts(cli_artifacts):
    same_csv = cli_artifacts["first"]["trace.csv"] == cli_artifacts["second"]["trace.csv"]
    same_json = cli_artifacts["first"]["summary.json"] == cli_artifacts["second"]["summary.json"]
    same_svg = all(cli_artifacts["first"][n] == cli_artifacts["second"][n]
                   for n in ("trajectories.svg", "ratios.svg"))
    ok = same_csv and same_json and same_svg
    report("C10", ok,
           f"repeat invocation byte-identical: csv={same_csv}, json={same_json}, "
           f"svg={same_svg}")
