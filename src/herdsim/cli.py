"""Command-line front end: simulate | sweep | check.

Exit codes (stable, also listed in the README); 4 and 5 are outcomes, every
other nonzero code is the `exit_code` of the HerdsimError a command raised:
  0  success
  1  unexpected internal error
  2  scenario file missing or unreadable, or an --out path that cannot be a
     directory or holds a non-file under an artifact's name (argparse usage
     errors also exit 2)
  3  scenario malformed (not JSON text, schema mismatch, unusable values,
     fewer than two defenders, bad index/resolution/margin, a non-finite or
     non-positive dt or t_max, or more than MAX_STEPS steps), in the file or
     in an override
  4  scenario failed validation
  5  run finished but the outcome is unacceptable (no stable capture, safety
     ratio at or above 1, or the protected area was breached)
  6  numerical solver failure

`simulate` prints each notice of the run (trace.notices) to stderr as a
`warning:` line with its time.  The dynamics are deterministic, so no
command takes a seed; no command reads the environment.

Each command imports, at its top, the modules that only it runs, and the SVG
writers only when it writes an SVG, so `check`, `--version` and `--svg off`
never load the SVG writers, and only `simulate` loads the step loop.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .environment import (arc_magnitude, load_scenario, min_spread, reference_scenario_path,
                          scenario_warnings, validate_scenario)
from .errors import ConfigError, HerdsimError, PathError
from .geom import dist

EXIT_OK = 0
EXIT_INVALID_SCENARIO = 4
EXIT_UNACCEPTABLE = 5


def _load(scenario_arg):
    """(config, manifest) of the scenario file, or of the bundled one."""
    path = Path(scenario_arg) if scenario_arg else reference_scenario_path()
    try:
        cfg, digest = load_scenario(path)
    except ConfigError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc
    return cfg, {"scenario": str(scenario_arg) if scenario_arg else "bundled:reference_scenario",
                 "scenario_sha256": digest, "tool_version": __version__}


def _out_dir(arg, names) -> Path:
    """The --out directory, checked before any work and without creating
    anything: the path, or its nearest existing ancestor, must be a directory,
    and each artifact name the command writes there must be free or a file."""
    out = Path(arg)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise PathError(f"cannot write to --out {arg}: {found} is not a directory")
    for path in (out / name for name in names):
        if path.exists() and not path.is_file():
            raise PathError(f"cannot write to --out {arg}: {path} is not a regular file")
    return out


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_simulate(args) -> int:
    from .sim import RATIO_COLUMNS, TERM_CAPTURED, run

    outputs = {"trace_csv": "trace.csv", "summary_json": "summary.json"}
    if args.svg == "on":
        outputs["trajectories_svg"] = "trajectories.svg"
        outputs["ratios_svg"] = "ratios.svg"
    out = _out_dir(args.out, outputs.values())
    cfg, manifest = _load(args.scenario)
    violations = validate_scenario(cfg)
    for w in scenario_warnings(cfg):
        print(f"warning: {w}", file=sys.stderr)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVALID_SCENARIO

    trace = run(cfg, dt=args.dt, t_max=args.t_max)
    for t, text in trace.notices:
        print(f"warning: {text} at t={t:.3f}", file=sys.stderr)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w") as fh:
        trace.to_csv(fh)
    if args.svg == "on":
        from .svg import ratio_curves_svg, trajectory_svg

        with open(out / "trajectories.svg", "w") as fh:
            trajectory_svg(trace, cfg, fh)
        with open(out / "ratios.svg", "w") as fh:
            ratio_curves_svg(trace, fh)
    manifest["outputs"] = outputs
    summary = trace.summary()
    summary["manifest"] = manifest
    (out / "summary.json").write_text(_json_dump(summary))

    worst = max(trace.maxima[k] for k in RATIO_COLUMNS)
    ok = trace.termination == TERM_CAPTURED and worst < 1.0
    print(f"termination: {trace.termination} at t={trace.t_end:.2f} s")
    print(f"events: {trace.events}")
    print(f"worst safety ratio: {worst:.4f}")
    print(f"artifacts written to {out}")
    if not ok:
        print("outcome unacceptable: no stable capture or a safety ratio reached 1",
              file=sys.stderr)
        return EXIT_UNACCEPTABLE
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .formation_field import singularity_sweep

    svg = ["sweep.svg"] if args.svg == "on" else []
    out = _out_dir(args.out, ["sweep.csv", "sweep_summary.json", *svg])
    cfg, manifest = _load(args.scenario)
    if not 0 <= args.obstacle < len(cfg.obstacles):
        raise ConfigError(f"obstacle index {args.obstacle} out of range "
                          f"(scenario has {len(cfg.obstacles)})")
    report = singularity_sweep(cfg.obstacles[args.obstacle],
                               resolution=args.resolution, margin=args.margin)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w") as fh:
        report.to_csv(fh)
    summary = report.summary()
    summary["obstacle"] = args.obstacle
    summary["manifest"] = manifest
    (out / "sweep_summary.json").write_text(_json_dump(summary))
    if args.svg == "on":
        from .svg import sweep_heatmap_svg

        with open(out / "sweep.svg", "w") as fh:
            sweep_heatmap_svg(report, fh)
    verdict = "pass" if report.passed else "FAIL"
    print(f"obstacle {args.obstacle}: max |gap| = {report.max_abs:.4f} rad, "
          f"limit {math.pi - report.margin:.4f} rad -> {verdict}")
    return EXIT_OK if report.passed else EXIT_UNACCEPTABLE


def cmd_check(args) -> int:
    from .defender_control import convergence_bounds, solve_tracking_gains, terminal_phase_time

    cfg, manifest = _load(args.scenario)
    violations = validate_scenario(cfg)
    warnings = scenario_warnings(cfg)

    print(f"scenario: {manifest['scenario']} (sha256 {manifest['scenario_sha256'][:12]})")
    print(f"defenders: {cfg.defenders.count}, obstacles: {len(cfg.obstacles)}")
    needed = min_spread(cfg.defenders.count, cfg.attacker.standoff_band.lo,
                        cfg.defenders.peer_band.lo)
    mag = arc_magnitude(cfg.defenders.count, cfg.formation.spread)
    print(f"spread: {cfg.formation.spread:.6f} rad (minimum {needed:.6f})")
    print(f"arc repulsion magnitude: {mag:.6f}")
    try:
        gains = solve_tracking_gains(
            cfg.control.terminal_exponent, min(cfg.defenders.speed_max),
            cfg.attacker.speed_max, cfg.formation.arc_radius,
            cfg.control.heading_rate_max)
    except ConfigError as exc:
        gains = None
        print(f"tracking gains unsolvable: {exc}")
    else:
        print(f"tracking gains: approach {gains.approach_speed:.6f} m/s, "
              f"terminal gain {gains.terminal_gain:.6f}, "
              f"handoff error {gains.handoff_error:.6f} m")
        print(f"terminal phase: {terminal_phase_time(gains, gains.handoff_error):.3f} s")
    if cfg.attacker.speed_max > 0.0:
        arrival = dist(cfg.attacker.start, cfg.protected.center) / cfg.attacker.speed_max
        print(f"attacker straight-line arrival bound: {arrival:.3f} s")
        if gains is not None:
            # the slowest defender's time to reach the handoff error from the
            # start farthest from the attacker's, for comparison only
            e0 = max(dist(p, cfg.attacker.start) for p in cfg.defenders.starts)
            print(f"reach: {convergence_bounds(e0, gains):.3f} s against arrival {arrival:.3f} s")
    print("obstacle shells (exponent, formation level lo/mid/hi, defender lo, circle radii):")
    for i, ob in enumerate(cfg.obstacles):
        fb, db, ab = ob.formation_band, ob.defender_band, ob.attacker_band
        print(f"  [{i}] {ob.width:g}x{ob.height:g} @ ({ob.center.x:g}, {ob.center.y:g}): "
              f"n={ob.exponent:.6f} levels=({fb.lo:.4f}, {fb.mid:.4f}, {fb.hi:.4f}) "
              f"defender_lo={db.lo:.4f} circle=({ab.lo:.3f}, {ab.mid:.3f}, {ab.hi:.3f})")

    for w in warnings:
        print(f"warning: {w}")
    if violations:
        print(f"{len(violations)} violation(s):")
        for v in violations:
            print(f"  violation: {v}")
        return EXIT_INVALID_SCENARIO
    print("scenario is clean")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="herdsim",
        description="Vector-field herding simulator: arc of defenders steering "
                    "an adversarial agent to a safe area among rectangular obstacles.")
    parser.add_argument("--version", action="version", version=f"herdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", default=None,
                        help="scenario JSON path (default: bundled reference scenario)")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run the closed loop and write trace/summary/plots")
    sim.add_argument("--out", default="out", help="output directory (default: ./out)")
    sim.add_argument("--dt", type=float, default=None, help="timestep override (s)")
    sim.add_argument("--t-max", type=float, default=None, help="time budget override (s)")
    sim.add_argument("--svg", choices=["on", "off"], default="on", help="emit SVG plots")
    sim.set_defaults(fn=cmd_simulate)

    sw = sub.add_parser("sweep", parents=[common],
                        help="non-singularity sweep of one obstacle's field")
    sw.add_argument("--obstacle", type=int, required=True, help="obstacle index")
    sw.add_argument("--resolution", type=int, default=128, help="cells per axis (64 to 768)")
    sw.add_argument("--margin", type=float, default=0.1,
                    help="required clearance below a half turn, in [0, pi) (rad)")
    sw.add_argument("--out", default="out", help="output directory (default: ./out)")
    sw.add_argument("--svg", choices=["on", "off"], default="on", help="emit SVG heatmap")
    sw.set_defaults(fn=cmd_sweep)

    chk = sub.add_parser("check", parents=[common],
                         help="validate a scenario and print derived quantities")
    chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HerdsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
