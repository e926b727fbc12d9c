"""The complete closed-loop herding experiment, end to end.

Three defenders launch from scattered positions, assemble into an arc behind
the adversary, and steer it through a field of six rectangular obstacles into
the safe area, where the commanded heading swings tangential and traps it.
Writes herding_trajectories.svg and herding_ratios.svg next to this script.
"""

import time
from pathlib import Path

from herdsim import load_scenario, reference_scenario_path, run, validate_scenario
from herdsim.svg import ratio_curves_svg, trajectory_svg

cfg, digest = load_scenario(reference_scenario_path())
print(f"scenario sha256 {digest[:12]}: {len(cfg.obstacles)} obstacles, "
      f"{cfg.defenders.count} defenders")

violations = validate_scenario(cfg)
print(f"validation: {'clean' if not violations else violations}")

t0 = time.perf_counter()
trace = run(cfg)
print(f"\nsimulated {trace.t_end:.2f} s of world time in "
      f"{time.perf_counter() - t0:.2f} s wall time ({len(trace.rows)} steps)")

ev = trace.events
print(f"attacker sensed at t = {ev['t_sense_s']} s")
print(f"formation assembled at t = {ev['t_formed_s']} s")
print(f"attacker entered the safe area at t = {ev['t_capture_s']} s")
print(f"termination: {trace.termination} "
      f"(capture held: {ev['t_capture_s'] is not None})")

print("\nworst-case safety ratios over the run (any value >= 1 is a violation):")
for key in ("ratio_attacker_obstacle", "ratio_defender_obstacle",
            "ratio_defender_defender", "ratio_attacker_defender"):
    print(f"  {key:28s} {trace.maxima[key]:.4f}")
print(f"peak defender speeds: "
      f"{[round(v, 3) for v in trace.maxima['defender_speed_mps']]} "
      f"(limits {list(cfg.defenders.speed_max)})")

here = Path(__file__).parent
(here / "herding_trajectories.svg").write_text(trajectory_svg(trace, cfg))
(here / "herding_ratios.svg").write_text(ratio_curves_svg(trace))
print(f"\nwrote {here / 'herding_trajectories.svg'}")
print(f"wrote {here / 'herding_ratios.svg'}")
