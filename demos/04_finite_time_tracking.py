"""The two-regime tracking law that drives defenders onto their slots.

Far out the speed saturates (tanh profile); inside the handoff error it
switches to a fractional power law whose integral curves hit zero error in
finite time, not just asymptotically.  The handoff error is solved so the
speed profile is C1 across the switch.  The closed-form times printed here
hold for a field that points at the goal and no conflict, as in the
integration below.
"""

from herdsim import Vec2, convergence_bounds, solve_tracking_gains, terminal_phase_time, unit
from herdsim.defender_control import defender_velocity

gains = solve_tracking_gains(terminal_exponent=0.5, speed_max=2.6,
                             attacker_speed_max=1.0, arc_radius=0.55,
                             heading_rate_max=0.3)
print(f"speed budget left for tracking: {gains.approach_speed:.4f} m/s")
print(f"handoff error: {gains.handoff_error:.6f} m, "
      f"terminal gain: {gains.terminal_gain:.6f}")

e0 = 2.0
reach_bound = convergence_bounds(e0, gains)
power_time = terminal_phase_time(gains, gains.handoff_error)
print(f"\nbounds from {e0} m out: handoff within {reach_bound:.3f} s, "
      f"then zero within {power_time:.3f} s")

p = Vec2(e0, 0.0)
goal = Vec2(0.0, 0.0)
dt = 1e-3
t = 0.0
milestones = {1.5: None, 1.0: None, 0.5: None, 0.1: None, 1e-3: None}
while p.norm() > 1e-6 and t < 20.0:
    for level in milestones:
        if milestones[level] is None and p.norm() <= level:
            milestones[level] = t
    vx, vy = defender_velocity(p, goal, Vec2(0.0, 0.0), unit(goal - p), False, gains)
    p = Vec2(p.x + vx * dt, p.y + vy * dt)
    t += dt

print("\nintegrated error decay (explicit Euler, dt = 1 ms):")
for level, when in milestones.items():
    print(f"  |e| <= {level:<7g} at t = {when:.3f} s")
print(f"  |e| <= 1e-06  at t = {t:.3f} s "
      f"(bounds total {reach_bound + power_time:.3f} s)")
