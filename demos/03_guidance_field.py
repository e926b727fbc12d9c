"""The guidance field that steers the formation center to the safe area.

Far from every obstacle the field is a unit vector straight at the safe
center.  Inside an obstacle's blending band it rotates smoothly into a
contour-following direction that splits at the watershed ray (the far side of
the obstacle) and re-converges on the near side.  The sweep then certifies
that the two blended components never anti-align, so the field cannot vanish
anywhere except the safe center itself.

Writes guidance_field.svg (quiver plus a few streamlines) next to this script.
"""

import io
import math
from pathlib import Path

import numpy as np

from herdsim import (Disc, ObstacleDerivation, Vec2, combined_field,
                     derive_obstacle, follow_field, shell_points,
                     singularity_sweep, superelliptic_distance)
from herdsim.svg import Canvas

params = ObstacleDerivation(formation_pad=0.65 + 0.2, defender_pad=0.1 + 0.1,
                            attacker_mid_factor=1.15, attacker_hi_factor=1.3)
obstacle = derive_obstacle(Vec2(0.0, 0.0), 4.0, 3.0, params)
safe = Disc(Vec2(3.0, 7.0), 1.0)

svg = io.StringIO()
canvas = Canvas(svg, -9.0, 9.0, -9.0, 10.5, width=640, height=640)
canvas.rect(0.0, 0.0, 4.0, 3.0, stroke="dimgray", fill="lightgray")
for level in (obstacle.formation_band.lo, obstacle.formation_band.hi):
    pts = shell_points(obstacle, level, 240)
    canvas.polyline(pts + pts[:1], stroke="slateblue", width=0.8, dash="3,3")
canvas.circle(safe.center.x, safe.center.y, safe.radius, stroke="green", dash="5,3")

for x in np.linspace(-8.5, 8.5, 24):
    for y in np.linspace(-8.5, 10.0, 26):
        p = Vec2(float(x), float(y))
        if superelliptic_distance(p, obstacle) < obstacle.formation_band.lo:
            continue
        dx, dy = combined_field(p, [obstacle], safe.center)
        n = math.hypot(dx, dy)
        if n == 0.0:
            continue
        tip = Vec2(p.x + 0.55 * dx / n, p.y + 0.55 * dy / n)
        canvas.polyline([(p.x, p.y), (tip.x, tip.y)], stroke="gray", width=0.7)
        canvas.marker(tip.x, tip.y, r=1.2, fill="gray")

for start in [Vec2(-8.0, -8.0), Vec2(8.0, -8.0), Vec2(0.0, -8.5), Vec2(8.0, 2.0)]:
    pts, converged, min_norm, _ = follow_field(start, [obstacle], safe, step=0.05)
    canvas.polyline([(q.x, q.y) for q in pts], stroke="crimson", width=1.3)
    print(f"streamline from ({start.x:+.1f}, {start.y:+.1f}): "
          f"converged={converged}, {len(pts)} samples, min field norm {min_norm:.3f}")

canvas.close()
out = Path(__file__).with_name("guidance_field.svg")
out.write_text(svg.getvalue())
print(f"wrote {out}")

report = singularity_sweep(obstacle, resolution=128)
print(f"\nnon-singularity sweep (128 x 128 cells, worst-case outer contour):")
print(f"  component angle gap within [{report.min_value:+.4f}, {report.max_value:+.4f}] rad")
print(f"  |gap| stays {math.pi - report.max_abs:.4f} rad clear of a half turn "
      f"-> {'pass' if report.passed else 'FAIL'}")
