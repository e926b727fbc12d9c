"""How a rectangular obstacle grows its super-elliptic shells.

The raw rectangle is inflated by the formation footprint plus a clearance;
one exponent is then solved so the level contour through the inflated corners
is locked to the family.  Larger exponents hug the rectangle more tightly;
the solved exponent balances tightness against the width of the blending
band.  Writes obstacle_shells.svg next to this script.
"""

import io
from pathlib import Path

from herdsim import (ObstacleDerivation, Vec2, derive_obstacle, shell_points,
                     superelliptic_distance)
from herdsim.svg import Canvas

params = ObstacleDerivation(formation_pad=0.65 + 0.2, defender_pad=0.1 + 0.1,
                            attacker_mid_factor=1.15, attacker_hi_factor=1.3)
ob = derive_obstacle(Vec2(0.0, 0.0), 4.0, 3.0, params)

print(f"rectangle 4 x 3, inflated to {ob.formation_width:.2f} x {ob.formation_height:.2f}")
print(f"solved exponent n = {ob.exponent:.6f}")
print(f"formation levels (lo, mid, hi) = ({ob.formation_band.lo:.4f}, "
      f"{ob.formation_band.mid:.4f}, {ob.formation_band.hi:.4f})")
print(f"defender levels lo = {ob.defender_band.lo:.4f} (tighter shell, same family)")
print(f"attacker circular stand-in radii = ({ob.attacker_band.lo:.3f}, "
      f"{ob.attacker_band.mid:.3f}, {ob.attacker_band.hi:.3f})")

corner = Vec2(ob.formation_width / 2.0, ob.formation_height / 2.0)
print(f"\ninflated corner level = {superelliptic_distance(corner, ob):.12f} "
      f"(matches lo to float precision)")

print("\nlevel coordinate along the +x ray:")
for r in [0.0, 1.0, 2.0, ob.semi_x, 3.0, 4.0, 5.0]:
    print(f"  r = {r:5.3f}  E = {superelliptic_distance(Vec2(r, 0.0), ob):8.4f}")

svg = io.StringIO()
canvas = Canvas(svg, -6.0, 6.0, -6.0, 6.0, width=560, height=560)
canvas.rect(0.0, 0.0, ob.width, ob.height, stroke="dimgray", fill="lightgray")
for level, color in [(0.0, "black"), (ob.defender_band.lo, "seagreen"),
                     (ob.formation_band.lo, "slateblue"),
                     (ob.formation_band.mid, "orange"),
                     (ob.formation_band.hi, "crimson")]:
    pts = shell_points(ob, level, 240)
    canvas.polyline(pts + pts[:1], stroke=color, width=1.2)
canvas.text(-5.8, 5.6, "shells: base (black), defender (green), formation lo/mid/hi")
canvas.close()
out = Path(__file__).with_name("obstacle_shells.svg")
out.write_text(svg.getvalue())
print(f"\nwrote {out}")
