"""Seeded inputs for the benchmark workloads.

The generators return plain scenario documents (dicts, as a scenario JSON
file would hold them); herdsim only ever sees those documents.

    reference  the bundled scenario, unchanged (the seed is not used)
    cluttered  the bundled scenario plus 42 inert obstacles on a jittered
               25 m lattice outside the arena box
"""

from __future__ import annotations

import itertools
import json
import math
import random

# The agents of the bundled scenario never leave this box (x0, x1, y0, y1);
# the golden trace hash checks that the added obstacles stay inert.
ARENA_BOX = (-50.0, 80.0, -50.0, 120.0)
LATTICE_STEP_M = 25.0
LATTICE_SPAN = range(-5, 12)             # node index i -> -50 + 25 i metres
CLUTTER_COUNT = 42
CLUTTER_JITTER_M = 2.0
CLUTTER_SIDE_M = (2.0, 4.0)


def reference_doc() -> dict:
    from herdsim import reference_scenario_path
    return json.loads(reference_scenario_path().read_text())


def _box_distance(x: float, y: float) -> float:
    x0, x1, y0, y1 = ARENA_BOX
    return math.hypot(max(x0 - x, 0.0, x - x1), max(y0 - y, 0.0, y - y1))


def _reach(ob, sensing_radius: float) -> float:
    """Distance from an obstacle's center beyond which none of its blend
    weights, nor the attacker's sensing of it, can be nonzero."""
    def shell(band):
        # the level-`hi` contour lies inside the box of half sides
        # semi * (1 + hi) ** (1 / 2n)
        scale = (1.0 + band.hi) ** (1.0 / (2.0 * ob.exponent))
        return math.hypot(ob.semi_x, ob.semi_y) * scale
    return max(shell(ob.formation_band), shell(ob.defender_band),
               ob.attacker_band.hi, sensing_radius)


def cluttered_doc(seed: int) -> dict:
    """The bundled world plus CLUTTER_COUNT inert obstacles.

    Raises ValueError if the generated world is not valid, if two obstacles
    are closer than their summed attacker-circle radii, or if an added
    obstacle could reach into the arena box.
    """
    from herdsim import scenario_from_dict, validate_scenario

    rng = random.Random(seed)
    doc = reference_doc()
    n_ref = len(doc["obstacles"])
    nodes = [(-50.0 + LATTICE_STEP_M * i, -50.0 + LATTICE_STEP_M * j)
             for i, j in itertools.product(LATTICE_SPAN, LATTICE_SPAN)]
    nodes = [n for n in nodes if 25.0 <= _box_distance(*n) <= 80.0]
    for x, y in rng.sample(nodes, CLUTTER_COUNT):
        doc["obstacles"].append({
            "center_m": [x + rng.uniform(-CLUTTER_JITTER_M, CLUTTER_JITTER_M),
                         y + rng.uniform(-CLUTTER_JITTER_M, CLUTTER_JITTER_M)],
            "width_m": rng.uniform(*CLUTTER_SIDE_M),
            "height_m": rng.uniform(*CLUTTER_SIDE_M),
        })

    cfg = scenario_from_dict(doc)
    violations = validate_scenario(cfg)
    if violations:
        raise ValueError(f"cluttered world rejected: {violations}")
    for a, b in itertools.combinations(cfg.obstacles, 2):
        gap = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y)
        if gap <= a.attacker_band.hi + b.attacker_band.hi:
            raise ValueError(f"obstacles at {a.center} and {b.center} too close")
    sensing = cfg.attacker.sensing_radius
    for ob in cfg.obstacles[n_ref:]:
        if _box_distance(ob.center.x, ob.center.y) <= _reach(ob, sensing):
            raise ValueError(f"obstacle at {ob.center} can reach the arena box")
    return doc
