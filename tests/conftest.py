import importlib.util
import io
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from herdsim.cli import main as cli_main
from herdsim.environment import (ObstacleDerivation, contour_offsets, load_scenario,
                                 reference_scenario_path, superelliptic_distance,
                                 tangent_angle_at)
from herdsim.errors import DomainError
from herdsim.formation_field import repulsive_angle
from herdsim.geom import Vec2, blend_weight, wrap_angle
from herdsim.sim import run

def child_env():
    """This process's environment with src/ first on PYTHONPATH, for
    running herdsim in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def load_bench_workloads():
    """bench/workloads.py, imported from its file without touching sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE_OBSTACLES = [(10.0, 23.0, 2.0, 3.0), (-6.0, 18.0, 3.0, 4.0),
                       (11.0, 5.0, 2.0, 2.0), (15.0, 43.0, 3.0, 3.0),
                       (-2.0, 45.0, 3.0, 4.0), (12.0, 60.0, 4.0, 3.0)]


def contour_point(ob, beta, level):
    """Point on the contour E = level lying on the ray at sector angle beta."""
    x, y = contour_offsets(ob, math.cos(beta), math.sin(beta), level)
    return Vec2(ob.center.x + x, ob.center.y + y)


def contour_tangent_angle(p, ob):
    """Tangent direction of the contour through p, wrapped to (-pi, pi]."""
    beta = math.atan2(p.y - ob.center.y, p.x - ob.center.x)
    return wrap_angle(tangent_angle_at(beta, ob))


def component_angle_gap(p, ob, target):
    """Angle between the converging field and the obstacle-following field
    at p, wrapped to (-pi, pi].  Zero by convention when p coincides with
    the target (the converging field vanishes there)."""
    if p.x == target.x and p.y == target.y:
        return 0.0
    toward = math.atan2(target.y - p.y, target.x - p.x)
    return wrap_angle(toward - repulsive_angle(p, ob, target))


def written(writer, *args) -> str:
    """The document writer(*args, out) writes to the text stream out."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def outcome(fn, *args):
    """fn(*args), or the type of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


# The loops the obstacle-following and defender kernels replaced, weighing
# every source: tests/test_blend.py and tests/test_culling.py compare the
# kernels against them.
def ref_follow_obstacles(p, obstacles, target, defender):
    prod = 1.0
    fx = 0.0
    fy = 0.0
    active = None
    sigma_max = 0.0
    for k, ob in enumerate(obstacles):
        band = ob.defender_band if defender else ob.formation_band
        sigma = blend_weight(superelliptic_distance(p, ob), band)
        if sigma <= 0.0:
            continue
        prod *= 1.0 - sigma
        phi = repulsive_angle(p, ob, target)
        fx += sigma * math.cos(phi)
        fy += sigma * math.sin(phi)
        if sigma > sigma_max:
            sigma_max = sigma
            active = k
    return prod, fx, fy, sigma_max, active


def ref_defender_field(index, positions, goal, obstacles, peer_band, attacker, avoid):
    p = positions[index]
    prod, rx, ry, sigma_max, _ = ref_follow_obstacles(p, obstacles, goal, True)
    conflict = sigma_max > 0.0

    others = [(q, peer_band) for l, q in enumerate(positions) if l != index]
    for other, band in others + [(attacker, avoid)]:
        dx = p.x - other.x
        dy = p.y - other.y
        d = math.hypot(dx, dy)
        if d == 0.0:
            raise DomainError(f"defender {index} coincides with {other}")
        sigma = blend_weight(d, band)
        if sigma <= 0.0:
            continue
        conflict = True
        prod *= 1.0 - sigma
        rx += sigma * dx / d
        ry += sigma * dy / d

    gx = goal.x - p.x
    gy = goal.y - p.y
    g = math.hypot(gx, gy)
    if g > 0.0:
        rx += prod * gx / g
        ry += prod * gy / g
    return (rx, ry), conflict


@pytest.fixture(scope="session")
def reference_cfg():
    cfg, _ = load_scenario(reference_scenario_path())
    return cfg

@pytest.fixture(scope="session")
def reference_run(reference_cfg):
    """The bundled scenario run once, shared by behavioral and acceptance tests."""
    t0 = time.perf_counter()
    trace = run(reference_cfg)
    wall = time.perf_counter() - t0
    return trace, wall

@pytest.fixture(scope="session")
def cli_artifacts(tmp_path_factory):
    """Two identical in-process `simulate` invocations into the same directory."""
    out = tmp_path_factory.mktemp("cli_run")
    t0 = time.perf_counter()
    exit1 = cli_main(["simulate", "--out", str(out)])
    wall = time.perf_counter() - t0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    exit2 = cli_main(["simulate", "--out", str(out)])
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return {"exit1": exit1, "exit2": exit2, "first": first, "second": second,
            "wall": wall, "dir": out}

@pytest.fixture()
def derivation():
    """Shell derivation matching the bundled scenario's footprint numbers."""
    return ObstacleDerivation(formation_pad=0.65 + 0.2, defender_pad=0.1 + 0.1,
                              attacker_mid_factor=1.15, attacker_hi_factor=1.3)

@pytest.fixture(scope="session")
def bundle_doc():
    return json.loads(reference_scenario_path().read_text())

def random_world(seed):
    """The bundled scenario document with every obstacle moved by up to 5 m
    and resized, a new attacker start and a new safe center, drawn from
    seed: the generator of the world census (ROADMAP item 7)."""
    doc = json.loads(reference_scenario_path().read_text())
    rng = random.Random(seed)
    for ob in doc["obstacles"]:                        # bundled order
        ob["center_m"] = [round(c + rng.uniform(-5, 5), 2) for c in ob["center_m"]]
        ob["width_m"] = round(rng.uniform(1.5, 3.5), 2)
        ob["height_m"] = round(rng.uniform(1.5, 3.5), 2)
    doc["attacker"]["start_m"] = [round(rng.uniform(-40, 60), 2), round(rng.uniform(20, 100), 2)]
    doc["safe_area"]["center_m"] = [round(rng.uniform(-30, 30), 2), round(rng.uniform(40, 70), 2)]
    return doc

def random_params(seed):
    """The bundled scenario document with the agents' speeds, turn rate, arc,
    transition time, safe radius and sensing radius drawn from seed: the
    generator of the parameter census (ROADMAP item 2).  One defender speed
    serves all three defenders."""
    doc = json.loads(reference_scenario_path().read_text())
    rng = random.Random(seed)
    for section, key, lo, hi in [("attacker", "speed_max_mps", 0.3, 1.6),
                                 ("defenders", "speed_max_mps", 1.2, 3.5),
                                 ("control", "heading_rate_max_radps", 0.05, 2.5),
                                 ("formation", "spread_rad", 1.0, 3.6),
                                 ("formation", "arc_radius_m", 0.35, 0.95),
                                 ("capture", "transition_time_s", 1, 8),
                                 ("safe_area", "radius_m", 3, 10),
                                 ("attacker", "sensing_radius_m", 2, 12)]:
        doc[section][key] = round(rng.uniform(lo, hi), 3)
    return doc

def small_scenario_doc(**overrides):
    """A minimal open-field scenario the tests can bend per case."""
    doc = {
        "protected_area": {"center_m": [0.0, 0.0], "radius_m": 2.0},
        "safe_area": {"center_m": [0.0, 40.0], "radius_m": 5.0},
        "obstacles": [],
        "attacker": {
            "start_m": [0.0, 20.0],
            "body_radius_m": 0.1,
            "speed_max_mps": 1.0,
            "sensing_radius_m": 10.0,
            "deadlock_turn_rad": 0.05,
            "defender_standoff_band_m": [0.3, 0.8, 0.9],
        },
        "defenders": {
            "start_m": [[-4.0, 10.0], [0.0, 9.0], [4.0, 10.0]],
            "body_radius_m": 0.1,
            "speed_max_mps": 2.6,
            "sensing_zone_radius_m": 60.0,
            "peer_separation_band_m": [0.25, 0.32, 0.42],
        },
        "formation": {
            "arc_radius_m": 0.55,
            "spread_rad": 2.0,
            "clearance_m": 0.2,
            "defender_clearance_m": 0.1,
            "goal_tolerance_m": 0.05,
        },
        "obstacle_model": {"attacker_circle_factors": [1.1, 1.2]},
        "control": {"terminal_exponent": 0.5, "heading_rate_max_radps": 0.3},
        "capture": {"transition_time_s": 3.0, "tangent_margin_rad": 0.1,
                    "dwell_factor": 2.0},
        "integrator": {"dt_s": 0.01, "t_max_s": 60.0},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc
