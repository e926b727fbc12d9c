"""Vector-field herding: a defender arc steering an adversarial agent to a
safe area among rectangular obstacles, with super-elliptic obstacle shells and
finite-time formation tracking.

The package loads its modules on first use (PEP 562): `herdsim.run` imports
`herdsim.sim` when it is first looked up, so a command loads only the modules
it runs.  A lookup is never stored in the package namespace; each one returns
the module's current attribute.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "attacker": ("attacker_field", "attacker_step"),
    "defender_control": ("TrackingGains", "convergence_bounds", "defender_field",
                         "defender_velocity", "solve_tracking_gains", "terminal_phase_time"),
    "environment": ("Disc", "Obstacle", "ObstacleDerivation", "ScenarioConfig",
                    "arc_magnitude", "derive_obstacle", "load_scenario", "min_spread",
                    "reference_scenario_path", "scenario_from_dict", "scenario_warnings",
                    "shell_points", "solve_shape_exponent", "superelliptic_distance",
                    "validate_scenario"),
    "errors": ("ConfigError", "DomainError", "HerdsimError", "InfeasibleHeadingError",
               "IntegrityError", "PathError", "SolverError"),
    "formation_field": ("SweepReport", "combined_field", "follow_field", "repulsive_angle",
                        "singularity_sweep"),
    "geom": ("BlendTriplet", "Vec2", "blend_weight", "close_blend", "dist", "repel",
             "wrap_angle", "wrap_sector"),
    "herding": ("FormationSpec", "formation_goals", "formation_spec", "heading_rate",
                "obstacle_resultant", "schedule_heading", "solve_command_heading"),
    "sim": ("SimState", "SimTrace", "build_context", "run", "safety_snapshot"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
