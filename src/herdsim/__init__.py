"""Vector-field herding: a defender arc steering an adversarial agent to a
safe area among rectangular obstacles, with super-elliptic obstacle shells and
finite-time formation tracking.

The package loads its modules on first use (PEP 562): `herdsim.run` imports
`herdsim.sim` when it is first looked up, so a command loads only the modules
it runs.  A lookup is never stored in the package namespace; each one returns
the module's current attribute.  The package exports what its callers import
from it: the names a demo, the benchmark or the README imports from
`herdsim`, and the error classes.  Every other name is imported from its
module, e.g. `from herdsim.sim import SimTrace`.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it: those its callers import
# from `herdsim`, and the error classes; others are imported from the module
_EXPORTS = {
    "defender_control": ("convergence_bounds", "solve_tracking_gains", "terminal_phase_time"),
    "environment": ("Disc", "ObstacleDerivation", "derive_obstacle", "load_scenario",
                    "reference_scenario_path", "scenario_from_dict", "shell_points",
                    "superelliptic_distance", "validate_scenario"),
    "errors": ("ConfigError", "DomainError", "HerdsimError", "InfeasibleHeadingError",
               "IntegrityError", "PathError", "SolverError"),
    "formation_field": ("combined_field", "follow_field", "singularity_sweep"),
    "geom": ("BlendTriplet", "Vec2", "blend_weight"),
    "sim": ("build_context", "run"),
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
