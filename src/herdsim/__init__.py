"""Vector-field herding: a defender arc steering an adversarial agent to a
safe area among rectangular obstacles, with super-elliptic obstacle shells and
finite-time formation tracking."""

__version__ = "0.1.0"

from .attacker import attacker_field, attacker_step
from .defender_control import (TrackingGains, convergence_bounds, defender_field,
                               defender_velocity, solve_tracking_gains,
                               terminal_phase_time)
from .environment import (Disc, Obstacle, ObstacleDerivation, ScenarioConfig,
                          arc_magnitude, derive_obstacle, load_scenario,
                          min_spread, reference_scenario_path, scenario_from_dict,
                          scenario_warnings, shell_points, solve_shape_exponent,
                          superelliptic_distance, validate_scenario)
from .errors import (ConfigError, DomainError, HerdsimError, InfeasibleHeadingError,
                     IntegrityError, OutputDirError, ScenarioFileError, SchemaError,
                     SolverError)
from .formation_field import (SweepReport, attractive_field, combined_field,
                              follow_field, repulsive_angle, singularity_sweep)
from .geom import (BlendTriplet, Vec2, angle_of, blend_weight, close_blend, dist,
                   repel, unit, wrap_angle, wrap_sector)
from .herding import (FormationSpec, formation_goals, formation_spec, heading_rate,
                      obstacle_resultant, schedule_heading, solve_command_heading)
from .sim import (SafetySnapshot, SimState, SimTrace, build_context, new_state,
                  run, safety_snapshot)
