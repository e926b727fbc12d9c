"""Exception types shared across the package; each carries `exit_code`, the
CLI's exit status when a command raises it."""


class HerdsimError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1       # unexpected internal error


class ConfigError(HerdsimError, ValueError):
    """A scenario document does not match the expected structure, or a
    parameter value is unusable (wrong sign, bad ordering, non-finite)."""
    exit_code = 3


class PathError(HerdsimError):
    """A scenario file is missing or cannot be read, or an --out path cannot
    be made a directory."""
    exit_code = 2


class SolverError(HerdsimError):
    """A numerical solver failed to converge or bracket a root."""
    exit_code = 6


class DomainError(HerdsimError):
    """An operation was evaluated at a geometrically degenerate point."""


class InfeasibleHeadingError(HerdsimError):
    """The arc repulsion is too weak to cancel the obstacle resultant."""


class IntegrityError(HerdsimError):
    """The simulation state became non-finite; carries a state dump."""

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump or {}
