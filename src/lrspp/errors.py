"""Exception types raised by the solvers and the CLI."""


class LrsppError(Exception):
    """Base class for all package-specific errors."""


class NoBoundMode(LrsppError):
    """The requested surface-mode branch has no bound solution in the
    physical search window at the given parameters."""


class ConvergenceError(LrsppError):
    """An iterative root finder failed to converge within its iteration
    budget; the message carries the last iterate and residual."""


class StencilError(LrsppError):
    """The slopes of the dispersion residual at a bound point give no group
    velocity in the physical range (0, c)."""


class NoMatchingAngle(LrsppError):
    """No real incidence angle can phase-match the requested wavevector
    (prism index too low)."""


class SingularSystemError(LrsppError):
    """The multilayer boundary-condition system is singular at the requested
    parameters (grazing degeneracy)."""


class NormalizationError(LrsppError):
    """A normalized quantity left its allowed range, signalling inconsistent
    mode norms."""


class ConfigError(LrsppError):
    """Invalid run configuration; the message names the offending key."""
