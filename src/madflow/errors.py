"""Exception types shared across the package."""


class MadflowError(Exception):
    """Base class for all failures raised by this package."""


class NodeError(MadflowError):
    """A density or wave amplitude reached the admissibility floor."""


class AliasError(MadflowError):
    """A phase varies too fast between neighbouring grid points to unwrap."""


class WindingError(MadflowError):
    """The wave winds around zero; no single-valued phase exists."""


class BaseMismatchError(MadflowError):
    """Two tangent vectors live over different base densities."""


class CompatibilityError(MadflowError):
    """A density variation carries net mass and is not a tangent direction."""


class FoldError(MadflowError):
    """A transport map folds over itself (not a diffeomorphism)."""


class CutError(MadflowError):
    """A density carries non-negligible mass at the transport cut point."""


class GaugeError(MadflowError):
    """A fiber potential is not in the gauge required by the operation."""


class NonFiniteError(MadflowError, ValueError):
    """A field holds an infinite or NaN sample (bad input, or an overflow)."""


class StabilityError(MadflowError):
    """A time integration left its stable regime."""


class ConfigError(MadflowError):
    """A scenario configuration failed validation."""
