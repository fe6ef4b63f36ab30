"""Exception types shared across the package."""


class GpcbfError(Exception):
    """Base class for package-specific failures."""


class InvalidDesignError(GpcbfError, ValueError):
    """Barrier design parameters violate their constraints (e.g. k_i <= 0)."""


class InfeasibleConstraintError(GpcbfError, ValueError):
    """A half-space constraint admits no solution (a = 0 with b < 0)."""


class IllConditionedDataError(GpcbfError, ValueError):
    """Gram factorization failed even after exhausting the jitter schedule."""


class FactorizationError(GpcbfError, ValueError):
    """Matrix square-root factorization of a non-PD input."""


class ConfigError(GpcbfError, ValueError):
    """Experiment configuration failed validation."""
