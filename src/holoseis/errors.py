"""Exception hierarchy shared by all holoseis modules."""


class HoloseisError(Exception):
    """Base class for all library errors."""


class DomainError(HoloseisError, ValueError):
    """Argument outside the supported domain (the Hankel overflow guard)."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point (e.g. Green's function at x = y)."""


class UsageError(HoloseisError, ValueError):
    """Inconsistent shapes, unknown quantity tags, or invalid parameters."""


class InvalidParameterError(UsageError):
    """Physical parameter field violates an admissibility constraint (c, rho floors...)."""


class ResonanceError(HoloseisError, RuntimeError):
    """Perturbed wave operator is numerically singular (wavenumber at a resonance)."""


class NumericalBreakdownError(HoloseisError, RuntimeError):
    """Non-finite values encountered inside an iterative solver."""


class MemoryBudgetError(HoloseisError, RuntimeError):
    """Requested dense operator exceeds the configured memory budget."""
