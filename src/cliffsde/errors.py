"""Exception hierarchy for cliffsde."""


class CliffsdeError(Exception):
    """Base class for all package-specific errors."""


class ResourceLimitError(CliffsdeError):
    """A requested object would exceed the configured size budget."""


class ConfigurationError(CliffsdeError):
    """A bad configuration value, flag or file, or pieces of a
    space/driver/problem that do not fit; ``key``, when given, names it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ArgumentError(ConfigurationError, ValueError):
    """A function argument outside its domain; ``key`` names it."""


class DriverMismatchError(ConfigurationError):
    """A driver needs a generator layout the space was not built with."""


class ContractViolationError(CliffsdeError):
    """A declared numerical contract (adaptedness, contraction, modulus,
    stability dominance) fails when checked."""


class AdaptednessError(ContractViolationError):
    """A process value is not measurable at its filtration level."""


class OsgoodViolationError(ContractViolationError):
    """A modulus fails the shape conditions or the divergence certificate."""


class ZeroProcessError(CliffsdeError):
    """An inequality ratio is undefined because the process is zero."""


class ConvergenceError(CliffsdeError):
    """An iteration failed to converge.  Carries the delta trace so the
    caller can dump it for post-mortem: ``iterations[i]`` is the iteration
    that measured ``deltas[i]`` (1, 2, ... unless given)."""

    def __init__(self, message, deltas=None, iterations=None):
        super().__init__(message)
        self.deltas = list(deltas) if deltas is not None else []
        self.iterations = (list(iterations) if iterations is not None
                           else list(range(1, len(self.deltas) + 1)))
