"""Exception and warning types shared across the package."""


class ChoquardError(Exception):
    """Base class for all package-specific errors."""


class InputError(ChoquardError, ValueError):
    """Malformed or inconsistent input (shape, window, support violations)."""


class ParameterError(ChoquardError, ValueError):
    """Model parameter outside its admissible range."""


class DomainError(InputError):
    """Evaluation requested outside the mathematical domain of an operation."""


class NoProjectionError(ChoquardError):
    """The field has no Nehari projection because its nonlocal term vanishes."""


class ProbeInconclusiveError(ChoquardError):
    """A sampling probe could not produce a usable witness."""


class InitializerError(ChoquardError):
    """No solver start produced an admissible initial field."""


class ConvergenceError(ChoquardError):
    """Iterative solve failed to reach its tolerance.

    Carries the best available iteration history in ``history`` and the last
    residual in ``residual`` so callers can report partial progress.
    """

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history if history is not None else []


class InternalError(ChoquardError):
    """Invariant violation inside the package (e.g. kernel table too small)."""


class AccuracyWarning(UserWarning):
    """Requested evaluation is outside the regime of guaranteed accuracy."""
