"""Exception types shared across the package."""


class SmaleLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SmaleLabError):
    """An argument lies outside the operation's domain."""


class PreconditionError(SmaleLabError):
    """A runtime precondition (normalization, non-criticality, ...) failed."""


class RootFindError(SmaleLabError):
    """Root iteration failed to converge.

    Carries the best iterates and their residuals so callers can diagnose
    ill-conditioned inputs instead of getting a bare failure.
    """

    def __init__(self, message: str, roots=(), residuals=()):
        super().__init__(message)
        self.roots = tuple(roots)
        self.residuals = tuple(residuals)
