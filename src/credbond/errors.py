"""Exception hierarchy shared by the pricing and oracle modules."""


class CredBondError(Exception):
    """Base class for all library errors."""


class InvalidTenor(CredBondError):
    """Evaluation time is after the relevant maturity/expiry."""


class DegenerateVariance(CredBondError):
    """The log-variance over the horizon is too small for an FD grid."""


class DomainError(CredBondError):
    """Argument outside the mathematical domain of the function."""


class BelowBarrier(CredBondError):
    """Firm value at or below the default barrier B*Z; the claim is the rebate R*Z."""


class InvalidExercise(CredBondError):
    """Exercise multiple E outside the open interval (R, 1)."""


class NoBracket(CredBondError):
    """Root finder was not given a sign change."""


class NoConvergence(CredBondError):
    """Iterative routine failed to reach the requested tolerance."""


class ResolutionError(CredBondError):
    """Finite-difference grid too coarse for a stable solve."""


class SeedError(CredBondError):
    """Monte-Carlo engine called with no paths."""


class StepError(CredBondError):
    """Monte-Carlo time stepping too coarse."""


class ConfigError(CredBondError):
    """Run configuration file failed validation."""
