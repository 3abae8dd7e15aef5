"""Adaptive quadrature, the reference the tests check closed-form integrals against."""

from __future__ import annotations

import warnings
from typing import Callable

from scipy import integrate as _integrate

from credbond.errors import DomainError, NoConvergence


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Adaptive quadrature of f over [lo, hi] to absolute error <= tol."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if lo > hi:
        raise DomainError("integration interval must have lo <= hi")
    if lo == hi:
        return 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        out = _integrate.quad(f, lo, hi, epsabs=tol, epsrel=1e-13,
                              limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > max(tol, 1e-13 * abs(value)):
        raise NoConvergence(
            f"quadrature error estimate {abserr} above requested tolerance {tol}")
    return float(value)
