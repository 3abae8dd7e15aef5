"""Vasicek discount-bond analytics and the forward-measure volatility structure.

Short rate: dr = theta*(mu - r) dt + s_r dW1.  Firm value is lognormal with
volatility s_V and instantaneous correlation rho against the rate factor.
Under the discount bond Z as numeraire the ratio x = V/Z diffuses with the
deterministic variance rate sigma_x2 below; everything downstream is priced
off its cumulative integral.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InvalidTenor

# Below theta*tau = _SMALL_THETA_TAU the exponential antiderivatives are
# evaluated by Taylor expansion; the closed forms lose ~2/z (h1) and ~3/z^2
# (h2) digits to cancellation, so the crossover sits where both branches
# agree to ~2e-13 relative.
_SMALL_THETA_TAU = 0.05
# exp of an exponent in [_LOG_TINY, _LOG_HUGE] is a positive finite float.
_LOG_TINY = math.log(math.ulp(0.0))
_LOG_HUGE = math.log(sys.float_info.max)


def _check_finite(spec) -> None:
    """Reject a NaN or infinite field of a parameter dataclass."""
    # getattr, not vars(): building the instance __dict__ would slow every
    # later attribute read of the hot pricing paths
    for name in spec.__dataclass_fields__:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Market and credit constants of the two-factor model.

    theta, mu, s_r: Vasicek mean-reversion speed, long-run level, rate vol.
    s_V: lognormal firm-value volatility.
    rho: instantaneous correlation between the two Brownian drivers.
    barrier_b: default barrier multiple B (firm defaults at V = B*Z).
    recovery_r: fraction R of the risk-free bond paid at default.
    """

    theta: float
    mu: float
    s_r: float
    s_V: float
    rho: float
    barrier_b: float
    recovery_r: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.s_r < 0.0 or self.s_V < 0.0:
            raise ValueError("volatilities must be non-negative")
        if self.s_r + self.s_V <= 0.0:
            raise ValueError("at least one of s_r, s_V must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not self.barrier_b > 0.0:
            raise ValueError(f"barrier_b must be positive, got {self.barrier_b}")
        if not 0.0 <= self.recovery_r < 1.0:
            raise ValueError(f"recovery_r must lie in [0, 1), got {self.recovery_r}")


@dataclass(frozen=True)
class MarketState:
    """Evaluation point: short rate r, firm value v (per unit face), time t."""

    r: float
    v: float
    t: float

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.v > 0.0:
            raise ValueError(f"firm value must be positive, got {self.v}")


def _squared(s: float) -> float:
    """A volatility squared, raising DomainError where that overflows."""
    try:
        return s ** 2
    except OverflowError:
        raise DomainError(f"volatility {s} squared overflows") from None


def _check_tenor(t: float, T: float) -> None:
    if t > T:
        raise InvalidTenor(f"evaluation time {t} is after horizon {T}")


def bbar(t: float, T: float, params: ModelParams) -> float:
    """Vasicek duration factor (1 - e^{-theta*(T-t)}) / theta."""
    _check_tenor(t, T)
    return -math.expm1(-params.theta * (T - t)) / params.theta


def _h1(theta: float, tau: float) -> float:
    # int_0^tau bbar(v) dv  with bbar(v) = (1 - e^{-theta v})/theta
    z = theta * tau
    if z < _SMALL_THETA_TAU:
        # (z + expm1(-z))/z^2 = sum_j (-z)^j / (j+2)!
        return tau * tau * (0.5 - z / 6.0 + z * z / 24.0 - z ** 3 / 120.0
                            + z ** 4 / 720.0 - z ** 5 / 5040.0
                            + z ** 6 / 40320.0)
    return (tau + math.expm1(-z) / theta) / theta


def _h2(theta: float, tau: float) -> float:
    # int_0^tau bbar(v)^2 dv
    z = theta * tau
    if z < _SMALL_THETA_TAU:
        return tau ** 3 * (1.0 / 3.0 - z / 4.0 + 7.0 * z * z / 60.0
                           - z ** 3 / 24.0 + 31.0 * z ** 4 / 2520.0
                           - z ** 5 / 320.0 + 127.0 * z ** 6 / 181440.0)
    g2 = tau + 2.0 * math.expm1(-z) / theta - math.expm1(-2.0 * z) / (2.0 * theta)
    return g2 / (theta * theta)


def abar(t: float, T: float, params: ModelParams) -> float:
    """Log-level term of the Vasicek discount bond, vanishing at t = T.

    Evaluated from the integral definition
    -int_t^T [theta*mu*bbar - 0.5*s_r^2*bbar^2] ds via stable antiderivatives,
    which agrees with the usual closed form and survives theta -> 0.
    """
    _check_tenor(t, T)
    tau = T - t
    return (-params.theta * params.mu * _h1(params.theta, tau)
            + 0.5 * _squared(params.s_r) * _h2(params.theta, tau))


def zcb_price(r: float, t: float, T: float, params: ModelParams) -> float:
    """Risk-free zero-coupon bond price Z(r, t; T) = exp(abar - bbar*r).

    Raises DomainError where Z is not a positive finite float.
    """
    _check_tenor(t, T)
    exponent = abar(t, T, params) - bbar(t, T, params) * r
    if not _LOG_TINY <= exponent <= _LOG_HUGE:
        raise DomainError(f"Z = exp({exponent}) is beyond the float range")
    return math.exp(exponent)


def sigma_x2(t: float, T: float, params: ModelParams) -> float:
    """Instantaneous variance rate of x = V/Z under the T-bond numeraire.

    d ln x loads s_V on the firm-value driver and +bbar*s_r on the rate
    driver (Z carries -bbar*s_r), so the cross term enters with +rho; the
    whole expression is bounded below by (s_r*bbar - s_V)^2 >= 0.
    """
    _check_tenor(t, T)
    bb = bbar(t, T, params)
    val = (_squared(params.s_r) * bb * bb + _squared(params.s_V)
           + 2.0 * params.rho * params.s_r * params.s_V * bb)
    # quadratic form, >= 0 up to roundoff
    return max(0.0, val)


def cum_variance(t: float, T1: float, T: float, params: ModelParams) -> float:
    """int_t^T1 sigma_x2(u; T) du in closed form (additive over intervals).

    It is exactly 0.0 on an empty interval and where the sum rounds to 0 or
    below; that, and only that, is "no variance remains" to every pricer.
    Raises DomainError where the sum of its finite terms is not finite.
    """
    if not t <= T1 <= T:
        raise InvalidTenor(f"need t <= T1 <= T, got t={t}, T1={T1}, T={T}")
    theta = params.theta
    tau0 = T - t
    tau1 = T - T1
    delta = T1 - t
    val = (_squared(params.s_r) * (_h2(theta, tau0) - _h2(theta, tau1))
           + _squared(params.s_V) * delta
           + 2.0 * params.rho * params.s_r * params.s_V
           * (_h1(theta, tau0) - _h1(theta, tau1)))
    # checked before the clamp: max(0.0, nan) would read as zero variance
    if not math.isfinite(val):
        raise DomainError(f"variance over [{t}, {T1}] is {val}, not finite")
    return max(0.0, val)

