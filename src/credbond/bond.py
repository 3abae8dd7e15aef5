"""Defaultable zero-coupon straight bond: survival probability and price.

The bond knocks into the rebate R*Z when the firm value hits the barrier
B*Z; conditional on survival it pays face 1 at maturity.  In numeraire
coordinates x = V/Z the no-default probability has the down-and-out form
W = N(d1) - (x/B) N(d2) and the price is C = [R + (1-R) W] * Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics, model
from .errors import BelowBarrier, DegenerateVariance, DomainError, InvalidTenor
from .model import _MIN_VARIANCE

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BondSpec:
    """Zero-coupon bond terms: maturity in years, unit face value."""

    maturity_T: float

    def __post_init__(self) -> None:
        model._check_finite(self)
        if not self.maturity_T > 0.0:
            raise ValueError(f"maturity_T must be positive, got {self.maturity_T}")


def _direct(fn, *args):
    """fn(*args): how one price evaluates the inputs a sweep memoizes."""
    return fn(*args)


@dataclass(frozen=True)
class BondPriceResult:
    """Price plus diagnostic intermediates of the straight-bond formula."""

    price: float
    z: float
    x: float
    w: float
    total_variance: float


def _checked_variance(t: float, T1: float, T: float,
                      params: model.ModelParams, ev=_direct) -> float:
    """cum_variance(t, T1, T), rejecting one too small to divide by; ev
    evaluates cum_variance."""
    variance = ev(model.cum_variance, t, T1, T, params)
    if variance <= _MIN_VARIANCE:
        raise DegenerateVariance(
            f"variance over [{t}, {T1}] is numerically zero")
    return variance


def _d(ratio, half_variance, root, log=math.log):
    # (ln ratio - I/2) / sqrt(I), given I/2 and sqrt(I); log is math.log for
    # one price and numpy's for a sweep
    return (log(ratio) - half_variance) / root


def d_fn(ratio: float, t: float, T1: float, T: float,
         params: model.ModelParams) -> float:
    """(ln ratio - I/2) / sqrt(I) with I = cum_variance(t, T1, T)."""
    if not ratio > 0.0:
        raise DomainError(f"ratio must be positive, got {ratio}")
    variance = _checked_variance(t, T1, T, params)
    return _d(ratio, 0.5 * variance, math.sqrt(variance))


def _survival(u: float, variance: float) -> tuple[float, float]:
    """W and dW/du at u = ln(x/B) >= 0 for a variance I.

    W = N(d1) - e^u N(d2) with d1, d2 = (+-u - I/2) / sqrt(I).  Since
    e^u phi(d2) = phi(d1), the slope is dW/du = 2 phi(d1)/sqrt(I) - e^u N(d2).
    Once no variance remains (I <= _MIN_VARIANCE) a firm above the barrier
    (u > 0) cannot reach it: W = 1 and the slope is 0.
    """
    if variance <= _MIN_VARIANCE:
        return 1.0, 0.0
    root = math.sqrt(variance)
    d1 = (u - 0.5 * variance) / root
    d2 = (-u - 0.5 * variance) / root
    tail = math.exp(u) * analytics.norm_cdf(d2)
    w = analytics.norm_cdf(d1) - tail
    slope = 2.0 * math.exp(-0.5 * d1 * d1) / (_SQRT_2PI * root) - tail
    return min(1.0, max(0.0, w)), slope


def survival_curve(x: float, t: float, T1: float, T: float,
                   params: model.ModelParams) -> float:
    """Down-and-out survival functional with variance int_t^T1 sigma_x2(u; T) du.

    survival_w is the T1 = T case; the option formulas also need the
    [T1, T] remaining-variance and [t, T1] first-horizon variants.
    """
    b = params.barrier_b
    if x < b:
        raise DomainError(f"x={x} is below the barrier {b}")
    if x == b:
        return 0.0
    variance = _checked_variance(t, T1, T, params)
    return _survival(math.log(x / b), variance)[0]


def _unit_value(x, t: float, T: float, params: model.ModelParams) -> np.ndarray:
    """Straight-bond value in units of Z, R + (1-R) W(x) over [t, T], elementwise."""
    variance = model.cum_variance(t, T, T, params)
    return _bond_units(x, params.barrier_b, params.recovery_r, variance)[0]


def _bond_units(x, b, recovery, variance) -> tuple[np.ndarray, np.ndarray]:
    """(R + (1-R) W, W) elementwise, with x, B, R and the variance I broadcast.

    The array form of _survival: W = 0 at or below the barrier, and W = 1
    above it where no variance remains (I <= _MIN_VARIANCE).
    """
    x = np.asarray(x, dtype=float)
    live = variance > _MIN_VARIANCE
    variance = np.where(live, variance, 1.0)  # any positive stand-in
    u = np.log(x / b)
    root = np.sqrt(variance)
    d1 = (u - 0.5 * variance) / root
    d2 = (-u - 0.5 * variance) / root
    ndtr = analytics._ndtr
    w = np.minimum(1.0, np.maximum(0.0, ndtr(d1) - np.exp(u) * ndtr(d2)))
    w = np.where(live, w, 1.0)
    w = np.where(x > b, w, 0.0)
    return recovery + (1.0 - recovery) * w, w


def survival_w(x: float, t: float, spec: BondSpec,
               params: model.ModelParams) -> float:
    """No-default probability of the straight bond, strictly increasing in x."""
    if t >= spec.maturity_T:
        raise InvalidTenor(f"t={t} must precede maturity {spec.maturity_T}")
    return survival_curve(x, t, spec.maturity_T, spec.maturity_T, params)


def _bond_inputs(state: model.MarketState, spec: BondSpec,
                 params: model.ModelParams, ev=_direct):
    """(z, x, variance over [t, T]) of a straight-bond price, None at maturity.

    Raises as bond_price does; ev evaluates z and the variance.
    """
    T = spec.maturity_T
    if state.t > T:
        raise InvalidTenor(f"t={state.t} is after maturity {T}")
    if state.t == T:
        return None
    z = ev(model.zcb_price, state.r, state.t, T, params)
    x = state.v / z
    if x <= params.barrier_b:
        raise BelowBarrier(
            f"V/Z={x} at or below barrier {params.barrier_b}; position is "
            "defaulted and worth R*Z")
    return z, x, ev(model.cum_variance, state.t, T, T, params)


def bond_price(state: model.MarketState, spec: BondSpec,
               params: model.ModelParams) -> BondPriceResult:
    """Straight-bond price C = [R + (1-R) W(V/Z, t)] * Z(r, t)."""
    inputs = _bond_inputs(state, spec, params)
    if inputs is None:
        return BondPriceResult(price=1.0, z=1.0, x=state.v, w=1.0,
                               total_variance=0.0)
    z, x, total_variance = inputs
    w = _survival(math.log(x / params.barrier_b), total_variance)[0]
    recovery = params.recovery_r
    price = (recovery + (1.0 - recovery) * w) * z
    return BondPriceResult(price=price, z=z, x=x, w=w,
                           total_variance=total_variance)
