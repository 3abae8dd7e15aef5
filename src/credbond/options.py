"""Bond put/call options with credit risk and puttable/callable composition.

Both options expire at T1 with strike K = E * Z(r, T1) and knock out
worthless on default.  In numeraire coordinates the exercise region is
separated by the constant boundary L >= B solving R + (1-R) W(L) = E, and
the prices are combinations of univariate and bivariate normal CDFs whose
arguments are the d-values collected in OptionPriceResult.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import analytics, model
from .bond import (
    BondSpec,
    _checked_variance,
    _d,
    _direct,
    _survival,
    _unit_value,
    bond_price,
)
from .errors import BelowBarrier, InvalidExercise, InvalidTenor, NoConvergence
from .model import _MIN_VARIANCE

# The boundary solve stops once its step or residual is this close to zero
# (relative to u for the step); both are then at roundoff.
_ROUNDOFF = 4.0 * sys.float_info.epsilon
_MAX_STEPS = 200
# A price this little below zero is roundoff of a zero price.
_CLAMP = 1e-12
# The standard normal quantile, for the boundary solve's first guess
_NORM_QUANTILE = NormalDist().inv_cdf


def _binorm_each(a, b, rho):
    """binorm_cdf at each (a, b, rho) of three sequences."""
    return map(analytics.binorm_cdf, a, b, rho)


def _binorm_stacked(a, b, rho):
    """binorm_cdf_array at each (a, b, rho) of three sequences of arrays."""
    return analytics.binorm_cdf_array(np.array(a), np.array(b), np.array(rho))


class _Scalar:
    """What one price evaluates with: math and the scalar CDFs.

    The CDFs are looked up on analytics at each price, so that a tracer that
    wraps them there sees every call.
    """

    log, sqrt, minimum = math.log, math.sqrt, min

    @staticmethod
    def pair(block, near, image):
        """The block at x and at the image point."""
        n = analytics.norm_cdf
        return block(*near, n, _binorm_each), block(*image, n, _binorm_each)

    @staticmethod
    def clamp(price):
        return 0.0 if -_CLAMP < price < 0.0 else price


class _Array:
    """What a sweep evaluates with: numpy, elementwise over its points.

    Every per-point input is an array over the points, all of one shape.
    """

    log, sqrt, minimum = np.log, np.sqrt, np.minimum

    @staticmethod
    def pair(block, near, image):
        """The block at x and at the image point, stacked in one evaluation."""
        return block(*np.array((near, image)).swapaxes(0, 1),
                     analytics._ndtr, _binorm_stacked)

    @staticmethod
    def clamp(price):
        return np.where((-_CLAMP < price) & (price < 0.0), 0.0, price)


@dataclass(frozen=True)
class OptionSpec:
    """Option terms: expiry T1 < bond maturity, exercise multiple E in (R, 1)."""

    expiry_T1: float
    exercise_e: float

    def __post_init__(self) -> None:
        model._check_finite(self)
        if not self.expiry_T1 > 0.0:
            raise ValueError(f"expiry_T1 must be positive, got {self.expiry_T1}")


@dataclass(frozen=True)
class OptionPriceResult:
    """Option price plus the early-redemption boundary and d-arguments."""

    price: float
    boundary_l: float
    dvalues: dict[str, float]
    z: float


def _validate(spec: OptionSpec, bond: BondSpec, params: model.ModelParams) -> None:
    if not spec.expiry_T1 < bond.maturity_T:
        raise InvalidTenor(
            f"option expiry {spec.expiry_T1} must precede bond maturity "
            f"{bond.maturity_T}")
    if not params.recovery_r < spec.exercise_e < 1.0:
        raise InvalidExercise(
            f"exercise multiple {spec.exercise_e} must lie in "
            f"({params.recovery_r}, 1)")


def find_boundary_l(spec: OptionSpec, bond: BondSpec,
                    params: model.ModelParams) -> float:
    """Boundary L >= B with R + (1-R) W(L) = E, W over the remaining life [T1, T].

    With I = cum_variance(T1, T, T), W rises strictly in u = ln(x/B) from 0
    at u = 0 to 1 at u = 80 sqrt(I), so the root is unique in that bracket.
    Newton's method in u, with the closed-form slope dW/du, finds it; a step
    that would leave the bracket bisects it instead, and the iteration stops
    once the step or the residual is down to roundoff.  When no variance
    remains (I <= 1e-16), W = 1 everywhere above the barrier and L = B.
    """
    _validate(spec, bond, params)
    b = params.barrier_b
    recovery = params.recovery_r
    target = (spec.exercise_e - recovery) / (1.0 - recovery)
    T = bond.maturity_T
    remaining = model.cum_variance(spec.expiry_T1, T, T, params)
    if remaining <= _MIN_VARIANCE:
        return b
    root = math.sqrt(remaining)
    lo, hi = 0.0, 80.0 * root
    # W ~ 2 N(u / sqrt(I)) - 1 while I is small: the first guess, or the
    # bracket's top where the quantile's argument rounds to 1
    p = 0.5 + 0.5 * target
    u = min(root * _NORM_QUANTILE(p), hi) if p < 1.0 else hi
    for _ in range(_MAX_STEPS):
        w, slope = _survival(u, remaining)
        gap = w - target
        if gap < 0.0:
            lo = u
        else:
            hi = u
        if abs(gap) <= _ROUNDOFF:
            return b * math.exp(u)
        step = gap / slope if slope > 0.0 else math.inf
        if abs(step) <= _ROUNDOFF * u:
            return b * math.exp(u - step)
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    raise NoConvergence(f"boundary solve did not converge in {_MAX_STEPS} steps")


def _option_inputs(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
                   params: model.ModelParams, ev=_direct):
    """(z, x, L, (total, first)) of one option price, checked.

    The variances over [t, T] and [t, T1] are None where no variance remains
    before expiry (t = T1, or within roundoff of it): the price is then the
    payoff at T1.  ev evaluates z, L and the variances.
    """
    _validate(spec, bond, params)
    if state.t > spec.expiry_T1:
        raise InvalidTenor(
            f"t={state.t} is after option expiry {spec.expiry_T1}")
    T1, T = spec.expiry_T1, bond.maturity_T
    z = ev(model.zcb_price, state.r, state.t, T, params)
    x = state.v / z
    b = params.barrier_b
    if x <= b:
        raise BelowBarrier(f"V/Z={x} at or below barrier {b}")
    boundary_l = ev(find_boundary_l, spec, bond, params)
    first = ev(model.cum_variance, state.t, T1, T, params)
    if first <= _MIN_VARIANCE:
        return z, x, boundary_l, None
    total = _checked_variance(state.t, T, T, params, ev)
    return z, x, boundary_l, (total, first)


def _expiry_payoff(x, boundary_l: float, spec: OptionSpec, bond: BondSpec,
                   params: model.ModelParams, call: bool) -> np.ndarray:
    """The put or call payoff at T1 in units of Z, elementwise in x."""
    value = _unit_value(x, spec.expiry_T1, bond.maturity_T, params)
    if call:
        return np.where(x > boundary_l, value - spec.exercise_e, 0.0)
    return np.where(x < boundary_l, spec.exercise_e - value, 0.0)


def _d_arguments(x, boundary_l, b, total, first, k=_Scalar) -> dict:
    """The d-values at x and (tilde) at the image point B^2/x, and delta_bar.

    total and first are the variances over [t, T] and [t, T1]; k is _Scalar
    for one price or _Array for arrays of points.
    """
    half_t, root_t = 0.5 * total, k.sqrt(total)
    half_f, root_f = 0.5 * first, k.sqrt(first)
    log = k.log
    # the ratios are written so that L = B gives b2 = b3 = b1 exactly
    return {
        "a": _d(x / b, half_t, root_t, log),
        "a_tilde": _d(b / x, half_t, root_t, log),
        "b1": _d(x / b, half_f, root_f, log),
        "b2": _d(x / boundary_l, half_f, root_f, log),
        "b3": _d((boundary_l / b) * (x / b), half_f, root_f, log),
        "b1_tilde": _d(b / x, half_f, root_f, log),
        "b2_tilde": _d((b / boundary_l) * (b / x), half_f, root_f, log),
        "b3_tilde": _d(boundary_l / x, half_f, root_f, log),
        "delta_bar": k.minimum(1.0, k.sqrt(first / total)),
    }


def _put_block(e, recovery, dl, a, b1, b2, b3, n, n2):
    # n is the normal CDF, n2 the bivariate one at a sequence of arguments
    p1, p2, p3, p4 = n2((a, a, a, a), (b1, b2, -b1, -b3), (dl, dl, -dl, -dl))
    return ((e - recovery) * (n(b1) - n(b2))
            - (1.0 - recovery) * (p1 - p2 + p3 - p4))


def _call_block(e, recovery, dl, a, b1, b2, b3, n, n2):
    p2, p3 = n2((a, a), (b2, -b3), (dl, -dl))
    return (recovery - e) * n(b2) + (1.0 - recovery) * (p2 + p3)


def _option_value(call: bool, z, v, b, e, recovery, d: dict, k=_Scalar):
    """z f(a, b1, b2, b3) - (v/B) f(a~, b1~, b2~, b3~) for the put or call block f.

    The tilde arguments are the d-values at the image point B^2/x.  A price
    within roundoff below zero is 0.
    """
    dl = d["delta_bar"]
    z_block, v_block = k.pair(
        _call_block if call else _put_block,
        (e, recovery, dl, d["a"], d["b1"], d["b2"], d["b3"]),
        (e, recovery, dl, d["a_tilde"], d["b1_tilde"], d["b2_tilde"],
         d["b3_tilde"]))
    return k.clamp(z * z_block - (v / b) * v_block)


def _option_price(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
                  params: model.ModelParams, call: bool) -> OptionPriceResult:
    z, x, boundary_l, variances = _option_inputs(state, spec, bond, params)
    if variances is None:
        price = float(_expiry_payoff(x, boundary_l, spec, bond, params,
                                     call)) * z
        return OptionPriceResult(price=price, boundary_l=boundary_l,
                                 dvalues={}, z=z)
    b = params.barrier_b
    d = _d_arguments(x, boundary_l, b, *variances)
    price = _option_value(call, z, state.v, b, spec.exercise_e,
                          params.recovery_r, d)
    return OptionPriceResult(price=price, boundary_l=boundary_l, dvalues=d, z=z)


def put_price(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
              params: model.ModelParams) -> OptionPriceResult:
    """Knock-out put on the credit-risky bond, strike E*Z(r, T1), expiry T1."""
    return _option_price(state, spec, bond, params, call=False)


def call_price(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
               params: model.ModelParams) -> OptionPriceResult:
    """Knock-out call on the credit-risky bond, strike E*Z(r, T1), expiry T1."""
    return _option_price(state, spec, bond, params, call=True)


def put_call_parity_gap(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """put - call - Z*[(E-R)*W1 - (1-R)*W_T]; zero up to roundoff.

    W1 is the survival functional over [t, T1] (first-horizon variance) and
    W_T the full-maturity one; the identity follows from linearity of the
    reduced PDE with the two option payoffs summing to E - R - (1-R)*W on
    x > B, and is validated against the finite-difference oracle in tests
    before being used as a check.
    """
    z, x, boundary_l, variances = _option_inputs(state, spec, bond, params)
    b, e, recovery = params.barrier_b, spec.exercise_e, params.recovery_r
    u = math.log(x / b)
    # W = 1 above the barrier where no variance remains (s_V = 0, T1 -> T)
    w_full = _survival(u, model.cum_variance(state.t, bond.maturity_T,
                                             bond.maturity_T, params))[0]
    if variances is None:
        # no variance remains before T1: both prices are the T1 payoffs
        w1 = 1.0
        put, call = (z * float(_expiry_payoff(x, boundary_l, spec, bond,
                                              params, c))
                     for c in (False, True))
    else:
        w1 = _survival(u, variances[1])[0]
        d = _d_arguments(x, boundary_l, b, *variances)
        put, call = (_option_value(c, z, state.v, b, e, recovery, d)
                     for c in (False, True))
    synthetic = z * ((e - recovery) * w1 - (1.0 - recovery) * w_full)
    return put - call - synthetic


def _bond_with_option(state: model.MarketState, spec: OptionSpec,
                      bond: BondSpec, params: model.ModelParams,
                      call: bool) -> float:
    # the straight bond, long the put or short the call until T1
    straight = bond_price(state, bond, params).price
    if state.t > spec.expiry_T1:
        return straight
    option = _option_price(state, spec, bond, params, call).price
    return straight - option if call else straight + option


def puttable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond plus holder put; equals the straight bond after T1."""
    return _bond_with_option(state, spec, bond, params, call=False)


def callable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond minus issuer call; equals the straight bond after T1."""
    return _bond_with_option(state, spec, bond, params, call=True)
