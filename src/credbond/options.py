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

from scipy.special import ndtri as _ndtri

from . import analytics, model
from .bond import (
    _MIN_VARIANCE,
    BondSpec,
    _checked_variance,
    _d,
    _survival,
    _unit_value,
    survival_curve,
)
from .errors import BelowBarrier, InvalidExercise, InvalidTenor, NoConvergence

# The boundary solve stops once its step or residual is this close to zero
# (relative to u for the step); both are then at roundoff.
_ROUNDOFF = 4.0 * sys.float_info.epsilon
_MAX_STEPS = 200


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
    # W ~ 2 N(u / sqrt(I)) - 1 while I is small: the first guess
    u = min(root * _ndtri(0.5 + 0.5 * target), hi)
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


def _d_arguments(x: float, boundary_l: float, t: float, T1: float, T: float,
                 params: model.ModelParams) -> dict[str, float]:
    # the ratios are written so that L = B gives b2 = b3 = b1 exactly
    b = params.barrier_b
    total = _checked_variance(t, T, T, params)
    first = _checked_variance(t, T1, T, params)
    return {
        "a": _d(x / b, total),
        "a_tilde": _d(b / x, total),
        "b1": _d(x / b, first),
        "b2": _d(x / boundary_l, first),
        "b3": _d((boundary_l / b) * (x / b), first),
        "b1_tilde": _d(b / x, first),
        "b2_tilde": _d((b / boundary_l) * (b / x), first),
        "b3_tilde": _d(boundary_l / x, first),
        "delta_bar": min(1.0, math.sqrt(first / total)),
    }


def _put_block(e: float, recovery: float, dl: float, a: float, b1: float,
               b2: float, b3: float) -> float:
    n, n2 = analytics.norm_cdf, analytics.binorm_cdf
    return ((e - recovery) * (n(b1) - n(b2))
            - (1.0 - recovery) * (n2(a, b1, dl) - n2(a, b2, dl)
                                  + n2(a, -b1, -dl) - n2(a, -b3, -dl)))


def _call_block(e: float, recovery: float, dl: float, a: float, b1: float,
                b2: float, b3: float) -> float:
    n, n2 = analytics.norm_cdf, analytics.binorm_cdf
    return ((recovery - e) * n(b2)
            + (1.0 - recovery) * (n2(a, b2, dl) + n2(a, -b3, -dl)))


def _option_price(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
                  params: model.ModelParams, call: bool) -> OptionPriceResult:
    """z f(a, b1, b2, b3) - (v/B) f(a~, b1~, b2~, b3~) for the put or call block f.

    The tilde arguments are the d-values at the image point B^2/x.
    """
    _validate(spec, bond, params)
    if state.t > spec.expiry_T1:
        raise InvalidTenor(
            f"t={state.t} is after option expiry {spec.expiry_T1}")
    z = model.zcb_price(state.r, state.t, bond.maturity_T, params)
    x = state.v / z
    b = params.barrier_b
    if x <= b:
        raise BelowBarrier(f"V/Z={x} at or below barrier {b}")
    boundary_l = find_boundary_l(spec, bond, params)
    e = spec.exercise_e
    if state.t == spec.expiry_T1:
        # the payoff at T1 in numeraire units against the bond's value there
        value = float(_unit_value(x, spec.expiry_T1, bond.maturity_T, params))
        if call:
            payoff = value - e if x > boundary_l else 0.0
        else:
            payoff = e - value if x < boundary_l else 0.0
        return OptionPriceResult(price=payoff * z, boundary_l=boundary_l,
                                 dvalues={}, z=z)
    d = _d_arguments(x, boundary_l, state.t, spec.expiry_T1, bond.maturity_T,
                     params)
    block = _call_block if call else _put_block
    recovery, dl = params.recovery_r, d["delta_bar"]
    z_block = block(e, recovery, dl, d["a"], d["b1"], d["b2"], d["b3"])
    v_block = block(e, recovery, dl, d["a_tilde"], d["b1_tilde"],
                    d["b2_tilde"], d["b3_tilde"])
    price = z * z_block - (state.v / b) * v_block
    if -1e-12 < price < 0.0:
        price = 0.0
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
    put = put_price(state, spec, bond, params)
    call = call_price(state, spec, bond, params)
    z = put.z
    x = state.v / z
    T1, T = spec.expiry_T1, bond.maturity_T
    w1 = survival_curve(x, state.t, T1, T, params)
    w_full = survival_curve(x, state.t, T, T, params)
    e, recovery = spec.exercise_e, params.recovery_r
    synthetic = z * ((e - recovery) * w1 - (1.0 - recovery) * w_full)
    return put.price - call.price - synthetic


def puttable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond plus holder put; equals the straight bond after T1."""
    from .bond import bond_price
    straight = bond_price(state, bond, params).price
    if state.t > spec.expiry_T1:
        return straight
    return straight + put_price(state, spec, bond, params).price


def callable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond minus issuer call; equals the straight bond after T1."""
    from .bond import bond_price
    straight = bond_price(state, bond, params).price
    if state.t > spec.expiry_T1:
        return straight
    return straight - call_price(state, spec, bond, params).price
