"""Bond put/call options with credit risk and puttable/callable composition.

Both options expire at T1 with strike K = E * Z(r, T1) and knock out
worthless on default.  In numeraire coordinates the exercise region is
separated by the constant boundary L >= B solving R + (1-R) W(L) = E, and
the prices are combinations of univariate and bivariate normal CDFs whose
arguments are the d-values collected in OptionPriceResult.

The paper's put block holds four bivariate CDFs at each of x and the image
point.  Two of them, Phi2(a, b1; delta) + Phi2(a, -b1; -delta), sum to N(a),
so a put takes 4 bivariate CDFs in all, as a call does.  The parity gap
keeps the paper's four-term put as its independent side: against the
two-term put it would be zero by construction, whatever the CDFs returned.
A puttable or callable bond takes its straight bond's z, x and variance
over [t, T] from its option leg's OptionPriceResult, which carries them as
the option checked them, so its straight leg is bond_price's bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist

import numpy as np

from . import analytics, model
from .bond import (BondPriceResult, BondSpec, _bond_inputs, _bond_units,
                   _straight_bond, _survival, _unit_value, bond_price,
                   survival_curve)
from .errors import DomainError, InvalidExercise, InvalidTenor, NoConvergence
from .model import _LOG_HUGE

# The boundary solve stops once its step or residual is this close to zero
# (relative to u for the step); both are then at roundoff.
_ROUNDOFF = 4.0 * sys.float_info.epsilon
_MAX_STEPS = 200
# A price this little below zero is roundoff of a zero price.
_CLAMP = 1e-12
# The standard normal quantile, for the boundary solve's first guess
_NORM_QUANTILE = NormalDist().inv_cdf


class _Scalar:
    """What one price evaluates with: math and the scalar CDFs.

    The CDFs are looked up on analytics at each price, so that a tracer that
    wraps them there sees every call.
    """

    sqrt, minimum, maximum = math.sqrt, min, max
    # a ratio that underflowed to 0 has the d-value -inf, as numpy's log gives
    log = staticmethod(lambda ratio: math.log(ratio) if ratio else -math.inf)
    # (v/B) block: a block of 0 adds 0, also where v/B overflows
    scale = staticmethod(lambda v, b, block: (v / b) * block if block else 0.0)

    @staticmethod
    def pair(block, near, image):
        """The block at x and at the image point."""
        n, n2 = analytics.norm_cdf, partial(map, analytics.binorm_cdf)
        return block(*near, n, n2), block(*image, n, n2)

    @staticmethod
    def clamp(price):
        return 0.0 if -_CLAMP < price < 0.0 else price


class _Array:
    """What a sweep evaluates with: numpy, elementwise over its points.

    Every per-point input is an array over the points, all of one shape.
    A ratio beyond the float range is evaluated as _Scalar evaluates it;
    _sweep_prices silences numpy's warnings on the way (over, divide,
    invalid).
    """

    log, sqrt, minimum, maximum = np.log, np.sqrt, np.minimum, np.maximum
    # (v/B) block: a block of 0 adds 0, also where v/B overflows
    scale = staticmethod(
        lambda v, b, block: np.where(block != 0.0, (v / b) * block, 0.0))

    @staticmethod
    def pair(block, near, image):
        """The block at x and at the image point, stacked in one evaluation."""
        return block(*np.array((near, image)).swapaxes(0, 1),
                     analytics._ndtr, analytics.binorm_cdf_array)

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
    """Option price plus the early-redemption boundary and d-arguments.

    z, x and total_variance, the variance over [t, T], are the straight
    bond's, as bond_price takes them.
    """

    price: float
    boundary_l: float
    dvalues: dict[str, float]
    z: float
    x: float
    total_variance: float


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
    at u = 0 towards 1, so the root is unique.  W is 1 to roundoff at
    u = 80 sqrt(I) while that is at most ln(max float); past it, one W at
    ln(max float) tells whether the root, and so L, is beyond the float range.
    Newton's method in u, with the closed-form slope dW/du, finds it; a step
    that would leave the bracket bisects it instead, and the iteration stops
    once the step or the residual is down to roundoff.  L = B exactly when
    no variance remains (I = 0), where W = 1 everywhere above the barrier;
    otherwise the root u is positive, and an L that rounds to B is taken
    one ulp above it.  Raises DomainError where L is not a finite float.
    """
    _validate(spec, bond, params)
    b = params.barrier_b
    recovery = params.recovery_r
    target = (spec.exercise_e - recovery) / (1.0 - recovery)
    T = bond.maturity_T
    remaining = model.cum_variance(spec.expiry_T1, T, T, params)
    if remaining == 0.0:
        return b
    root = math.sqrt(remaining)
    lo, hi = 0.0, 80.0 * root
    if hi > _LOG_HUGE and _survival(_LOG_HUGE, remaining)[0] < target:
        raise DomainError(
            f"boundary L = {b} e^u is beyond the float range: u > {_LOG_HUGE}")
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
            return _boundary(b, u)
        step = gap / slope if slope > 0.0 else math.inf
        if abs(step) <= _ROUNDOFF * u:
            return _boundary(b, u - step)
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    raise NoConvergence(f"boundary solve did not converge in {_MAX_STEPS} steps")


def _boundary(b: float, u: float) -> float:
    """L = B e^u, above B, raising DomainError where it is not a finite float."""
    if u <= _LOG_HUGE and (boundary_l := b * math.exp(u)) < math.inf:
        return max(boundary_l, math.nextafter(b, math.inf))
    raise DomainError(f"boundary L = {b} e^{u} is beyond the float range")


def _option_inputs(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
                   params: model.ModelParams, boundary_l: float | None = None):
    """(z, x, total, first, L) of one option price, checked.

    The option terms are checked first, then the straight bond's z, x and
    total, the variance over [t, T], by bond._bond_inputs; a puttable or
    callable bond is checked in this order too.  first, the variance over
    [t, T1], is None where no variance remains before expiry (it is 0, as
    at t = T1): the price is then the payoff at T1.  The boundary L depends
    on no state variable: it is boundary_l where the caller shares one,
    else solved last by find_boundary_l, which past the checks made here
    raises only NoConvergence or DomainError.
    """
    _validate(spec, bond, params)
    if state.t > spec.expiry_T1:
        raise InvalidTenor(
            f"t={state.t} is after option expiry {spec.expiry_T1}")
    z, x, total = _bond_inputs(state, bond, params)
    first = model.cum_variance(state.t, spec.expiry_T1, bond.maturity_T,
                               params)
    if boundary_l is None:
        boundary_l = find_boundary_l(spec, bond, params)
    return z, x, total, (first if first > 0.0 else None), boundary_l


def _expiry_payoff(units, spec: OptionSpec, call: bool) -> np.ndarray:
    """Payoff at T1, max(E - units, 0) or for the call max(units - E, 0), from
    the straight bond's value units there; both in units of Z, elementwise."""
    if call:
        return np.maximum(units - spec.exercise_e, 0.0)
    return np.maximum(spec.exercise_e - units, 0.0)


def _expiry_price(z, x, spec, bond, params, call: bool) -> float:
    """The payoff at T1 on the straight bond at x, in units of Z, times z."""
    units = _unit_value(x, spec.expiry_T1, bond.maturity_T, params)
    return float(_expiry_payoff(units, spec, call)) * z


def _d(ratio, half_variance, root, log):
    # (ln ratio - I/2) / sqrt(I), given I/2 and sqrt(I)
    return (log(ratio) - half_variance) / root


def _d_arguments(x, boundary_l, b, total, first, k=_Scalar) -> dict:
    """The d-values at x and (tilde) at the image point B^2/x, and delta_bar.

    total and first, the variances over [t, T] and [t, T1], are positive; as
    they go to 0 the d-values saturate.  k is _Scalar for one price or _Array
    for arrays of points.
    """
    # the variance over [t, T] is at least that over [t, T1] but for roundoff
    total = k.maximum(total, first)
    half_t, root_t = 0.5 * total, k.sqrt(total)
    half_f, root_f = 0.5 * first, k.sqrt(first)
    log = k.log
    # the ratios are written so that L = B gives b2 = b3 = b1 exactly; one
    # beyond the float range, inf or 0, gives a d-value of +-inf, on which
    # the CDFs saturate
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


# The blocks: n is the normal CDF, n2 the bivariate one at a sequence of
# arguments.  The paper's put block has (1-R)[Phi2(a, b1; dl) - p2
# + Phi2(a, -b1; -dl) - p4], whose first and third terms sum to N(a).
def _put_block(e, recovery, dl, a, b1, b2, b3, n, n2):
    p2, p4 = n2((a, a), (b2, -b3), (dl, -dl))
    return ((e - recovery) * (n(b1) - n(b2))
            - (1.0 - recovery) * (n(a) - p2 - p4))


def _call_block(e, recovery, dl, a, b1, b2, b3, n, n2):
    p2, p3 = n2((a, a), (b2, -b3), (dl, -dl))
    return (recovery - e) * n(b2) + (1.0 - recovery) * (p2 + p3)


# the block of an option leg, by whether it is the call
_BLOCKS = {False: _put_block, True: _call_block}


def _paper_put_block(e, recovery, dl, a, b1, b2, b3, n, n2):
    # the paper's four-term put, for the parity gap alone
    p1, p2, p3, p4 = n2((a, a, a, a), (b1, b2, -b1, -b3), (dl, dl, -dl, -dl))
    return ((e - recovery) * (n(b1) - n(b2))
            - (1.0 - recovery) * (p1 - p2 + p3 - p4))


def _option_value(block, z, v, b, e, recovery, d: dict, k=_Scalar):
    """z f(a, b1, b2, b3) - (v/B) f(a~, b1~, b2~, b3~) for the block f.

    The tilde arguments are the d-values at the image point B^2/x.  A price
    within roundoff below zero is 0.
    """
    dl = d["delta_bar"]
    z_block, v_block = k.pair(
        block,
        (e, recovery, dl, d["a"], d["b1"], d["b2"], d["b3"]),
        (e, recovery, dl, d["a_tilde"], d["b1_tilde"], d["b2_tilde"],
         d["b3_tilde"]))
    return k.clamp(z * z_block - k.scale(v, b, v_block))


def _option_price(state: model.MarketState, spec: OptionSpec, bond: BondSpec,
                  params: model.ModelParams, call: bool,
                  inputs: tuple | None = None) -> OptionPriceResult:
    """The option from _option_inputs' values, found here where inputs is
    None: its payoff at T1 where no variance remains before expiry, else
    the closed form at state.v."""
    if inputs is None:
        inputs = _option_inputs(state, spec, bond, params)
    z, x, total, first, boundary_l = inputs
    if first is None:
        price, d = _expiry_price(z, x, spec, bond, params, call), {}
    else:
        b = params.barrier_b
        d = _d_arguments(x, boundary_l, b, total, first)
        price = _option_value(_BLOCKS[call], z, state.v, b, spec.exercise_e,
                              params.recovery_r, d)
    return OptionPriceResult(price=price, boundary_l=boundary_l, dvalues=d,
                             z=z, x=x, total_variance=total)


def _sweep_point(state: model.MarketState, spec: OptionSpec | None,
                 bond: BondSpec, params: model.ModelParams, holds_bond: bool,
                 call: bool | None, boundary_l: float | None):
    """One sweep point, checked as its price is and in the same order.

    holds_bond and call are the instrument's: whether it holds the straight
    bond, and whether its option leg is the call (True), the put (False) or
    absent (None).  L is boundary_l where that is not None, else solved by
    _option_inputs.  A point with a closed form is a record (z, x, v, B, R,
    total, E, first, L) for _sweep_prices, total and first the variances
    over [t, T] and [t, T1], and E, first and L 0 where it has no live
    option leg.  Where no variance remains before T1 the point is priced
    here, at its payoff there, by _bond_with_option or _option_price:
    (price, z, x, w, L), w None for an option alone.  None: a zero-coupon
    bond, or a bond at maturity, has no closed form here.
    """
    if call is not None and not (holds_bond and state.t > spec.expiry_T1):
        inputs = _option_inputs(state, spec, bond, params, boundary_l)
        z, x, total, first, boundary_l = inputs
        if first is None and holds_bond:
            price, straight, _ = _bond_with_option(state, spec, bond, params,
                                                   call, inputs)
            return price, z, x, straight.w, boundary_l
        if first is None:
            option = _option_price(state, spec, bond, params, call, inputs)
            return option.price, z, x, None, boundary_l
        leg = (spec.exercise_e, first, boundary_l)
    elif holds_bond and (inputs := _bond_inputs(state, bond, params)):
        (z, x, total), leg = inputs, (0.0, 0.0, 0.0)
    else:
        return None
    return (z, x, state.v, params.barrier_b, params.recovery_r, total, *leg)


def _sweep_prices(records: list, holds_bond: bool, call: bool | None
                  ) -> tuple[list, list]:
    """Price and straight-bond W of each _sweep_point record, in one array
    pass: the straight bond where the instrument holds it, and _signed's
    option leg where first > 0; W is None for an option alone."""
    table = np.array(records)
    z, x, v, b, recovery, total, e, first, boundary_l = table.T
    price, w = np.zeros(len(records)), [None] * len(records)
    if holds_bond:
        units, w = _bond_units(x, b, recovery, total)
        price, w = units * z, w.tolist()
    live = first > 0.0  # the points with a live option leg
    if live.any():
        z, x, v, b, recovery, total, e, first, boundary_l = table[live].T
        # x/B, v/B and (L/B)(x/B) may overflow, log (B/L)(B/x) be log 0 =
        # -inf, and an image block of 0 meet v/B = inf
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = _d_arguments(x, boundary_l, b, total, first, _Array)
            option = _option_value(_BLOCKS[call], z, v, b, e, recovery, d,
                                   _Array)
        # an option alone is 0 plus its price
        price[live] = _signed(price[live], option, holds_bond and call)
    return price.tolist(), w


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

    W1 is the survival functional over [t, T1] and W_T that over [t, T]; the
    identity follows from linearity of the reduced PDE with the two option
    payoffs summing to E - R - (1-R)*W on x > B, and is validated against
    the finite-difference oracle in tests before being used as a check.  The
    put is the paper's four-term block at call_price's d-values, or the T1
    payoff where there are none; the gap raises what call_price raises.
    """
    call = call_price(state, spec, bond, params)
    z, x, e, recovery = call.z, call.x, spec.exercise_e, params.recovery_r
    if call.dvalues:
        put = _option_value(_paper_put_block, z, state.v, params.barrier_b,
                            e, recovery, call.dvalues)
    else:
        put = _expiry_price(z, x, spec, bond, params, call=False)
    T = bond.maturity_T
    w1, w_full = (survival_curve(x, state.t, horizon, T, params)
                  for horizon in (spec.expiry_T1, T))
    synthetic = z * ((e - recovery) * w1 - (1.0 - recovery) * w_full)
    return put - call.price - synthetic


def _bond_with_option(state: model.MarketState, spec: OptionSpec,
                      bond: BondSpec, params: model.ModelParams, call: bool,
                      inputs: tuple | None = None
                      ) -> tuple[float, BondPriceResult,
                                 OptionPriceResult | None]:
    """(price, straight bond, option) of the straight bond long the put or
    short the call; after T1, the straight bond and no option.

    Up to T1 the option is _option_price's, its terms checked first, and
    the straight bond is priced from the z, x and variance over [t, T] that
    the option carries.
    """
    if state.t > spec.expiry_T1:
        straight = bond_price(state, bond, params)
        return straight.price, straight, None
    option = _option_price(state, spec, bond, params, call, inputs)
    straight = _straight_bond(option.z, option.x, option.total_variance,
                              params)
    return _signed(straight.price, option.price, call), straight, option


def _signed(straight, option, call: bool):
    """straight + option, or for the call straight - option, elementwise."""
    return straight - option if call else straight + option


def puttable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond plus holder put; equals the straight bond after T1."""
    return _bond_with_option(state, spec, bond, params, call=False)[0]


def callable_bond_price(state: model.MarketState, spec: OptionSpec,
                        bond: BondSpec, params: model.ModelParams) -> float:
    """Straight bond minus issuer call; equals the straight bond after T1."""
    return _bond_with_option(state, spec, bond, params, call=True)[0]
