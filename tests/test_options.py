"""Unit tests for the bond option closed forms and embedded-option composites."""

import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest
from scipy.optimize import brentq

from credbond import (
    BondSpec,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    call_price,
    callable_bond_price,
    find_boundary_l,
    put_call_parity_gap,
    put_price,
    puttable_bond_price,
)
from credbond import bond as bond_mod
from credbond import analytics, cli, model, options
from credbond.bond import survival_curve
from credbond.errors import (
    BelowBarrier,
    DomainError,
    InvalidExercise,
    InvalidTenor,
)
from credbond.model import cum_variance, zcb_price

BENCH = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                    barrier_b=0.6, recovery_r=0.4)
BOND = BondSpec(maturity_T=2.0)
OPT = OptionSpec(expiry_T1=1.0, exercise_e=0.9)
STATE = MarketState(r=0.05, v=1.0, t=0.0)


class TestValidation:
    def test_expiry_after_maturity(self):
        with pytest.raises(InvalidTenor):
            put_price(STATE, OptionSpec(2.5, 0.9), BOND, BENCH)

    def test_exercise_below_recovery(self):
        with pytest.raises(InvalidExercise):
            put_price(STATE, OptionSpec(1.0, 0.3), BOND, BENCH)

    def test_exercise_at_one(self):
        with pytest.raises(InvalidExercise):
            put_price(STATE, OptionSpec(1.0, 1.0), BOND, BENCH)

    def test_evaluation_after_expiry(self):
        with pytest.raises(InvalidTenor):
            put_price(MarketState(0.05, 1.0, 1.5), OPT, BOND, BENCH)

    def test_below_barrier(self):
        z = zcb_price(0.05, 0.0, 2.0, BENCH)
        with pytest.raises(BelowBarrier):
            put_price(MarketState(0.05, 0.9 * BENCH.barrier_b * z, 0.0),
                      OPT, BOND, BENCH)


class TestBoundary:
    def test_defining_equation(self):
        L = find_boundary_l(OPT, BOND, BENCH)
        w = survival_curve(L, OPT.expiry_T1, BOND.maturity_T, BOND.maturity_T,
                           BENCH)
        value = BENCH.recovery_r + (1.0 - BENCH.recovery_r) * w
        assert value == pytest.approx(OPT.exercise_e, abs=1e-13)
        assert L > BENCH.barrier_b

    def test_increasing_in_exercise_level(self):
        levels = [find_boundary_l(OptionSpec(1.0, e), BOND, BENCH)
                  for e in (0.5, 0.7, 0.9, 0.99)]
        assert levels == sorted(levels)


class TestPutCall:
    def test_benchmark_values(self):
        # pinned to this implementation, oracle-verified in the acceptance suite
        put = put_price(STATE, OPT, BOND, BENCH)
        call = call_price(STATE, OPT, BOND, BENCH)
        assert put.price == pytest.approx(0.0055843099306015515, abs=1e-12)
        assert call.price == pytest.approx(0.07574977560429988, abs=1e-12)
        assert put.boundary_l == call.boundary_l

    def test_nonnegative_prices(self):
        for v in (0.62, 0.8, 1.0, 1.6, 4.0):
            st = MarketState(0.05, v, 0.0)
            assert put_price(st, OPT, BOND, BENCH).price >= 0.0
            assert call_price(st, OPT, BOND, BENCH).price >= 0.0

    def test_put_decreasing_call_increasing_in_v(self):
        puts, calls = [], []
        for v in (0.75, 0.9, 1.1, 1.4):
            st = MarketState(0.05, v, 0.0)
            puts.append(put_price(st, OPT, BOND, BENCH).price)
            calls.append(call_price(st, OPT, BOND, BENCH).price)
        assert puts == sorted(puts, reverse=True)
        assert calls == sorted(calls)

    def test_knock_out_near_barrier(self):
        z = zcb_price(0.05, 0.0, 2.0, BENCH)
        v = BENCH.barrier_b * z * (1.0 + 1e-8)
        st = MarketState(0.05, v, 0.0)
        assert put_price(st, OPT, BOND, BENCH).price <= 1e-6
        assert call_price(st, OPT, BOND, BENCH).price <= 1e-6

    def test_parity_gap_tiny(self):
        z = zcb_price(0.05, 0.0, 2.0, BENCH)
        assert abs(put_call_parity_gap(STATE, OPT, BOND, BENCH)) <= 1e-12 * z

    def test_expiry_payoff(self):
        # at t = T1 the put pays (E - bond value)/Z1 in maturity-bond units
        st = MarketState(0.05, 0.75, 1.0)
        put = put_price(st, OPT, BOND, BENCH)
        z1 = 1.0  # strike bond Z(r, T1; T1) = 1 at expiry
        straight = bond_price(st, BOND, BENCH)
        intrinsic = max(0.0, OPT.exercise_e * z1 - straight.price / straight.z)
        assert put.price == pytest.approx(intrinsic * straight.z, abs=1e-12)

    def test_expiry_call_worthless_below_boundary(self):
        st = MarketState(0.05, 0.70, 1.0)
        assert call_price(st, OPT, BOND, BENCH).price == 0.0


class TestComposites:
    def test_puttable_and_callable_composition(self):
        straight = bond_price(STATE, BOND, BENCH).price
        put = put_price(STATE, OPT, BOND, BENCH).price
        call = call_price(STATE, OPT, BOND, BENCH).price
        assert puttable_bond_price(STATE, OPT, BOND, BENCH) == pytest.approx(
            straight + put, abs=1e-15)
        assert callable_bond_price(STATE, OPT, BOND, BENCH) == pytest.approx(
            straight - call, abs=1e-15)

    def test_ordering(self):
        straight = bond_price(STATE, BOND, BENCH).price
        assert (callable_bond_price(STATE, OPT, BOND, BENCH)
                <= straight
                <= puttable_bond_price(STATE, OPT, BOND, BENCH))

    def test_after_expiry_reduces_to_straight(self):
        st = MarketState(0.05, 1.0, 1.5)
        straight = bond_price(st, BOND, BENCH).price
        assert puttable_bond_price(st, OPT, BOND, BENCH) == straight
        assert callable_bond_price(st, OPT, BOND, BENCH) == straight

    @pytest.mark.parametrize("pricer", [puttable_bond_price,
                                        callable_bond_price])
    def test_option_terms_checked_before_the_bond(self, pricer):
        # E = R is an option fault and V below the barrier a bond fault: the
        # option's error comes first, as for the option alone
        spec = OptionSpec(expiry_T1=1.0, exercise_e=BENCH.recovery_r)
        below = MarketState(0.05, 0.1, 0.0)
        with pytest.raises(BelowBarrier):
            bond_price(below, BOND, BENCH)
        with pytest.raises(InvalidExercise):
            pricer(below, spec, BOND, BENCH)

    def test_puttable_floor_at_expiry(self):
        # exercised put floors the holder at E per unit of the strike bond
        st = MarketState(0.05, 0.70, 1.0)
        straight = bond_price(st, BOND, BENCH)
        value = puttable_bond_price(st, OPT, BOND, BENCH)
        assert value == pytest.approx(OPT.exercise_e * straight.z, abs=1e-12)


def _box_case(rng, limit):
    """(params, option, bond) drawn over the whole box, pinned at one limit."""
    theta = 10.0 ** rng.uniform(-1.3, 0.5)
    s_v = rng.uniform(0.05, 0.6)
    rho = rng.uniform(-1.0, 1.0)
    recovery = rng.uniform(0.0, 0.8)
    share = rng.uniform(0.05, 0.95)
    maturity = rng.uniform(0.25, 10.0)
    expiry = maturity * rng.uniform(0.1, 0.9)
    if limit == "theta->0":
        theta = 1e-8
    elif limit == "|rho|->1":
        rho = math.copysign(1.0 - 1e-9, rho)
    elif limit == "E->R+":
        share = 1e-9 * rng.uniform(1.0, 10.0)
    elif limit == "E->1-":
        share = 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
    elif limit == "T1->T":
        expiry = maturity * (1.0 - 10.0 ** rng.uniform(-6.0, -3.0))
    params = ModelParams(theta=theta, mu=rng.uniform(0.0, 0.1),
                         s_r=rng.uniform(0.002, 0.05), s_V=s_v, rho=rho,
                         barrier_b=rng.uniform(0.3, 0.95), recovery_r=recovery)
    spec = OptionSpec(expiry_T1=expiry,
                      exercise_e=recovery + (1.0 - recovery) * share)
    return params, spec, BondSpec(maturity_T=maturity)


BOX_LIMITS = ("interior", "theta->0", "|rho|->1", "E->R+", "E->1-", "T1->T")
_BOX_RNG = np.random.default_rng(2203)
BOX_CASES = [_box_case(_BOX_RNG, limit)
             for _ in range(40) for limit in BOX_LIMITS]


def _reference_l(spec, bond, params):
    """brentq on survival_curve in u = ln(x/B), as tight as brentq allows."""
    b, T1, T = params.barrier_b, spec.expiry_T1, bond.maturity_T
    target = ((spec.exercise_e - params.recovery_r)
              / (1.0 - params.recovery_r))
    hi = 80.0 * math.sqrt(cum_variance(T1, T, T, params))
    u = brentq(lambda u: survival_curve(b * math.exp(u), T1, T, T, params)
               - target, 0.0, hi, xtol=1e-300, rtol=4.0 * sys.float_info.epsilon,
               maxiter=500)
    return b * math.exp(u)


class TestBoundarySolve:
    def test_matches_bracketed_reference(self):
        eps = sys.float_info.epsilon
        for params, spec, bond in BOX_CASES:
            L = find_boundary_l(spec, bond, params)
            ref = _reference_l(spec, bond, params)
            # no solve in doubles pins u = ln(L/B) closer than the roundoff
            # of W over its slope; that band exceeds 1e-14 only as E -> 1
            T1, T = spec.expiry_T1, bond.maturity_T
            slope = (survival_curve(ref * (1.0 + 1e-6), T1, T, T, params)
                     - survival_curve(ref, T1, T, T, params)) / 1e-6
            tol = max(1e-14, 16.0 * eps / slope)
            assert abs(L - ref) <= tol * ref, (params, spec, bond, L, ref)

    def test_few_kernel_evaluations(self, monkeypatch):
        calls = []

        def counted(u, variance):
            calls.append(u)
            return bond_mod._survival(u, variance)

        monkeypatch.setattr(options, "_survival", counted)
        for params, spec, bond in BOX_CASES:
            calls.clear()
            find_boundary_l(spec, bond, params)
            assert len(calls) <= 12, (params, spec, bond, len(calls))

    def test_d_arguments_match_d_fn(self):
        def d_fn(ratio, variance):
            return (math.log(ratio) - 0.5 * variance) / math.sqrt(variance)

        for params, spec, bond in BOX_CASES[:60]:
            b = params.barrier_b
            L = find_boundary_l(spec, bond, params)
            T1, T = spec.expiry_T1, bond.maturity_T
            t = 0.3 * T1
            total = cum_variance(t, T, T, params)
            first = cum_variance(t, T1, T, params)
            for x in (b * (1.0 + 1e-6), 0.5 * (b + L), L, 2.0 * L):
                d = options._d_arguments(x, L, b, total, first)
                ratios = {"b1": x / b, "b2": x / L, "b3": (L / b) * (x / b),
                          "b1_tilde": b / x, "b2_tilde": (b / L) * (b / x),
                          "b3_tilde": L / x}
                assert d["a"] == d_fn(x / b, total)
                assert d["a_tilde"] == d_fn(b / x, total)
                for name, ratio in ratios.items():
                    assert d[name] == d_fn(ratio, first), name
                assert d["delta_bar"] == min(1.0, math.sqrt(first / total))

    def test_composites_price_straight_and_option_once(self):
        for instrument, pricer, sign in (("puttable", put_price, 1.0),
                                         ("callable", call_price, -1.0)):
            for v in (0.62, 1.0, 1.6):
                st = MarketState(0.05, v, 0.3)
                cfg = cli.RunConfig(model=BENCH, bond=BOND, state=st,
                                    option=OPT)
                doc = cli.price_instrument(cfg, instrument)
                straight = bond_price(st, BOND, BENCH).price
                option = pricer(st, OPT, BOND, BENCH)
                assert doc["price"] == straight + sign * option.price
                assert doc["diagnostics"]["L"] == option.boundary_l


    def test_first_guess_where_the_quantile_argument_rounds_to_one(self):
        # R = 0 and E = nextafter(1, 0): 0.5 + 0.5 E rounds to 1, whose
        # normal quantile is infinite; the solve starts at the bracket's top
        params = dataclasses.replace(BENCH, recovery_r=0.0)
        spec = OptionSpec(expiry_T1=1.0, exercise_e=math.nextafter(1.0, 0.0))
        assert 0.5 + 0.5 * spec.exercise_e == 1.0
        L = find_boundary_l(spec, BOND, params)
        assert math.isfinite(L) and L > params.barrier_b
        w = survival_curve(L, spec.expiry_T1, BOND.maturity_T, BOND.maturity_T,
                           params)
        assert w == pytest.approx(spec.exercise_e, abs=4.0 * sys.float_info.epsilon)


    def test_root_where_e_to_the_u_nears_overflow(self):
        # s_V = 18: the solve passes u > 700, where the kernel's tail has no
        # e^u, and the root u = ln(L/B) ~ 180 is a finite float
        params = dataclasses.replace(BENCH, s_V=18.0)
        L = find_boundary_l(OPT, BOND, params)
        assert math.isfinite(L) and L > params.barrier_b
        w = survival_curve(L, OPT.expiry_T1, BOND.maturity_T, BOND.maturity_T,
                           params)
        assert w == pytest.approx((0.9 - 0.4) / 0.6, abs=1e-13)

    @pytest.mark.parametrize("s_v", [40.0, 100.0])
    def test_root_beyond_the_float_range(self, s_v):
        # the root u exceeds ln(max float): L = B e^u is no float
        with pytest.raises(DomainError, match="boundary L"):
            find_boundary_l(OPT, BOND, dataclasses.replace(BENCH, s_V=s_v))


class TestZeroRemainingVariance:
    """s_V = 0 and T1 -> T leave almost no variance after expiry: only the
    rate factor moves x = V/Z, by 2.7e-22 of variance, so L is within 1e-9
    above B and the put is at most 1e-50 Z."""

    PARAMS = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.0, rho=-0.3,
                         barrier_b=0.6, recovery_r=0.4)
    SPEC = OptionSpec(expiry_T1=2.0 * (1.0 - 1e-6), exercise_e=0.9)

    def test_boundary_is_barrier(self):
        L = find_boundary_l(self.SPEC, BOND, self.PARAMS)
        assert L == _reference_l(self.SPEC, BOND, self.PARAMS)
        assert 0.6 < L < 0.6 * (1.0 + 1e-9)

    def test_prices(self):
        for v in (0.62, 1.0, 1.6):
            for t in (0.0, 1.0, self.SPEC.expiry_T1):
                st = MarketState(0.05, v, t)
                z = zcb_price(0.05, t, 2.0, self.PARAMS)
                put = put_price(st, self.SPEC, BOND, self.PARAMS).price
                assert 0.0 <= put <= 1e-50 * z
                call = call_price(st, self.SPEC, BOND, self.PARAMS).price
                assert 0.0 <= call <= (1.0 - self.SPEC.exercise_e) * z
                if t < self.SPEC.expiry_T1:
                    gap = put_call_parity_gap(st, self.SPEC, BOND, self.PARAMS)
                    assert abs(gap) <= 1e-9 * z


class TestBoundaryAtBarrierOnlyWithoutVariance:
    """L = B exactly when no variance remains after T1, where the variances
    over [t, T] and [t, T1] are one and delta_bar = 1; however little
    remains, L lies above B."""

    # maturity 1e-12 and x/B - 1 near 1e-12: 9.8e-17 of the 2.4e-16 variance
    # over [t, T] falls after T1, so L = B (1 + 2.0e-8)
    TINY = (ModelParams(theta=0.003024021692766978, mu=-0.0689850449637792,
                        s_r=0.00677742550760443, s_V=0.015504796021410411,
                        rho=0.19624707338557545, barrier_b=0.5438315145209475,
                        recovery_r=0.14048858074358192),
            OptionSpec(5.931970905767376e-13, 0.9641759062419558),
            BondSpec(1e-12), MarketState(0.05, 0.5438315145214728, 0.0))

    def test_call_at_tiny_maturity_within_the_clamp(self):
        params, spec, bond, state = self.TINY
        call = call_price(state, spec, bond, params)
        # L = B only where nothing remains after T1; here 9.8e-17 does
        if call.boundary_l == params.barrier_b:
            assert call.dvalues["delta_bar"] == 1.0
        assert call.price >= -1e-12 * call.z
        gap = put_call_parity_gap(state, spec, bond, params)
        assert abs(gap) <= 1e-9 * call.z

    def test_variance_below_1e_16_on_both_sides_of_expiry(self):
        # maturity 1e-12, x one ulp above B, 7.1e-17 of variance before T1
        # and 6.8e-17 after it: L is above B, so the call takes W over
        # [T1, T] from L, as the straight bond takes W over [t, T]
        params = ModelParams(
            theta=0.21732217907663975, mu=0.02068281676635038,
            s_r=0.0036896740061445354, s_V=0.011819213038250878,
            rho=-0.04029209017264801, barrier_b=0.4566208086369353,
            recovery_r=0.007413541799852318)
        spec = OptionSpec(5.118189491054939e-13, 0.45317317646807853)
        bond = BondSpec(1e-12)
        state = MarketState(0.05, 0.4566208086369126, 0.0)
        call = call_price(state, spec, bond, params)
        z, recovery = call.z, params.recovery_r
        w1 = survival_curve(call.x, state.t, spec.expiry_T1, bond.maturity_T,
                            params)
        assert call.price <= (1.0 - spec.exercise_e) * w1 * z
        callable_ = callable_bond_price(state, spec, bond, params)
        assert recovery * z <= callable_ <= z
        gap = put_call_parity_gap(state, spec, bond, params)
        assert abs(gap) <= 1e-9 * z

    def test_exercise_one_ulp_above_recovery(self):
        # the root u is positive however small: L stays above B
        spec = OptionSpec(OPT.expiry_T1,
                          math.nextafter(BENCH.recovery_r, 1.0))
        assert find_boundary_l(spec, BOND, BENCH) > BENCH.barrier_b
        z = zcb_price(0.05, 0.0, BOND.maturity_T, BENCH)
        for v in (0.62, 1.0, 1.6):
            gap = put_call_parity_gap(MarketState(0.05, v, 0.0), spec, BOND,
                                      BENCH)
            assert abs(gap) <= 1e-9 * z


class TestRoundoffBeforeExpiry:
    """Within roundoff of T1 the formula's limit is the payoff at T1."""

    PRICERS = {
        "put": lambda st: put_price(st, OPT, BOND, BENCH).price,
        "call": lambda st: call_price(st, OPT, BOND, BENCH).price,
        "puttable": lambda st: puttable_bond_price(st, OPT, BOND, BENCH),
        "callable": lambda st: callable_bond_price(st, OPT, BOND, BENCH),
    }

    @pytest.mark.parametrize("name", list(PRICERS))
    @pytest.mark.parametrize("v", [0.75, 1.0, 1.3])
    def test_prices_as_at_expiry(self, name, v):
        t = math.nextafter(OPT.expiry_T1, 0.0)
        assert cum_variance(t, OPT.expiry_T1, BOND.maturity_T, BENCH) <= 1e-16
        price = self.PRICERS[name](MarketState(0.05, v, t))
        at_expiry = self.PRICERS[name](MarketState(0.05, v, OPT.expiry_T1))
        z = zcb_price(0.05, t, BOND.maturity_T, BENCH)
        assert abs(price - at_expiry) <= 1e-15 * z


def _four_term_block(e, recovery, dl, a, b1, b2, b3):
    """The paper's put block, written out with the scalar CDFs."""
    n, n2 = analytics.norm_cdf, analytics.binorm_cdf
    return ((e - recovery) * (n(b1) - n(b2))
            - (1.0 - recovery) * (n2(a, b1, dl) - n2(a, b2, dl)
                                  + n2(a, -b1, -dl) - n2(a, -b3, -dl)))


def _four_term_put(state, spec, bond, params):
    """put_price with the paper's four-term block, as the parity gap takes it."""
    put = put_price(state, spec, bond, params)
    d = put.dvalues
    if not d:  # the payoff at T1
        return put
    near, image = ((spec.exercise_e, params.recovery_r, d["delta_bar"],
                    *(d[name + suffix] for name in ("a", "b1", "b2", "b3")))
                   for suffix in ("", "_tilde"))
    price = (put.z * _four_term_block(*near)
             - state.v / params.barrier_b * _four_term_block(*image))
    return dataclasses.replace(put, price=options._Scalar.clamp(price))


class TestParityGapOneSolve:
    def test_one_boundary_solve(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return find_boundary_l(*args)

        monkeypatch.setattr(options, "find_boundary_l", counted)
        put_call_parity_gap(STATE, OPT, BOND, BENCH)
        assert len(calls) == 1

    def test_equals_put_minus_call_minus_synthetic(self):
        # the gap's put is the paper's four-term block at put_price's
        # d-values, not put_price's two-term one
        T = BOND.maturity_T
        for params, state in ((BENCH, STATE),
                              (BENCH, MarketState(0.02, 0.7, 0.4)),
                              (TestZeroRemainingVariance.PARAMS, STATE)):
            for spec in (OPT, TestZeroRemainingVariance.SPEC):
                put = _four_term_put(state, spec, BOND, params)
                call = call_price(state, spec, BOND, params)
                x = state.v / put.z
                synthetic = put.z * (
                    (spec.exercise_e - params.recovery_r)
                    * survival_curve(x, state.t, spec.expiry_T1, T, params)
                    - (1.0 - params.recovery_r)
                    * survival_curve(x, state.t, T, T, params))
                assert (put_call_parity_gap(state, spec, BOND, params)
                        == put.price - call.price - synthetic)


class TestExpiryPayoff:
    def test_elementwise_is_the_max_form(self):
        # R + (1-R) W - E changes sign at L: below it only the put pays,
        # above it only the call
        L = find_boundary_l(OPT, BOND, BENCH)
        e = OPT.exercise_e
        xs = np.array([0.61, 0.7, L * (1 - 1e-6), L * (1 + 1e-6), L * 1.005,
                       0.9, 1.5])
        units = bond_mod._unit_value(xs, OPT.expiry_T1, BOND.maturity_T, BENCH)
        put = options._expiry_payoff(units, OPT, call=False)
        call = options._expiry_payoff(units, OPT, call=True)
        assert put.shape == call.shape == xs.shape
        assert np.array_equal(put, np.maximum(e - units, 0.0))
        assert np.array_equal(call, np.maximum(units - e, 0.0))
        assert np.array_equal(put > 0.0, xs < L)
        assert np.array_equal(call > 0.0, xs > L)


class TestParityAtExpiry:
    """At T1, or within roundoff before it, both prices are the T1 payoffs
    and W1 = 1; the gap is still put - call - synthetic."""

    @staticmethod
    def _gap_and_reference(state, spec, params, w_full):
        z = zcb_price(state.r, state.t, BOND.maturity_T, params)
        put = put_price(state, spec, BOND, params).price
        call = call_price(state, spec, BOND, params).price
        synthetic = z * ((spec.exercise_e - params.recovery_r)
                         - (1.0 - params.recovery_r) * w_full)
        gap = put_call_parity_gap(state, spec, BOND, params)
        return gap, put - call - synthetic, z, put, call

    @pytest.mark.parametrize("t", [1.0, math.nextafter(1.0, 0.0)])
    def test_gap_at_expiry(self, t):
        legs = set()
        z = zcb_price(0.05, t, BOND.maturity_T, BENCH)
        at_l = find_boundary_l(OPT, BOND, BENCH) * z
        # x = v/Z on both sides of L, some within 0.1% of it
        for v in (0.62, 0.75, at_l * 0.999, at_l * 1.001, 0.9, 1.0, 1.3):
            state = MarketState(0.05, v, t)
            w_full = survival_curve(v / z, t, BOND.maturity_T,
                                    BOND.maturity_T, BENCH)
            gap, want, z, put, call = self._gap_and_reference(
                state, OPT, BENCH, w_full)
            assert abs(gap - want) <= 1e-15 * z
            assert abs(gap) <= 1e-9 * z
            legs.update(name for name, price in (("put", put), ("call", call))
                        if price > 0.0)
        assert legs == {"put", "call"}

    @pytest.mark.parametrize("at_expiry", [True, False])
    def test_no_variance_left_at_all(self, at_expiry):
        # s_V = 0 and T1 -> T: no variance over [t, T1] nor over [t, T], so
        # W1 = W_T = 1 above the barrier
        params = TestZeroRemainingVariance.PARAMS
        spec = TestZeroRemainingVariance.SPEC
        t = spec.expiry_T1
        if not at_expiry:
            t = math.nextafter(t, 0.0)
        T = BOND.maturity_T
        assert cum_variance(t, T, T, params) <= 1e-16
        for v in (0.62, 1.0, 1.6):
            gap, want, z, _, _ = self._gap_and_reference(
                MarketState(0.05, v, t), spec, params, 1.0)
            assert abs(gap - want) <= 1e-15 * z
            assert abs(gap) <= 1e-9 * z

    def test_gap_raises_what_call_price_raises(self):
        # at s_V = 40 the boundary L lies beyond the float range: at T1
        # call_price raises DomainError, and so does the gap built on it
        params = dataclasses.replace(BENCH, s_V=40.0)
        state = MarketState(0.05, 1.0, OPT.expiry_T1)
        with pytest.raises(DomainError):
            call_price(state, OPT, BOND, params)
        with pytest.raises(DomainError):
            put_call_parity_gap(state, OPT, BOND, params)


class TestScalarAndArrayKernels:
    def test_clamp_agrees(self):
        prices = [-1e-3, -2e-12, -1e-12, -5e-13, -1e-17, 0.0, 1e-17, 0.3]
        want = [options._Scalar.clamp(p) for p in prices]
        assert want == [-1e-3, -2e-12, -1e-12, 0.0, 0.0, 0.0, 1e-17, 0.3]
        assert options._Array.clamp(np.array(prices)).tolist() == want

    def test_option_value_agrees(self):
        # every point of a V sweep, through both kernels
        b, e, recovery = BENCH.barrier_b, OPT.exercise_e, BENCH.recovery_r
        L = find_boundary_l(OPT, BOND, BENCH)
        total = cum_variance(0.3, 2.0, 2.0, BENCH)
        first = cum_variance(0.3, 1.0, 2.0, BENCH)
        z = zcb_price(0.05, 0.3, 2.0, BENCH)
        vs = np.geomspace(b * z * (1.0 + 1e-9), 4.0, 40)
        ones = np.ones_like(vs)
        for block in (options._put_block, options._call_block):
            d = options._d_arguments(vs / z, L * ones, b * ones, total * ones,
                                     first * ones, options._Array)
            got = options._option_value(block, z * ones, vs, b * ones,
                                        e * ones, recovery * ones, d,
                                        options._Array)
            for v, price in zip(vs, got):
                d = options._d_arguments(v / z, L, b, total, first)
                want = options._option_value(block, z, v, b, e, recovery, d)
                assert abs(price - want) <= 1e-15 * z


def _block_cases():
    """(e, R, delta_bar, a, b1, b2, b3) with b2 <= b1 <= b3, as L >= B gives."""
    rng = np.random.default_rng(1515)
    cases = []
    for dl in (0.05, 0.4, 0.7051413912353147, 0.9, 0.925, 0.97, 0.999999, 1.0):
        for _ in range(40):
            recovery = rng.uniform(0.0, 0.8)
            e = recovery + (1.0 - recovery) * rng.uniform(0.01, 0.99)
            a, b1 = rng.uniform(-8.0, 8.0, 2)
            spread = rng.exponential(1.0)
            cases.append((e, recovery, dl, a, b1, b1 - spread, b1 + spread))
        # L = B: b2 = b3 = b1
        cases.append((0.9, 0.4, dl, 1.2, -0.3, -0.3, -0.3))
        # a saturated argument: a, b1 or b3 at or beyond +-40
        for a, b1, spread in ((40.0, 0.5, 1.0), (-45.0, 0.5, 1.0),
                              (1.0, 45.0, 2.0), (1.0, -41.0, 0.5),
                              (0.3, -0.2, 45.0), (50.0, -60.0, 30.0)):
            cases.append((0.9, 0.4, dl, a, b1, b1 - spread, b1 + spread))
    return cases


BLOCK_CASES = _block_cases()


class TestTwoTermPut:
    """A put takes N(a) for Phi2(a, b1; dl) + Phi2(a, -b1; -dl): 4 BVNs."""

    def test_scalar_block_equals_the_four_term_block(self):
        n, n2 = analytics.norm_cdf, partial(map, analytics.binorm_cdf)
        for case in BLOCK_CASES:
            four = _four_term_block(*case)
            assert options._paper_put_block(*case, n, n2) == four
            assert abs(options._put_block(*case, n, n2) - four) <= 1e-15, case

    def test_array_block_equals_the_four_term_block(self):
        e, recovery, dl, a, b1, b2, b3 = map(np.array, zip(*BLOCK_CASES))
        got = options._put_block(e, recovery, dl, a, b1, b2, b3,
                                 analytics._ndtr, analytics.binorm_cdf_array)
        want = [_four_term_block(*case) for case in BLOCK_CASES]
        assert np.max(np.abs(got - want)) <= 1e-15

    @staticmethod
    def _points(params, spec, bond):
        """(states, z, L, total, first) at up to four x above B, before T1."""
        b, T1, T = params.barrier_b, spec.expiry_T1, bond.maturity_T
        L = find_boundary_l(spec, bond, params)
        t = 0.3 * T1
        z = zcb_price(0.05, t, T, params)
        total = cum_variance(t, T, T, params)
        first = cum_variance(t, T1, T, params)
        states = [MarketState(0.05, x * z, t)
                  for x in (b * (1.0 + 1e-9), 0.5 * (b + L), L, 3.0 * L)
                  if x > b]
        return states, z, L, total, first

    def test_put_price_equals_the_four_term_put(self):
        cases = BOX_CASES + [(TestZeroRemainingVariance.PARAMS,
                              TestZeroRemainingVariance.SPEC, BOND)]
        for params, spec, bond in cases:
            for state in self._points(params, spec, bond)[0]:
                put = put_price(state, spec, bond, params)
                want = _four_term_put(state, spec, bond, params).price
                assert abs(put.price - want) <= 1e-15 * put.z, (
                    params, spec, bond, state)

    def test_array_put_equals_the_four_term_put(self):
        for params, spec, bond in BOX_CASES:
            states, z, L, total, first = self._points(params, spec, bond)
            vs = np.array([state.v for state in states])
            ones = np.ones_like(vs)
            b, e, recovery = (params.barrier_b, spec.exercise_e,
                              params.recovery_r)
            d = options._d_arguments(vs / z, L * ones, b * ones,
                                     total * ones, first * ones,
                                     options._Array)
            got = options._option_value(options._put_block, z * ones, vs,
                                        b * ones, e * ones, recovery * ones,
                                        d, options._Array)
            for state, price in zip(states, got):
                want = _four_term_put(state, spec, bond, params).price
                assert abs(price - want) <= 1e-15 * z

    def test_scalar_and_array_agree_over_the_box(self):
        # the last case has L = B (1 + 1.2e-8), with 2.2e-16 of variance
        # before T1 at t = 0.3 T1 and 8e-17 after it
        at_barrier = (dataclasses.replace(BENCH, s_V=0.02),
                      OptionSpec(8e-13, 0.9), BondSpec(1e-12))
        for params, spec, bond in BOX_CASES + [at_barrier]:
            states, z, L, total, first = self._points(params, spec, bond)
            vs = np.array([state.v for state in states])
            ones = np.ones_like(vs)
            b, e, recovery = (params.barrier_b, spec.exercise_e,
                              params.recovery_r)
            for block, pricer in ((options._put_block, put_price),
                                  (options._call_block, call_price)):
                d = options._d_arguments(vs / z, L * ones, b * ones,
                                         total * ones, first * ones,
                                         options._Array)
                got = options._option_value(block, z * ones, vs, b * ones,
                                            e * ones, recovery * ones, d,
                                            options._Array)
                for state, price in zip(states, got):
                    want = pricer(state, spec, bond, params).price
                    assert abs(price - want) <= 1e-15 * z

    @pytest.mark.parametrize("pricer", [put_price, call_price])
    def test_four_bivariate_cdfs_per_option(self, monkeypatch, pricer):
        calls = []
        binorm_cdf = analytics.binorm_cdf

        def counted(*args):
            calls.append(args)
            return binorm_cdf(*args)

        monkeypatch.setattr(analytics, "binorm_cdf", counted)
        pricer(STATE, OPT, BOND, BENCH)
        assert len(calls) == 4


class TestParityIndependence:
    def test_gap_sees_a_biased_bivariate_cdf(self, monkeypatch):
        # the gap's put is the paper's four-term one: against the pricers'
        # two-term put it would cancel every bivariate CDF and read 0
        # whatever they returned
        z = zcb_price(STATE.r, STATE.t, BOND.maturity_T, BENCH)
        assert abs(put_call_parity_gap(STATE, OPT, BOND, BENCH)) <= 1e-9 * z
        binorm_cdf = analytics.binorm_cdf
        monkeypatch.setattr(analytics, "binorm_cdf",
                            lambda *args: (1.0 + 1e-6) * binorm_cdf(*args))
        assert abs(put_call_parity_gap(STATE, OPT, BOND, BENCH)) > 1e-9 * z


class TestCompositePath:
    """A puttable or callable bond prices its straight bond from the inputs
    its option checked."""

    LEGS = (("puttable", "put-option", puttable_bond_price, 1.0),
            ("callable", "call-option", callable_bond_price, -1.0))

    @pytest.mark.parametrize("instrument", ["puttable", "callable"])
    def test_one_discount_bond_and_three_variances(self, monkeypatch,
                                                   instrument):
        counts = {"zcb_price": 0, "cum_variance": 0}
        for name in counts:
            original = getattr(model, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(model, name, counted)
        cfg = cli.RunConfig(model=BENCH, bond=BOND, state=STATE, option=OPT)
        cli.price_instrument(cfg, instrument)
        assert counts == {"zcb_price": 1, "cum_variance": 3}

    @pytest.mark.parametrize("t", [0.3, OPT.expiry_T1, 1.5])
    def test_straight_leg_is_bond_price_bit_for_bit(self, t):
        state = dataclasses.replace(STATE, t=t)
        cfg = cli.RunConfig(model=BENCH, bond=BOND, state=state, option=OPT)
        bond = cli.price_instrument(cfg, "bond")
        straight = bond_price(state, BOND, BENCH)
        for instrument, option, pricer, sign in self.LEGS:
            doc = cli.price_instrument(cfg, instrument)
            want = bond["price"]
            if t <= OPT.expiry_T1:
                want += sign * cli.price_instrument(cfg, option)["price"]
            assert doc["price"] == want
            assert pricer(state, OPT, BOND, BENCH) == doc["price"]
            for key in ("z", "x", "w", "total_variance"):
                assert doc["diagnostics"][key] == bond["diagnostics"][key]
                assert doc["diagnostics"][key] == getattr(straight, key)
