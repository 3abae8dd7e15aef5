"""Unit tests for the rate model and the forward-measure variance structure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credbond import BondSpec, MarketState, ModelParams, OptionSpec, options
from credbond.errors import DomainError, InvalidTenor
from credbond.model import (
    abar,
    bbar,
    cum_variance,
    sigma_x2,
    zcb_price,
)
from quadrature import integrate

BENCH = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                    barrier_b=0.6, recovery_r=0.4)


def params(**kw):
    base = dict(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                barrier_b=0.6, recovery_r=0.4)
    base.update(kw)
    return ModelParams(**base)


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            params(theta=0.0)
        with pytest.raises(ValueError):
            params(s_r=-0.01)
        with pytest.raises(ValueError):
            params(s_r=0.0, s_V=0.0)
        with pytest.raises(ValueError):
            params(rho=1.2)
        with pytest.raises(ValueError):
            params(barrier_b=0.0)
        with pytest.raises(ValueError):
            params(recovery_r=1.0)

    def test_boundary_rho_allowed(self):
        params(rho=-1.0)
        params(rho=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("spec,name", [
        pytest.param(spec, f.name, id=f"{type(spec).__name__}.{f.name}")
        for spec in (BENCH, MarketState(r=0.05, v=1.0, t=0.0),
                     BondSpec(maturity_T=2.0),
                     OptionSpec(expiry_T1=1.0, exercise_e=0.9))
        for f in dataclasses.fields(spec)
    ])
    def test_rejects_non_finite_field(self, spec, name, value):
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(spec, **{name: value})


class TestDiscountBond:
    def test_bbar_frozen_value(self):
        # (1 - e^-1) / 1
        assert bbar(0.0, 1.0, BENCH) == pytest.approx(
            0.6321205588285577, abs=1e-15)

    def test_abar_pure_drift_value(self):
        # with s_r = 0: abar = -mu*(tau - bbar) at theta = 1
        p = params(s_r=0.0)
        assert abar(0.0, 1.0, p) == pytest.approx(
            -0.018393972058572117, abs=1e-15)

    def test_abar_matches_quadrature(self):
        for theta in (1e-10, 1e-7, 0.05, 1.0, 4.0):
            p = params(theta=theta, s_r=0.015)
            direct = abar(0.3, 2.7, p)
            quad = integrate(
                lambda s: (-p.theta * p.mu * bbar(s, 2.7, p)
                           + 0.5 * p.s_r ** 2 * bbar(s, 2.7, p) ** 2),
                0.3, 2.7, tol=1e-14)
            assert direct == pytest.approx(quad, abs=1e-13)

    def test_zcb_terminal_and_monotonic(self):
        assert zcb_price(0.07, 2.0, 2.0, BENCH) == 1.0
        assert zcb_price(0.08, 0.0, 2.0, BENCH) < zcb_price(0.02, 0.0, 2.0, BENCH)

    def test_zcb_negative_rate_allowed(self):
        z = zcb_price(-0.01, 0.0, 1.0, BENCH)
        assert z > zcb_price(0.01, 0.0, 1.0, BENCH)
        # with no pull toward a positive long-run level Z exceeds par
        flat = ModelParams(theta=1.0, mu=-0.01, s_r=0.0, s_V=0.2, rho=0.0,
                           barrier_b=0.6, recovery_r=0.4)
        assert zcb_price(-0.01, 0.0, 1.0, flat) > 1.0

    def test_tenor_order_enforced(self):
        with pytest.raises(InvalidTenor):
            zcb_price(0.05, 1.0, 0.5, BENCH)

    @pytest.mark.parametrize("r,p", [(-1e4, BENCH), (1e4, BENCH),
                                     (0.05, params(mu=-1e300)),
                                     (0.05, params(mu=1e300)),
                                     (0.05, params(s_r=1e150))])
    def test_zcb_beyond_float_range_rejected(self, r, p):
        # exp(abar - bbar*r) would overflow, or underflow to 0
        with pytest.raises(DomainError):
            zcb_price(r, 0.0, 2.0, p)

    def test_small_theta_branch_continuity(self):
        # straddle the Taylor/closed-form crossover at theta*tau = 0.05
        lo = params(theta=0.0499999)
        hi = params(theta=0.0500001)
        assert zcb_price(0.05, 0.0, 1.0, lo) == pytest.approx(
            zcb_price(0.05, 0.0, 1.0, hi), rel=1e-9)


class TestVarianceStructure:
    def test_sigma_x2_matches_components(self):
        t, T = 0.5, 2.0
        bb = bbar(t, T, BENCH)
        expect = (BENCH.s_r ** 2 * bb ** 2 + BENCH.s_V ** 2
                  + 2.0 * BENCH.rho * BENCH.s_r * BENCH.s_V * bb)
        assert sigma_x2(t, T, BENCH) == pytest.approx(expect, abs=1e-18)

    def test_sigma_x2_vanishes_at_offsetting_hedge(self):
        # rho = -1 and s_V = s_r * bbar make x locally deterministic
        t, T = 0.0, 2.0
        p0 = params(rho=-1.0, s_r=0.2)
        p = params(rho=-1.0, s_r=0.2, s_V=0.2 * bbar(t, T, p0))
        assert sigma_x2(t, T, p) == pytest.approx(0.0, abs=1e-18)

    def test_sigma_x2_terminal_limit(self):
        # bbar -> 0 at t = T, leaving the pure firm-value variance
        assert sigma_x2(2.0, 2.0, BENCH) == pytest.approx(
            BENCH.s_V ** 2, abs=1e-18)

    def test_cum_variance_matches_quadrature(self):
        for p in (BENCH, params(theta=1e-9), params(rho=0.8, s_r=0.05)):
            direct = cum_variance(0.2, 1.4, 3.0, p)
            quad = integrate(lambda u: sigma_x2(u, 3.0, p), 0.2, 1.4, tol=1e-14)
            assert direct == pytest.approx(quad, abs=1e-13)

    def test_cum_variance_additive(self):
        total = cum_variance(0.0, 2.0, 2.0, BENCH)
        split = (cum_variance(0.0, 0.7, 2.0, BENCH)
                 + cum_variance(0.7, 2.0, 2.0, BENCH))
        assert split == pytest.approx(total, abs=1e-16)

    def test_cum_variance_tenor_order(self):
        with pytest.raises(InvalidTenor):
            cum_variance(0.0, 2.5, 2.0, BENCH)

    @pytest.mark.parametrize("p", [
        # s_V ** 2 is finite, twice it (the variance over [0, 2]) is not
        params(s_V=1.2e154),
        # both squares finite, their sum inf - inf = nan
        params(s_r=1.3e154, s_V=1.3e154, rho=-1.0),
    ])
    def test_cum_variance_not_finite_rejected(self, p):
        with pytest.raises(DomainError, match="variance"):
            cum_variance(0.0, 2.0, 2.0, p)

    @given(st.floats(0.01, 5.0), st.floats(-1.0, 1.0),
           st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_cum_variance_nonnegative(self, theta, rho, s_r, s_V):
        if s_r + s_V <= 0.0:
            return
        p = params(theta=theta, rho=rho, s_r=s_r, s_V=s_V)
        assert cum_variance(0.0, 1.3, 2.0, p) >= 0.0


class TestDeltaBar:
    """delta_bar = min(1, sqrt(first / total)), as options._d_arguments forms it."""

    @staticmethod
    def delta_bar(t, T1, T, p):
        # at x = 1 and an L above B, on the array kernel, which also takes
        # the zero variance over [t, t] that no price reaches
        b = np.array([p.barrier_b])
        total = np.array([cum_variance(t, T, T, p)])
        first = np.array([cum_variance(t, T1, T, p)])
        with np.errstate(divide="ignore", invalid="ignore"):
            d = options._d_arguments(np.ones(1), 2.0 * b, b, total, first,
                                     options._Array)
        return float(d["delta_bar"][0])

    def test_limits(self):
        assert self.delta_bar(0.0, 0.0, 2.0, BENCH) == 0.0
        assert self.delta_bar(0.0, 2.0, 2.0, BENCH) == pytest.approx(
            1.0, abs=1e-15)

    def test_monotone_in_t1(self):
        vals = [self.delta_bar(0.0, t1, 2.0, BENCH)
                for t1 in (0.2, 0.8, 1.5, 1.9)]
        assert vals == sorted(vals)


def test_frozen_dataclasses():
    p = params()
    with pytest.raises(AttributeError):
        p.theta = 2.0
