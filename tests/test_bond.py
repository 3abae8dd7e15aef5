"""Unit tests for the straight-bond closed form."""

import math

import numpy as np
import pytest

from credbond import BondSpec, MarketState, ModelParams, bond_price, survival_w
from credbond import analytics
from credbond.options import _d
from credbond.bond import _TAIL_U, _survival, _unit_value, survival_curve
from credbond.errors import (
    BelowBarrier,
    DomainError,
    InvalidTenor,
)
from credbond.model import cum_variance, zcb_price

BENCH = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                    barrier_b=0.6, recovery_r=0.4)
BOND = BondSpec(maturity_T=2.0)
STATE = MarketState(r=0.05, v=1.0, t=0.0)


class TestBondSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BondSpec(maturity_T=0.0)
        # the face value is always 1, so there is no field to set
        with pytest.raises(TypeError):
            BondSpec(maturity_T=2.0, face=100.0)


class TestDFn:
    def test_matches_definition(self):
        # the d-value (ln ratio - I/2) / sqrt(I) of the option formulas
        ratio = 1.7
        var = cum_variance(0.0, 1.0, 2.0, BENCH)
        expect = (math.log(ratio) - 0.5 * var) / math.sqrt(var)
        assert _d(ratio, 0.5 * var, math.sqrt(var), math.log) == pytest.approx(
            expect, abs=1e-15)


class TestSurvival:
    def test_zero_at_barrier(self):
        assert survival_w(BENCH.barrier_b, 0.0, BOND, BENCH) == 0.0

    def test_range_and_monotone(self):
        xs = np.linspace(0.61, 3.0, 50)
        ws = [survival_w(x, 0.0, BOND, BENCH) for x in xs]
        assert all(0.0 <= w < 1.0 for w in ws)
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_deep_in_the_money_limit(self):
        assert survival_w(50.0, 0.0, BOND, BENCH) == pytest.approx(1.0, abs=1e-9)

    def test_below_barrier_rejected(self):
        with pytest.raises(DomainError):
            survival_w(0.5, 0.0, BOND, BENCH)

    @pytest.mark.parametrize("t,T1,T", [(1.0, 1.0, 2.0), (0.0, 0.0, 0.0)])
    def test_zero_variance_survives(self, t, T1, T):
        # no variance over [t, T1]: above the barrier the firm cannot reach it
        assert survival_curve(1.5, t, T1, T, BENCH) == 1.0

    def test_zero_variance_matches_bond_price(self):
        # s_r = 1e-200 squares to 0 and s_V = 0: cum_variance is exactly 0
        params = ModelParams(theta=1.0, mu=0.05, s_r=1e-200, s_V=0.0, rho=0.0,
                             barrier_b=0.6, recovery_r=0.4)
        bond = BondSpec(maturity_T=2.0)
        result = bond_price(MarketState(r=0.05, v=1.0, t=0.0), bond, params)
        assert result.total_variance == 0.0
        assert survival_w(result.x, 0.0, bond, params) == result.w == 1.0

    def test_general_horizon_consistency(self):
        full = survival_curve(1.1, 0.0, 2.0, 2.0, BENCH)
        assert survival_w(1.1, 0.0, BOND, BENCH) == full

    def test_t_at_maturity_rejected(self):
        with pytest.raises(InvalidTenor):
            survival_w(1.1, 2.0, BOND, BENCH)

    @pytest.mark.parametrize("u", [650.0, math.nextafter(_TAIL_U, 0.0),
                                   math.nextafter(_TAIL_U, math.inf), 705.0,
                                   709.0])
    def test_tail_above_threshold_is_the_direct_form(self, u):
        # I = 2u puts d1 at 0, where the tail e^u N(d2) is largest; up to
        # u = 709 the direct form is still a finite float to compare with
        variance = 2.0 * u
        d2 = -2.0 * u / math.sqrt(variance)
        tail = math.exp(u) * analytics.norm_cdf(d2)
        slope = 2.0 / (math.sqrt(2.0 * math.pi) * math.sqrt(variance)) - tail
        w, kernel_slope = _survival(u, variance)
        assert w == pytest.approx(0.5 - tail, abs=1e-14)
        assert kernel_slope == pytest.approx(slope, abs=1e-14)

    @pytest.mark.parametrize("u,variance", [(710.0, 4.0), (1e6, 2e6),
                                            (math.inf, 0.04),
                                            (math.inf, 1e300)])
    def test_far_above_barrier_no_overflow(self, u, variance):
        w, slope = _survival(u, variance)
        assert 0.0 <= w <= 1.0 and math.isfinite(slope)
        if u == math.inf:
            assert (w, slope) == (1.0, 0.0)


class TestBondPrice:
    def test_benchmark_value(self):
        # pinned output of this implementation at the benchmark point,
        # cross-checked against the finite-difference and Monte-Carlo oracles
        res = bond_price(STATE, BOND, BENCH)
        assert res.price == pytest.approx(0.883315383594219, abs=1e-12)
        assert res.z == pytest.approx(0.9048718709532549, abs=1e-12)
        assert res.x == pytest.approx(STATE.v / res.z, abs=1e-15)

    def test_bounds(self):
        res = bond_price(STATE, BOND, BENCH)
        assert BENCH.recovery_r * res.z < res.price < res.z

    def test_increasing_in_firm_value(self):
        prices = [bond_price(MarketState(0.05, v, 0.0), BOND, BENCH).price
                  for v in (0.7, 0.9, 1.1, 1.5, 2.5)]
        assert prices == sorted(prices)

    def test_at_maturity(self):
        res = bond_price(MarketState(0.05, 1.0, 2.0), BOND, BENCH)
        assert res.price == 1.0

    def test_below_barrier(self):
        z = zcb_price(0.05, 0.0, 2.0, BENCH)
        with pytest.raises(BelowBarrier):
            bond_price(MarketState(0.05, 0.5 * BENCH.barrier_b * z, 0.0),
                       BOND, BENCH)

    def test_after_maturity(self):
        with pytest.raises(InvalidTenor):
            bond_price(MarketState(0.05, 1.0, 2.5), BOND, BENCH)

    def test_zero_recovery_pure_survival(self):
        p = ModelParams(1.0, 0.05, 0.01, 0.2, -0.3, 0.6, 0.0)
        res = bond_price(STATE, BOND, p)
        assert res.price == pytest.approx(res.w * res.z, abs=1e-15)

    def test_recovery_floor_near_barrier(self):
        z = zcb_price(0.05, 0.0, 2.0, BENCH)
        v = BENCH.barrier_b * z * (1.0 + 1e-10)
        res = bond_price(MarketState(0.05, v, 0.0), BOND, BENCH)
        assert res.price == pytest.approx(BENCH.recovery_r * z, rel=1e-6)


class TestUnitValue:
    """The array bond value R + (1-R) W that the option payoffs at T1 use."""

    CASES = [
        (BENCH, 0.0, 2.0), (BENCH, 1.0, 2.0), (BENCH, 1.99, 2.0),
        (ModelParams(1e-8, 0.05, 0.01, 0.2, -0.3, 0.6, 0.4), 0.0, 2.0),
        (ModelParams(1.0, 0.05, 0.2, 0.2, 1.0 - 1e-9, 0.6, 0.4), 0.5, 2.0),
        (ModelParams(1.0, 0.05, 0.2, 0.2, -1.0 + 1e-9, 0.6, 0.4), 0.5, 2.0),
        (ModelParams(0.05, 0.05, 0.02, 0.3, 0.9, 0.3025, 0.1), 0.0, 10.0),
    ]

    @pytest.mark.parametrize("params,t,T", CASES)
    def test_matches_survival_curve(self, params, t, T):
        b, recovery = params.barrier_b, params.recovery_r
        xs = np.geomspace(b * (1.0 + 1e-9), 50.0 * b, 300)
        ref = np.array([recovery + (1.0 - recovery)
                        * survival_curve(x, t, T, T, params) for x in xs])
        assert np.max(np.abs(_unit_value(xs, t, T, params) - ref)) <= 1e-15

    def test_recovery_at_and_below_barrier(self):
        p = ModelParams(1.0, 0.05, 0.01, 0.2, -0.3, 0.3025, 0.4)
        below = np.exp(np.log(0.3025))
        assert below < 0.3025
        xs = np.array([0.1, below, 0.3025])
        assert np.all(_unit_value(xs, 0.0, 2.0, p) == p.recovery_r)

    def test_one_above_barrier_without_variance(self):
        p = ModelParams(1.0, 0.05, 0.01, 0.0, -0.3, 0.6, 0.4)
        xs = np.array([0.5, 0.6, 0.6 * (1.0 + 1e-12), 1.0, 40.0])
        values = _unit_value(xs, 2.0 * (1.0 - 1e-9), 2.0, p)
        assert list(values) == [0.4, 0.4, 1.0, 1.0, 1.0]


class TestZeroVarianceBond:
    """s_V = 0 and t -> T leave no variance: W = 1 above the barrier."""

    PARAMS = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.0, rho=-0.3,
                         barrier_b=0.6, recovery_r=0.4)

    def test_kernel_at_zero_variance(self):
        # a variance that rounds to 0 must not divide by zero
        assert _survival(1e-12, 0.0) == (1.0, 0.0)
        assert _survival(1.0, 1e-16) == (1.0, 0.0)

    @pytest.mark.parametrize("v", [0.62, 1.0, 1.6])
    def test_price_is_discount_bond(self, v):
        t = 2.0 - 2e-9
        res = bond_price(MarketState(0.05, v, t), BOND, self.PARAMS)
        z = zcb_price(0.05, t, 2.0, self.PARAMS)
        assert res.w == 1.0
        assert res.price == z
        assert self.PARAMS.recovery_r * z < res.price <= z
