"""Unit tests for the finite-difference and Monte-Carlo pricing oracles."""

import numpy as np
import pytest

from credbond import (
    BondSpec,
    GridConfig,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    cn_solve,
    mc_forward,
    mc_spot,
)
from credbond.bond import survival_curve
from credbond.errors import (
    BelowBarrier,
    InvalidTenor,
    ResolutionError,
    SeedError,
    StepError,
)

BENCH = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                    barrier_b=0.6, recovery_r=0.4)
BOND = BondSpec(maturity_T=2.0)
OPT = OptionSpec(expiry_T1=1.0, exercise_e=0.9)
STATE = MarketState(r=0.05, v=1.0, t=0.0)


def unit_payoff(x):
    return np.ones_like(x)


class TestCnSolve:
    def test_bond_survival_agreement(self):
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                       grid=GridConfig(nx=400, nt=400))
        for x in (0.7, 0.9, 1.1, 1.5):
            exact = survival_curve(x, 0.0, 2.0, 2.0, BENCH)
            assert float(sol.interpolate(x, 0.0)) == pytest.approx(
                exact, abs=2e-5)

    def test_interior_time_slice(self):
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                       grid=GridConfig(nx=400, nt=400))
        exact = survival_curve(1.0, 0.8, 2.0, 2.0, BENCH)
        assert float(sol.interpolate(1.0, 0.8)) == pytest.approx(exact, abs=2e-5)

    def test_terminal_slice_is_payoff(self):
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                       grid=GridConfig(nx=100, nt=50))
        assert float(sol.interpolate(1.0, 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ResolutionError):
            cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=2, nt=10))

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidTenor):
            cn_solve(unit_payoff, 1.0, 1.0, 2.0, BENCH)

    def test_second_order_convergence(self):
        errs = []
        for n in (100, 200, 400):
            sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                           grid=GridConfig(nx=n, nt=n))
            exact = survival_curve(1.1, 0.0, 2.0, 2.0, BENCH)
            errs.append(abs(float(sol.interpolate(1.1, 0.0)) - exact))
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert 3.2 <= errs[1] / errs[2] <= 4.8


class TestMcForward:
    def test_bond_within_errors(self):
        res = bond_price(STATE, BOND, BENCH)
        est = mc_forward(res.x, 0.0, 2.0, unit_payoff, BENCH, 50_000,
                         seed=11, rebate=BENCH.recovery_r)
        assert abs(est.mean * res.z - res.price) <= 3.5 * est.std_error * res.z

    def test_seed_reproducible(self):
        a = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 20_000, seed=3)
        b = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 20_000, seed=3)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_count_invariant(self):
        a = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 30_000,
                       seed=5, workers=1)
        b = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 30_000,
                       seed=5, workers=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_different_seeds_differ(self):
        a = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 10_000, seed=1)
        b = mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 10_000, seed=2)
        assert a.mean != b.mean

    def test_rejects_bad_paths(self):
        with pytest.raises(SeedError):
            mc_forward(1.1, 0.0, 2.0, unit_payoff, BENCH, 0)

    def test_rejects_start_below_barrier(self):
        with pytest.raises(BelowBarrier):
            mc_forward(0.5, 0.0, 2.0, unit_payoff, BENCH, 100)


class TestMcSpot:
    def test_bond_within_errors(self):
        res = bond_price(STATE, BOND, BENCH)
        est = mc_spot(STATE, BOND, None, BENCH, 30_000, steps_per_year=200,
                      seed=17)
        assert abs(est.mean - res.price) <= 3.5 * est.std_error

    def test_worker_count_invariant(self):
        a = mc_spot(STATE, BOND, None, BENCH, 20_000, steps_per_year=100,
                    seed=9, workers=1)
        b = mc_spot(STATE, BOND, None, BENCH, 20_000, steps_per_year=100,
                    seed=9, workers=3)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_rejects_coarse_stepping(self):
        with pytest.raises(StepError):
            mc_spot(STATE, BOND, None, BENCH, 1000, steps_per_year=10)

    def test_rejects_option_kind_without_option(self):
        with pytest.raises(ValueError):
            mc_spot(STATE, BOND, None, BENCH, 1000, kind="put")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            mc_spot(STATE, BOND, OPT, BENCH, 1000, kind="swaption")

    def test_puttable_dominates_bond(self):
        bond_est = mc_spot(STATE, BOND, None, BENCH, 20_000,
                           steps_per_year=100, seed=21)
        puttable_est = mc_spot(STATE, BOND, OPT, BENCH, 20_000,
                               steps_per_year=100, seed=21, kind="puttable")
        assert puttable_est.mean >= bond_est.mean - 3.0 * (
            bond_est.std_error + puttable_est.std_error)
