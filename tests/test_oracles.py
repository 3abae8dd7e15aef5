"""Unit tests for the finite-difference and Monte-Carlo pricing oracles."""

import math

import numpy as np
import pytest

from credbond import (
    BondSpec,
    GridConfig,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    call_price,
    callable_bond_price,
    cn_solve,
    mc_forward,
    mc_spot,
    put_price,
    puttable_bond_price,
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


# mc_spot estimate -> its closed-form price at STATE
CLOSED_FORMS = {
    "bond": lambda: bond_price(STATE, BOND, BENCH).price,
    "put": lambda: put_price(STATE, OPT, BOND, BENCH).price,
    "call": lambda: call_price(STATE, OPT, BOND, BENCH).price,
    "puttable": lambda: puttable_bond_price(STATE, OPT, BOND, BENCH),
    "callable": lambda: callable_bond_price(STATE, OPT, BOND, BENCH),
}


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

    @pytest.mark.parametrize("t0,nt", [
        (math.nextafter(1.0, 0.0), 800),
        # one step of one ulp: only the two half steps have zero length
        (math.nextafter(1.0, 0.0), 1),
        (1.0 - 1e-13, 800),
    ])
    def test_rejects_steps_of_zero_length(self, t0, nt):
        with pytest.raises(ResolutionError):
            cn_solve(unit_payoff, t0, 1.0, 2.0, BENCH,
                     grid=GridConfig(nx=800, nt=nt))

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
        est = mc_forward(res.x, 0.0, 2.0, BENCH, 50_000, seed=11)
        assert abs(est.mean * res.z - res.price) <= 3.5 * est.std_error * res.z

    def test_seed_reproducible(self):
        a = mc_forward(1.1, 0.0, 2.0, BENCH, 20_000, seed=3)
        b = mc_forward(1.1, 0.0, 2.0, BENCH, 20_000, seed=3)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_count_invariant(self):
        a = mc_forward(1.1, 0.0, 2.0, BENCH, 30_000,
                       seed=5, workers=1)
        b = mc_forward(1.1, 0.0, 2.0, BENCH, 30_000,
                       seed=5, workers=4)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_different_seeds_differ(self):
        a = mc_forward(1.1, 0.0, 2.0, BENCH, 10_000, seed=1)
        b = mc_forward(1.1, 0.0, 2.0, BENCH, 10_000, seed=2)
        assert a.mean != b.mean

    def test_rejects_bad_paths(self):
        with pytest.raises(SeedError):
            mc_forward(1.1, 0.0, 2.0, BENCH, 0)

    def test_rejects_start_below_barrier(self):
        with pytest.raises(BelowBarrier):
            mc_forward(0.5, 0.0, 2.0, BENCH, 100)


# 40 seeds: the spread of their means over the mean reported se is 1 within
# +-3 sigma at [0.67, 1.34]
CALIBRATION_SEEDS = range(40)

ENGINES = {
    "mc_forward": lambda n, seed: mc_forward(
        bond_price(STATE, BOND, BENCH).x, 0.0, 2.0, BENCH, n, seed=seed),
    "mc_spot": lambda n, seed: mc_spot(
        STATE, BOND, None, BENCH, n, steps_per_year=50, seed=seed)["bond"],
}


class TestStandardError:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_se_matches_spread_across_seeds(self, engine):
        # the samples are antithetic pair means: an se over the path count
        # would understate the spread by about sqrt(2)
        ests = [ENGINES[engine](2048, seed) for seed in CALIBRATION_SEEDS]
        spread = np.std([e.mean for e in ests], ddof=1)
        ratio = spread / np.mean([e.std_error for e in ests])
        assert 0.67 <= ratio <= 1.34, ratio

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_odd_path_count(self, engine):
        # 8193 paths: the last chunk holds one path, its partner dropped
        est = ENGINES[engine](8193, 4)
        assert est.n_paths == 8193
        assert math.isfinite(est.mean) and 0.0 < est.std_error < math.inf


@pytest.fixture(scope="module")
def spot_with_option():
    """All five estimates at STATE from one path set."""
    return mc_spot(STATE, BOND, OPT, BENCH, 20_000, steps_per_year=100,
                   seed=21)


class TestMcSpot:
    def test_bond_within_errors(self):
        res = bond_price(STATE, BOND, BENCH)
        est = mc_spot(STATE, BOND, None, BENCH, 30_000, steps_per_year=200,
                      seed=17)
        assert list(est) == ["bond"]
        assert abs(est["bond"].mean - res.price) <= 3.5 * est["bond"].std_error

    @pytest.mark.parametrize("kind", list(CLOSED_FORMS))
    def test_option_kinds_within_errors(self, spot_with_option, kind):
        assert list(spot_with_option) == list(CLOSED_FORMS)
        est = spot_with_option[kind]
        assert abs(est.mean - CLOSED_FORMS[kind]()) <= 3.5 * est.std_error

    def test_worker_count_invariant(self):
        a = mc_spot(STATE, BOND, OPT, BENCH, 20_000, steps_per_year=100,
                    seed=9, workers=1)
        b = mc_spot(STATE, BOND, OPT, BENCH, 20_000, steps_per_year=100,
                    seed=9, workers=3)
        assert len(a) == 5 and a == b

    def test_rejects_coarse_stepping(self):
        with pytest.raises(StepError):
            mc_spot(STATE, BOND, None, BENCH, 1000, steps_per_year=10)

    def test_last_node_is_maturity(self):
        # here t + n dt rounds to one ulp past T
        t = 0.01900950475237619
        est = mc_spot(MarketState(0.05, 1.0, t), BOND, None, BENCH, 1000)
        assert math.isfinite(est["bond"].mean)

    @pytest.mark.parametrize("t", [1.0, 1.5])
    def test_rejects_option_expiry_not_after_t(self, t):
        with pytest.raises(InvalidTenor):
            mc_spot(MarketState(0.05, 1.0, t), BOND, OPT, BENCH, 1000)

    def test_puttable_dominates_bond(self, spot_with_option):
        bond_est = spot_with_option["bond"]
        puttable_est = spot_with_option["puttable"]
        assert puttable_est.mean >= bond_est.mean - 3.0 * (
            bond_est.std_error + puttable_est.std_error)
