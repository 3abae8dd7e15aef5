"""Unit tests for the finite-difference and Monte-Carlo pricing oracles."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import ndtr

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
from credbond import model, oracles
from credbond.bond import _unit_value, survival_curve
from credbond.options import _expiry_payoff
from credbond.errors import (
    BelowBarrier,
    DegenerateVariance,
    DomainError,
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

    def test_rejects_grid_spacing_at_roundoff(self):
        # sqrt(I) = 5.7e-16 over [0, 1e-9]: at nx = 40 the step is one ulp of
        # ln B and the nodes lie one or two ulps apart, all distinct
        params = ModelParams(theta=1e-12, mu=0.0, s_r=0.03125, s_V=0.0,
                             rho=-1.0, barrier_b=0.5, recovery_r=0.0)
        y = np.linspace(math.log(0.5), math.log(0.5)
                        + 8.0 * math.sqrt(model.cum_variance(
                            0.0, 1e-9, 1e-9, params)), 41)
        assert np.all(np.diff(y) > 0.0)
        with pytest.raises(DegenerateVariance):
            cn_solve(unit_payoff, 0.0, 1e-9, 1e-9, params,
                     grid=GridConfig(nx=40, nt=40))

    def test_rejects_far_node_beyond_float_range(self):
        # 8 sqrt(I) = 1358 > ln(max float): refused before np.exp
        params = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=120.0,
                             rho=-0.3, barrier_b=0.6, recovery_r=0.4)
        with pytest.raises(DomainError, match="far node"):
            cn_solve(unit_payoff, 0.0, 2.0, 2.0, params,
                     grid=GridConfig(nx=50, nt=50))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_payoff(self, bad):
        def payoff(x):
            out = np.ones_like(x)
            out[len(x) // 2] = bad
            return out
        with pytest.raises(DomainError):
            cn_solve(payoff, 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=50, nt=50))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry_in_one_payoff_row(self, bad):
        def payoffs(x):
            out = np.ones((2, len(x)))
            out[1, len(x) // 2] = bad
            return out
        with pytest.raises(DomainError):
            cn_solve(payoffs, 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=50, nt=50))

    def test_rejects_overflowing_surface(self):
        # a finite payoff whose first step overflows the right-hand side
        with pytest.raises(DomainError):
            cn_solve(lambda x: np.full_like(x, 1e308), 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=50, nt=50))

    @pytest.mark.parametrize("nx,nt", [(100, 100), (100, 1)])
    def test_payoff_rows_march_as_their_own_solves(self, nx, nt):
        # at nt = 1 only the two Rannacher half steps run
        grid = GridConfig(nx=nx, nt=nt)
        payoffs = (unit_payoff, lambda x: np.maximum(0.9 - 0.5 * x, 0.0))
        both = cn_solve(lambda x: np.array([f(x) for f in payoffs]),
                        0.0, 1.0, 2.0, BENCH, grid=grid)
        assert both.values.shape == (nt + 1, 2, nx + 1)
        xs = np.array([[0.7, 1.0], [1.3, 2.1]])
        for j, payoff in enumerate(payoffs):
            one = cn_solve(payoff, 0.0, 1.0, 2.0, BENCH, grid=grid)
            assert one.values.shape == (nt + 1, nx + 1)
            assert np.array_equal(both.values[:, j], one.values)
            for t in (0.0, 0.37, 1.0):
                got = both.interpolate(xs, t)
                assert got.shape == (2,) + xs.shape
                assert np.array_equal(got[j], one.interpolate(xs, t))

    def test_second_order_convergence(self):
        errs = []
        for n in (100, 200, 400):
            sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                           grid=GridConfig(nx=n, nt=n))
            exact = survival_curve(1.1, 0.0, 2.0, 2.0, BENCH)
            errs.append(abs(float(sol.interpolate(1.1, 0.0)) - exact))
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert 3.2 <= errs[1] / errs[2] <= 4.8


class TestGridSolutionInterpolate:
    @pytest.fixture(scope="class")
    def sol(self):
        return cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                        grid=GridConfig(nx=20, nt=20))

    @pytest.mark.parametrize("x", [0.3, [0.3, 1.0],
                                   math.nextafter(0.6, 0.0), 0.0, -1.0])
    def test_below_the_barrier_raises(self, sol, x):
        with pytest.raises(BelowBarrier):
            sol.interpolate(x, 0.5)

    @pytest.mark.parametrize("x,t", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 0.5), (math.inf, 0.5),
        ([1.0, math.nan], 0.5), (-math.inf, 0.5),
    ])
    def test_non_finite_point_raises(self, sol, x, t):
        with pytest.raises(DomainError):
            sol.interpolate(x, t)

    # exp(ln B) rounds above B at B = 0.1004, onto it at 0.4513 and below it
    # at 0.3025; np.log can differ from math.log by an ulp (numpy 2.4 puts
    # ln 0.4513 one ulp lower)
    @pytest.mark.parametrize("b", [0.6, 0.1004, 0.4513, 0.3025])
    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    def test_barrier_is_zero(self, b, t):
        params = dataclasses.replace(BENCH, barrier_b=b)
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, params,
                       grid=GridConfig(nx=20, nt=20))
        first = np.exp(sol.log_x_nodes)[0]
        assert float(sol.interpolate(b, t)) == 0.0
        assert float(sol.interpolate(first, t)) == 0.0
        assert sol.interpolate([b, 2.0 * b], t)[0] == 0.0


class TestSolveTridiagonal:
    @pytest.mark.parametrize("n", [5, 799])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_solve_banded(self, n, seed):
        rng = np.random.default_rng(seed)
        sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
        rhs = rng.standard_normal(n)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
        expected = solve_banded((1, 1), ab, rhs)
        got = oracles._solve_tridiagonal(sub.copy(), diag.copy(), sup.copy(),
                                         rhs.copy())
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [5, 799])
    def test_columns_equal_solve_banded(self, n):
        rng = np.random.default_rng(n)
        sub, sup = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
        rhs = np.asfortranarray(rng.standard_normal((n, 2)))
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
        expected = [solve_banded((1, 1), ab, rhs[:, j]) for j in range(2)]
        got = oracles._solve_tridiagonal(sub.copy(), diag.copy(), sup.copy(),
                                         rhs.copy(order="F"))
        assert got.shape == (n, 2)
        for j in range(2):
            assert np.array_equal(got[:, j], expected[j])

    def test_singular_system_raises(self):
        # a zero main and super-diagonal: the last column is zero
        with pytest.raises(ResolutionError):
            oracles._solve_tridiagonal(np.ones(3), np.zeros(4), np.zeros(3),
                                       np.ones(4))


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

    def test_equal_samples_have_zero_std_error(self):
        # x0 = 1e4 B: every bridge factor rounds to 1, so each sample is
        # R + (1 - R) = 1 and the sample variance is exactly 0; D spreads
        # and enters, but has nothing to fit
        est = mc_forward(1e4 * BENCH.barrier_b, 0.0, 2.0, BENCH, 16384,
                         seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    # at t = T every step has v = 0; at s_V = 1e-155 and s_r = 0 the step's
    # v = 2e-310 and 2 / v overflows.  Either way survival stays 1, with no
    # numpy warning from dividing by v
    @pytest.mark.parametrize("t,s_v", [(2.0, 0.2), (0.0, 1e-155)])
    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_vanishing_variance_keeps_survival(self, t, s_v, n_steps):
        params = dataclasses.replace(BENCH, s_r=0.0, s_V=s_v)
        est = mc_forward(1.1, t, 2.0, params, 1001, seed=1, n_steps=n_steps)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    @pytest.mark.parametrize("var", [0.0, 2e-310])
    def test_bridge_survival_limit_where_two_over_var_overflows(self, var):
        got = oracles._bridge_survival(np.array([0.5, 0.0, -0.5]), var)
        assert np.array_equal(got, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("n_steps", [1, 16])
    def test_normal_draws_only(self, monkeypatch, n_steps):
        # each step draws one normal per antithetic pair, and nothing else;
        # the last chunk of 1001 paths is odd
        n_paths = 2 * oracles._CHUNK + 1001
        args = (1.1, 0.0, 2.0, BENCH, n_paths)
        expected = mc_forward(*args, seed=5, n_steps=n_steps)
        logs = log_draws(monkeypatch, NormalsOnly)
        assert mc_forward(*args, seed=5, n_steps=n_steps) == expected
        sizes = [oracles._CHUNK, oracles._CHUNK, 1001]
        assert logs == {index: [("normal", math.ceil(size / 2))] * n_steps
                        for index, size in enumerate(sizes)}

    def test_rejects_start_below_barrier(self):
        with pytest.raises(BelowBarrier):
            mc_forward(0.5, 0.0, 2.0, BENCH, 100)


class NormalsOnly:
    """A chunk's generator that logs its standard_normal draws and allows
    no other draw."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def standard_normal(self, size=None, out=None):
        got = self.rng.standard_normal(size, out=out)
        self.log.append(("normal", np.size(got)))
        return got


def log_draws(monkeypatch, logged):
    """Wrap each chunk's generator in logged; returns chunk index -> log."""
    logs = {}
    chunk_rng = oracles._chunk_rng
    monkeypatch.setattr(
        oracles, "_chunk_rng", lambda seed, index: logged(
            chunk_rng(seed, index), logs.setdefault(index, [])))
    return logs


# 40 seeds: the spread of their means over the mean reported se is 1 within
# +-3 sigma at [0.67, 1.34]
CALIBRATION_SEEDS = range(40)

ENGINES = {
    "mc_forward": lambda n, seed: mc_forward(
        bond_price(STATE, BOND, BENCH).x, 0.0, 2.0, BENCH, n, seed=seed),
    "mc_spot": lambda n, seed: mc_spot(
        STATE, BOND, None, BENCH, n, steps_per_year=50, seed=seed)["bond"],
}

# path counts whose last chunk ends on an incomplete pair or group
PATH_COUNTS = {"mc_forward": (8193,), "mc_spot": (8193, 8194, 8195, 8196)}


class TestStandardError:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_se_matches_spread_across_seeds(self, engine):
        # the samples are the means of dependent paths, an antithetic pair in
        # mc_forward and two in mc_spot: an se over the path count would
        # understate the spread by about sqrt(2) and 2
        ests = [ENGINES[engine](2048, seed) for seed in CALIBRATION_SEEDS]
        spread = np.std([e.mean for e in ests], ddof=1)
        ratio = spread / np.mean([e.std_error for e in ests])
        assert 0.67 <= ratio <= 1.34, ratio

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_odd_path_count(self, engine):
        # 8193 paths: the last chunk holds one path, its partner dropped; in
        # mc_spot the last chunk's group keeps 1 to 4 of its paths
        for n_paths in PATH_COUNTS[engine]:
            est = ENGINES[engine](n_paths, 4)
            assert est.n_paths == n_paths
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

    def test_bond_within_errors_near_barrier(self):
        # x = 1.2 B: many paths pass near the barrier, where their bridge
        # factors fall below 1 and pay part of the rebate
        state = MarketState(r=0.05, v=0.65, t=0.0)
        res = bond_price(state, BOND, BENCH)
        est = mc_spot(state, BOND, None, BENCH, 30_000, steps_per_year=200,
                      seed=17)["bond"]
        assert abs(est.mean - res.price) <= 3.5 * est.std_error

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


def reference_mc_spot(state, bond, option, params, n_paths, steps_per_year,
                      seed):
    """mc_spot with a two-row path-step that allocates every intermediate.

    Written out from the engine as it stood before its path-step reused
    buffers, r, ln V and the discount stepped on each row.  Each path's
    survival probability takes the bridge factor 1 - exp(-2 g+ g' / v_step)
    of every step on every path, with no cutoff, or 0 where g' <= 0, and
    the probability a step takes off pays R Z e^{-int r du} at its end
    node; at T1 the option payoffs and the held bond's value are weighted
    by the survival probability, and at T its rest pays 1.  The controls'
    X = ln(M / M_0) steps on each row by its own recursion, -s_V^2 dt / 2
    plus the ln V noise, and the survival S takes its bridge factor on every
    path, with no cutoff, at the engine's update nodes.  The chunking, seeding and
    reduction are the engine's own, so a difference can only come from the
    step's arithmetic.  Each step draws one (z1, z2) per group of four
    paths: columns q and Q + q of the (2, 2 Q) paths step on +-(z1, z2) and
    +-(-z2, z1), and each group scores its mean (see oracles._group_means).
    """
    T = bond.maturity_T
    n_steps = max(1, math.ceil((T - state.t) * steps_per_year))
    dt = (T - state.t) / n_steps
    grid_times = np.append(state.t + dt * np.arange(n_steps), T)
    step_dts = [dt] * n_steps
    expiry_step = None
    if option is not None:
        T1 = option.expiry_T1
        k = int(np.searchsorted(grid_times, T1))
        if grid_times[k] != T1:
            step_dts[k - 1:k] = [T1 - grid_times[k - 1], grid_times[k] - T1]
            grid_times = np.insert(grid_times, k, T1)
        expiry_step = k - 1
    theta, mu, s_r, s_v, rho = (params.theta, params.mu, params.s_r,
                                params.s_V, params.rho)
    steps = [(h, math.exp(-theta * h),
              s_r * math.sqrt(-math.expm1(-2.0 * theta * h) / (2.0 * theta)),
              math.sqrt(h)) for h in step_dts]
    rho_c = math.sqrt(1.0 - rho * rho)
    ab = np.array([model.abar(u, T, params) for u in grid_times])
    bb = np.array([model.bbar(u, T, params) for u in grid_times])
    step_vars = np.array([
        model.cum_variance(grid_times[i], grid_times[i + 1], T, params)
        for i in range(len(step_dts))])
    log_b = math.log(params.barrier_b)
    signs = np.array([[1.0], [-1.0]])
    g0 = math.log(state.v) - (ab[0] - bb[0] * state.r) - log_b
    updates = [i for i in range(len(steps))
               if (i + 1) % oracles._SURVIVAL_STRIDE == 0
               or i + 1 == len(steps) or i == expiry_step]

    def run_chunk(chunk_index, size):
        rng = oracles._chunk_rng(seed, chunk_index)
        groups = (size + 3) // 4
        shape = (2, 2 * groups)
        r = np.full(shape, state.r)
        lnv = np.full(shape, math.log(state.v))
        gap = lnv - (ab[0] - bb[0] * r) - log_b
        disc = np.zeros(shape)
        log_m = np.zeros(shape)  # ln(M / M_0), M = V e^{-sum r dt}
        survival = np.ones(shape)
        above, t_above = np.full(shape, g0), grid_times[0]
        alive = np.ones(shape)
        value = np.zeros(shape)
        at_expiry, expiry_controls = [], []
        for i, (dt, exp_th, r_std, sqrt_dt) in enumerate(steps):
            a1, a2 = rng.standard_normal((2, groups))
            z1, z2 = np.append(a1, -a2), np.append(a2, a1)
            zv = rho * z1 + rho_c * z2
            log_m = log_m + (-0.5 * s_v * s_v * dt
                             + signs * (s_v * sqrt_dt * zv))
            r_new = mu + (r - mu) * exp_th + signs * (r_std * z1)
            lnv = lnv + ((r - 0.5 * s_v * s_v) * dt
                         + signs * (s_v * sqrt_dt * zv))
            disc = disc + 0.5 * (r + r_new) * dt
            r = r_new
            log_z = ab[i + 1] - bb[i + 1] * r
            gap_new = lnv - log_z - log_b
            after = alive * np.where(
                gap_new > 0.0,
                -np.expm1(-2.0 * np.maximum(gap, 0.0) * gap_new
                          / step_vars[i]),
                0.0)
            value = value + (params.recovery_r * (alive - after)
                             * np.exp(-disc) * np.exp(log_z))
            alive = after
            gap = gap_new
            if i in updates:
                var = s_v * s_v * (grid_times[i + 1] - t_above)
                above_new = log_m + g0
                survival = survival * np.where(
                    above_new > 0.0,
                    -np.expm1(-2.0 * np.maximum(above, 0.0) * above_new / var),
                    0.0)
                above, t_above = above_new, grid_times[i + 1]
            if i == expiry_step:
                z_t1 = np.exp(log_z)
                scale = alive * np.exp(-disc) * z_t1
                units = _unit_value(np.exp(lnv) / z_t1, T1, T, params)
                put = scale * _expiry_payoff(units, option, call=False)
                call = scale * _expiry_payoff(units, option, call=True)
                held = value + scale * units
                at_expiry = [put, call, held + put, held - call]
                expiry_controls = [np.expm1(log_m), survival
                                   - oracles._survival_mean(
                                       g0, s_v * s_v * (T1 - state.t))]
        value = value + alive * np.exp(-disc)
        controls = [np.expm1(log_m), survival - oracles._survival_mean(
            g0, s_v * s_v * (T - state.t)), *expiry_controls]
        return ([oracles._group_means(v.reshape(2, 2, groups), size)
                 for v in (value, *at_expiry)],
                [oracles._group_means(c.reshape(2, 2, groups), size)
                 for c in controls])

    keys = ("bond", "put", "call", "puttable", "callable")
    return dict(zip(keys, oracles._reduce_chunks(run_chunk, n_paths, 1, seed)))


class TestMcSpotPathStep:
    # three chunks, the last of 1001 paths: an odd one
    N_PATHS = 2 * oracles._CHUNK + 1001

    def test_cutoff_underflows(self):
        # beyond the cutoff a bridge factor rounds to 1, so a step that
        # skips it changes no path's survival
        assert 1.0 - math.exp(-oracles._SURVIVAL_CUTOFF) == 1.0
        assert -math.expm1(-oracles._SURVIVAL_CUTOFF) == 1.0

    # T1 = 1.013 is no node of the 50-per-year grid: the step across it
    # splits; at v = 0.65 the paths start near the barrier and their bridge
    # factors fall below 1 often
    @pytest.mark.parametrize("v,option", [
        pytest.param(1.0, None, id="None"),
        pytest.param(1.0, OptionSpec(expiry_T1=1.013, exercise_e=0.9),
                     id="option1"),
        pytest.param(0.65, OptionSpec(expiry_T1=1.013, exercise_e=0.9),
                     id="near_barrier"),
    ])
    def test_equals_allocating_step(self, v, option):
        # the engine steps a deterministic path plus pair deviations by one
        # matrix product, so it rounds differently from the two-row step;
        # the reference takes every bridge factor, so the engine's cutoff
        # changes nothing
        args = (MarketState(r=0.05, v=v, t=0.0), BOND, option, BENCH,
                self.N_PATHS)
        got = mc_spot(*args, steps_per_year=50, seed=5)
        expected = reference_mc_spot(*args, steps_per_year=50, seed=5)
        assert list(got) == list(expected)
        assert len(got) == (1 if option is None else 5)
        for key, est in got.items():
            assert est.mean == pytest.approx(expected[key].mean, abs=1e-12)
            assert est.std_error == pytest.approx(expected[key].std_error,
                                                  abs=1e-12)

    # groups of k antithetic pairs whose last group lacks missing paths:
    # mc_spot's groups of four (k = 2), and mc_forward's pairs (k = 1)
    @pytest.mark.parametrize("k,missing", [
        *(pytest.param(2, missing, id=str(missing)) for missing in range(4)),
        *(pytest.param(1, missing, id=f"pair-{missing}")
          for missing in range(2))])
    def test_quad_means_keep_the_first_paths_of_the_last_group(self, k,
                                                                missing):
        # distinct powers of 2: every sum is exact and names its paths
        groups = 5
        values = 2.0 ** np.arange(2 * k * groups).reshape(2, k, groups)
        means = oracles._group_means(values, 2 * k * groups - missing)
        # group q's paths in the order pair 0 +z, pair 0 -z, pair 1 +z, ...
        paths = values.transpose(1, 0, 2).reshape(2 * k, groups)
        assert means.shape == (groups,)
        assert np.array_equal(means[:-1],
                              paths[:, :-1].sum(axis=0) / (2.0 * k))
        kept = paths[:2 * k - missing, -1]
        assert means[-1] == kept.sum() / len(kept)

    # an incomplete last chunk of 1001 paths, and one of 3
    @pytest.mark.parametrize("n_paths", [N_PATHS, oracles._CHUNK + 3])
    def test_one_normal_draw_per_group(self, monkeypatch, n_paths):
        # each step draws one (z1, z2) per group of four paths, and nothing
        # else, near the barrier too
        args = (MarketState(r=0.05, v=0.65, t=0.0), BOND, SPLIT_OPT, BENCH,
                n_paths)
        expected = mc_spot(*args, steps_per_year=50, seed=5)
        logs = log_draws(monkeypatch, NormalsOnly)
        assert mc_spot(*args, steps_per_year=50, seed=5) == expected
        sizes = [min(oracles._CHUNK, n_paths - start)
                 for start in range(0, n_paths, oracles._CHUNK)]
        # 100 steps of 1/50, the one across T1 split in two
        assert logs == {index: [("normal", 2 * math.ceil(size / 4))] * 101
                        for index, size in enumerate(sizes)}


def plain_estimates(run_chunk, n_paths, seed):
    """McEstimates of run_chunk's arrays with no control: mean and sqrt(var/n).

    The reduction as it stood before the engines regressed on a control,
    written out here: each array centred on its own, in chunk order.
    """
    n, mean, m2 = 0, None, None
    for chunk_index, start in enumerate(range(0, n_paths, oracles._CHUNK)):
        values = run_chunk(chunk_index, min(oracles._CHUNK, n_paths - start))
        out = []
        for v in values:
            shifted = v - v[0]
            m = shifted.mean()
            centred = shifted - m
            out.append((v[0] + m, (centred * centred).sum()))
        chunk = np.array(out)
        if mean is None:
            mean = m2 = np.zeros(len(chunk))
        count = len(values[0])
        total = n + count
        delta = chunk[:, 0] - mean
        mean = mean + delta * (count / total)
        m2 = m2 + chunk[:, 1] + delta * delta * (n * count / total)
        n = total
    std_error = np.sqrt(m2 / (n - 1) / n)
    return [oracles.McEstimate(mean=float(m), std_error=float(se),
                               n_paths=n_paths, seed=seed)
            for m, se in zip(mean, std_error)]


def with_run_chunk(monkeypatch, engine, *args, **kwargs):
    """engine(*args, **kwargs) and the run_chunk it handed _reduce_chunks.

    The run_chunk returned keeps each chunk the engine simulated, so that
    reductions of the same path set cost no second simulation.
    """
    seen = []
    reduce = oracles._reduce_chunks

    def capture(run_chunk, *rest):
        chunks = {}

        def kept(*job):
            if job not in chunks:
                chunks[job] = run_chunk(*job)
            return chunks[job]
        seen.append(kept)
        return reduce(kept, *rest)

    monkeypatch.setattr(oracles, "_reduce_chunks", capture)
    return engine(*args, **kwargs), seen[0]


def controls_only(run_chunk, keep):
    """run_chunk's samples with only its controls at the indices in keep."""
    def chunk(*job):
        samples, controls = run_chunk(*job)
        return samples, [controls[c] for c in keep]
    return chunk


README_PATHS = 16384
SPLIT_OPT = OptionSpec(expiry_T1=1.013, exercise_e=0.9)  # 506.5 steps of 1/500

# engine -> a call at the README config returning its bond estimate
CONTROL_CASES = {
    "mc_forward": lambda state, option: mc_forward(
        bond_price(state, BOND, BENCH).x, state.t, 2.0, BENCH, README_PATHS,
        seed=1),
    # the control sums the increments of several steps
    "mc_forward_16_steps": lambda state, option: mc_forward(
        bond_price(state, BOND, BENCH).x, state.t, 2.0, BENCH, README_PATHS,
        seed=1, n_steps=16),
    "mc_spot": lambda state, option: mc_spot(
        state, BOND, option, BENCH, README_PATHS, steps_per_year=500,
        seed=1)["bond"],
    # S's bridge spans 10 steps of 1/50 or 1/100: it is exact over any span
    "mc_spot_50": lambda state, option: mc_spot(
        state, BOND, option, BENCH, README_PATHS, steps_per_year=50,
        seed=1)["bond"],
    "mc_spot_100": lambda state, option: mc_spot(
        state, BOND, option, BENCH, README_PATHS, steps_per_year=100,
        seed=1)["bond"],
}


class TestControlVariate:
    def test_zero_firm_volatility_is_the_plain_reduction(self, monkeypatch):
        # at s_V = 0 ln M has no noise: D is 0 and S - E[S] is 0, no control
        # enters, and each estimate is the plain mean with its n - 1
        # standard error, to the bit
        params = dataclasses.replace(BENCH, s_V=0.0)
        n_paths = TestMcSpotPathStep.N_PATHS
        got, run_chunk = with_run_chunk(
            monkeypatch, mc_spot, STATE, BOND, SPLIT_OPT, params, n_paths,
            steps_per_year=50, seed=5)
        for index in range(3):
            _, controls = run_chunk(index, oracles._CHUNK)
            assert len(controls) == 4
            assert all(np.all(c == 0.0) for c in controls)
        plain = plain_estimates(lambda *job: run_chunk(*job)[0], n_paths, 5)
        assert list(got.values()) == plain

    @pytest.mark.parametrize("engine,v,option", [
        pytest.param("mc_forward", 1.0, None, id="mc_forward-readme"),
        pytest.param("mc_forward", 0.65, None, id="mc_forward-near_barrier"),
        pytest.param("mc_forward_16_steps", 1.0, None,
                     id="mc_forward_16_steps-readme"),
        pytest.param("mc_spot", 1.0, None, id="mc_spot-readme"),
        pytest.param("mc_spot", 0.65, None, id="mc_spot-near_barrier"),
        pytest.param("mc_spot", 1.0, SPLIT_OPT, id="mc_spot-split_expiry"),
        pytest.param("mc_spot_50", 1.0, None, id="mc_spot-50_per_year"),
        pytest.param("mc_spot_100", 1.0, None, id="mc_spot-100_per_year"),
    ])
    def test_control_has_mean_zero(self, monkeypatch, engine, v, option):
        # D's exact mean is 0 only with ln M's -s_V^2 h / 2 drift, and S's
        # only with the image term e^{g0} Phi(-k) of _survival_mean
        state = MarketState(r=0.05, v=v, t=0.0)
        _, run_chunk = with_run_chunk(monkeypatch, CONTROL_CASES[engine],
                                      state, option)
        controls = plain_estimates(lambda *job: run_chunk(*job)[1],
                                   README_PATHS, 1)
        assert len(controls) == (
            1 if engine.startswith("mc_forward") else 2 if option is None
            else 4)
        for control in controls:
            assert abs(control.mean) <= 4.0 * control.std_error, control

    @pytest.mark.parametrize("engine", list(CONTROL_CASES))
    def test_bond_se_below_plain(self, monkeypatch, engine):
        est, run_chunk = with_run_chunk(monkeypatch, CONTROL_CASES[engine],
                                        STATE, None)
        (plain,) = plain_estimates(lambda *job: run_chunk(*job)[0],
                                   README_PATHS, 1)
        assert est.std_error <= 0.8 * plain.std_error, (est, plain)

    def test_survival_control_halves_bond_se(self, monkeypatch):
        # the terminal control D alone left se^2 at 0.47x the plain one; S
        # sees the barrier crossings that D cannot
        est, run_chunk = with_run_chunk(monkeypatch, CONTROL_CASES["mc_spot"],
                                        STATE, None)
        (terminal,) = oracles._reduce_chunks(
            controls_only(run_chunk, [0]), README_PATHS, 1, 1)
        assert est.std_error <= 0.5 * terminal.std_error, (est, terminal)

    def test_option_keys_regress_on_expiry_controls(self, monkeypatch):
        # the options are scored at T1, where D and S at T1 are as exact as
        # at T and far better correlated with them
        got, run_chunk = with_run_chunk(
            monkeypatch, mc_spot, STATE, BOND, OPT, BENCH, README_PATHS,
            steps_per_year=500, seed=1)
        terminal = dict(zip(got, oracles._reduce_chunks(
            controls_only(run_chunk, [0]), README_PATHS, 1, 1)))
        for key in ("put", "call", "puttable", "callable"):
            assert got[key].std_error <= 0.8 * terminal[key].std_error, key

    # at s_V = 0.1 S is 1 on all but a few paths, if any.  At rho = -0.95,
    # regressed on, one such path fitted the bond's residual to 0; at rho = 0
    # and seed 8 one path defaulted and S, whose mean lies within 1 se of 0
    # there, cut the bond's se 60-fold to a z of -3.5
    @pytest.mark.parametrize("rho,seed", [
        (-0.95, 1), (-0.95, 2), (-0.95, 3), (0.0, 8)])
    def test_survival_held_by_a_handful_of_paths_stays_out(self, monkeypatch,
                                                           rho, seed):
        params = dataclasses.replace(BENCH, rho=rho, s_V=0.1)
        got, run_chunk = with_run_chunk(
            monkeypatch, mc_spot, STATE, BOND, None, params, README_PATHS,
            steps_per_year=500, seed=seed)
        (terminal,) = oracles._reduce_chunks(
            controls_only(run_chunk, [0]), README_PATHS, 1, seed)
        assert got["bond"] == terminal
        assert got["bond"].std_error > 0.0


    @pytest.mark.filterwarnings("error")
    def test_control_whose_fourth_powers_underflow_stays_out(self):
        # a spread of 1e-90 squares to 1e-180 but its fourth powers are 0:
        # the control has no count, and dividing by it would warn
        def run_chunk(chunk_index, size):
            rng = np.random.default_rng(chunk_index)
            return ([rng.standard_normal(size)],
                    [1e-90 * rng.uniform(0.5, 1.0, size)])
        (got,) = oracles._reduce_chunks(run_chunk, 9000, 1, 0)
        (plain,) = plain_estimates(lambda *job: run_chunk(*job)[0], 9000, 0)
        assert got == plain


class TestSurvivalMean:
    @pytest.mark.parametrize("g0,var", [
        (0.6, 0.08), (0.05, 0.08), (2.0, 0.01), (0.3, 4.0), (1e-6, 1e-4)])
    def test_matches_the_first_passage_formula(self, g0, var):
        # Phi(h) - e^{g0} Phi(-k), written out where nothing overflows
        sd = math.sqrt(var)
        exact = (float(ndtr((g0 - 0.5 * var) / sd))
                 - math.exp(g0) * float(ndtr(-(g0 + 0.5 * var) / sd)))
        assert oracles._survival_mean(g0, var) == pytest.approx(
            exact, rel=1e-12, abs=1e-15)

    def test_mills_series_meets_erfc_at_the_switch(self):
        # k = (g0 + var / 2) / sqrt(var) crosses 37 at g0 = 37 - 1/2, var = 1
        below = oracles._survival_mean(36.5 - 1e-9, 1.0)
        above = oracles._survival_mean(36.5 + 1e-9, 1.0)
        assert above == pytest.approx(below, rel=1e-12)

    @pytest.mark.parametrize("g0,var", [
        (700.0, 1e-4), (710.0, 1.0), (710.0, 1400.0), (1e-300, 1e-300),
        (0.5, 1e5), (800.0, 1600.0)])
    def test_finite_probability_where_e_g0_overflows(self, g0, var):
        p = oracles._survival_mean(g0, var)
        assert 0.0 <= p <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_float64_g0_where_k_squared_overflows(self):
        # mc_spot passes g0 as an np.float64; at var = 1e-310 k and h are
        # about 5e154, and their squares overflow
        assert oracles._survival_mean(np.float64(0.5), 1e-310) == 1.0

    def test_limits(self):
        assert oracles._survival_mean(0.3, 0.0) == 1.0
        assert oracles._survival_mean(0.0, 0.5) == 0.0
        assert oracles._survival_mean(-0.1, 0.5) == 0.0
