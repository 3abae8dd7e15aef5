"""Unit tests for the finite-difference and Monte-Carlo pricing oracles."""

import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv
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
        (math.nextafter(1.0, 0.0), 1),
        (1.0 - 1e-13, 800),
    ])
    def test_rejects_steps_of_zero_length(self, t0, nt):
        # windows of 1 and 901 ulps, where steps of equal time would round
        # to zero length: steps of equal variance march them, and the
        # surface at t0 is the survival over the window
        sol = cn_solve(unit_payoff, t0, 1.0, 2.0, BENCH,
                       grid=GridConfig(nx=800, nt=nt))
        for x in (0.7, 1.0, 1.5):
            exact = survival_curve(x, t0, 1.0, 2.0, BENCH)
            assert abs(float(sol.interpolate(x, t0)) - exact) <= 1e-12

    def test_read_where_the_variance_rate_falls_to_zero(self):
        # at s_V = 0, sigma_x^2 -> 0 at T: [1.8, 2] holds 1.4% of the
        # window's variance, 5.5 steps of dv at nt = 400, and the steps
        # halving toward the payoff resolve it as calendar steps did (error
        # 9.2e-5 either way; 3.6e-4 with equal steps of dv)
        params = dataclasses.replace(BENCH, s_V=0.0)
        sol = cn_solve(unit_payoff, 1.0, 2.0, 2.0, params,
                       grid=GridConfig(nx=400, nt=400))
        exact = survival_curve(0.601, 1.8, 2.0, 2.0, params)
        assert abs(float(sol.interpolate(0.601, 1.8)) - exact) <= 1.5e-4

    def test_rejects_window_without_variance(self):
        # at s_V = 0 the variance over the last ulp before T1 is exactly 0
        params = dataclasses.replace(BENCH, s_V=0.0)
        t0 = math.nextafter(1.0, 0.0)
        assert model.cum_variance(t0, 1.0, 2.0, params) == 0.0
        with pytest.raises(ResolutionError, match="no variance"):
            cn_solve(unit_payoff, t0, 1.0, 2.0, params,
                     grid=GridConfig(nx=800, nt=800))

    def test_rejects_step_too_large_for_damped_smoothing(self):
        # one step of the whole variance: dv / 2 = 1.1e4 h^2
        with pytest.raises(ResolutionError, match="damped smoothing"):
            cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=1200, nt=1))

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

    @pytest.mark.parametrize("s_v,barrier_b,nx", [
        # h = 5.65 >= 2: upper < 0, and the central scheme is not monotone
        (2.0, 0.6, 4),
        # h = 1.50 < 2, but rho^798 = e^-776 is below the smallest normal
        # float; the far node B e^1199 = e^508 is in range
        (106.0, 1e-300, 800),
        # h = 0.901: rho^38 = 9.9e-9, just below the floor of the sine
        # basis's roundoff (see TestCnSolveAtTheSineBasisFloor)
        (3.19, 0.6, 40),
    ])
    def test_rejects_grid_without_symmetric_form(self, s_v, barrier_b, nx):
        params = dataclasses.replace(BENCH, s_V=s_v, barrier_b=barrier_b)
        with pytest.raises(ResolutionError, match="symmetric form"):
            cn_solve(unit_payoff, 0.0, 2.0, 2.0, params,
                     grid=GridConfig(nx=nx, nt=40))

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
        # a finite payoff whose sine coefficients overflow
        with pytest.raises(DomainError):
            cn_solve(lambda x: np.full_like(x, 1e308), 0.0, 2.0, 2.0, BENCH,
                     grid=GridConfig(nx=50, nt=50))

    @pytest.mark.parametrize("nx,nt", [(100, 100), (100, 1)])
    def test_payoff_rows_march_as_their_own_solves(self, nx, nt):
        # at nt = 1 only the ladder runs: the two Rannacher half steps and
        # one step at each coarser level
        grid = GridConfig(nx=nx, nt=nt)
        payoffs = (unit_payoff, lambda x: np.maximum(0.9 - 0.5 * x, 0.0))
        both = cn_solve(lambda x: np.array([f(x) for f in payoffs]),
                        0.0, 1.0, 2.0, BENCH, grid=grid)
        slices = range(len(both.variances))
        assert both.slice(0).shape == (2, nx + 1)
        xs = np.array([[0.7, 1.0], [1.3, 2.1]])
        for j, payoff in enumerate(payoffs):
            one = cn_solve(payoff, 0.0, 1.0, 2.0, BENCH, grid=grid)
            assert one.slice(0).shape == (nx + 1,)
            for k in slices:
                assert np.array_equal(both.slice(k)[j], one.slice(k))
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


class TestGridTables:
    """cn_solve builds the tables of a grid shape once and shares them."""

    GRID = GridConfig(nx=60, nt=30)

    def test_solves_of_one_shape_share_their_steps(self):
        one = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH, grid=self.GRID)
        other = cn_solve(lambda x: np.maximum(0.9 - 0.5 * x, 0.0), 0.5, 1.0,
                         2.0, BENCH, grid=self.GRID)
        assert other.steps is one.steps
        wider = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                         grid=GridConfig(nx=61, nt=30))
        assert wider.steps is not one.steps
        assert np.array_equal(wider.steps, one.steps)

    def test_steps_are_read_only(self):
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH, grid=self.GRID)
        with pytest.raises(ValueError):
            sol.steps[0, 0] = 2.0
        with pytest.raises(ValueError):
            sol.steps[:] *= 1.0

    def test_a_solve_after_cache_clear_equals_one_from_a_hit(self):
        def solve():
            return cn_solve(unit_payoff, 0.0, 1.5, 2.0, BENCH, grid=self.GRID)

        oracles._grid_tables.cache_clear()
        built = solve()
        assert oracles._grid_tables.cache_info().misses == 1
        hit = solve()
        assert oracles._grid_tables.cache_info().hits == 1
        for k in range(len(built.variances)):
            assert np.array_equal(hit.slice(k), built.slice(k))
        assert np.array_equal(hit.variances, built.variances)
        xs = np.array([0.61, 0.9, 1.3, 2.0])
        for t in (0.0, 0.3, 1.0, 1.5):
            assert np.array_equal(hit.interpolate(xs, t),
                                  built.interpolate(xs, t))


def ladder(t0, t1, bond_T, params, grid):
    """cn_solve's ln x nodes and its step sizes from the payoff back: 2q
    steps of dv / 2^L, q of each dv / 2^j for j = L - 1 down to 1, and the
    nt - q steps of dv left."""
    b = params.barrier_b
    total_var = model.cum_variance(t0, bond_T, bond_T, params)
    width = oracles._DOMAIN_WIDTH_SIGMAS * math.sqrt(total_var)
    y = np.linspace(math.log(b), math.log(b) + width, grid.nx + 1)
    dv = model.cum_variance(t0, t1, bond_T, params) / grid.nt
    levels, q = oracles._LADDER_LEVELS, min(oracles._LADDER_STEPS, grid.nt)
    spans = [dv / 2 ** levels] * (2 * q)
    for j in range(levels - 1, 0, -1):
        spans += [dv / 2 ** j] * q
    spans += [dv] * (grid.nt - q)
    return y, spans


def reference_cn_solve(terminal_payoff, t0, t1, bond_T, params, grid):
    """cn_solve's scheme marched in the variance clock, with each step's
    right-hand side formed by an explicit tridiagonal product and the
    unsymmetrised system solved by LAPACK gtsv, with partial pivoting.  Its
    refusals are left out, so the grid must pass them.
    """
    y, spans = ladder(t0, t1, bond_T, params, grid)
    h = y[1] - y[0]
    n_steps = len(spans)
    # u_v = A u in the variance clock, A = tridiag(lower, centre, upper)
    lower = 0.5 * (1.0 / (h * h) + 1.0 / (2.0 * h))
    centre = -1.0 / (h * h)
    upper = 0.5 * (1.0 / (h * h) - 1.0 / (2.0 * h))

    payoff = np.asarray(terminal_payoff(np.exp(y)), dtype=float)
    rows = payoff.reshape(-1, grid.nx + 1)
    values = np.empty((n_steps + 1,) + rows.shape)
    values[n_steps] = rows
    values[:, :, 0] = 0.0
    values[:, :, -1] = values[n_steps, :, -1]
    far = values[n_steps, :, -1]

    n_int = grid.nx - 1
    sub, diag, sup = np.empty(n_int - 1), np.empty(n_int), np.empty(n_int - 1)
    rhs, term = np.empty((2, len(far), n_int))

    def step(later, n, span, implicit_weight):
        u = values[later]
        explicit = 1.0 - implicit_weight
        np.multiply(lower, u[:, :-2], out=rhs)
        np.multiply(centre, u[:, 1:-1], out=term)
        np.add(rhs, term, out=rhs)
        np.multiply(upper, u[:, 2:], out=term)
        np.add(rhs, term, out=rhs)
        np.multiply(rhs, span * explicit, out=rhs)
        np.add(rhs, u[:, 1:-1], out=rhs)
        rhs[:, -1] += span * implicit_weight * upper * far

        sub.fill(-span * implicit_weight * lower)
        diag.fill(1.0 - span * implicit_weight * centre)
        sup.fill(-span * implicit_weight * upper)
        *_, x, info = dgtsv(sub, diag, sup, rhs.T, 1, 1, 1, 1)
        assert info == 0
        values[n, :, 1:-1] = x.T

    for i, span in enumerate(spans):
        n = n_steps - 1 - i
        if i == 0:
            step(n + 1, n, 0.5 * span, implicit_weight=1.0)
            step(n, n, 0.5 * span, implicit_weight=1.0)
        else:
            step(n + 1, n, span, implicit_weight=0.5)
    if payoff.ndim == 1:
        values = values[:, 0]
    # and the variance left to t1 at each slice
    return values, np.append(np.cumsum(spans)[::-1], 0.0)


def extended_cn_march(terminal_payoff, t0, t1, bond_T, params, grid):
    """cn_solve's scheme marched in np.longdouble, each step solved by the
    Thomas algorithm: its slices as an (n + 1, m, nx + 1) array."""
    y, spans = ladder(t0, t1, bond_T, params, grid)
    h = np.longdouble(y[1] - y[0])
    lower = (1 / (h * h) + 1 / (2 * h)) / 2
    centre = -1 / (h * h)
    upper = (1 / (h * h) - 1 / (2 * h)) / 2
    u = np.array(terminal_payoff(np.exp(y)), dtype=np.longdouble)
    u = u.reshape(-1, grid.nx + 1)
    u[:, 0] = 0
    slices = [u]

    def step(u, span, implicit_weight):
        implicit = np.longdouble(span) * implicit_weight
        explicit = np.longdouble(span) - implicit
        rhs = u[:, 1:-1] + explicit * (
            lower * u[:, :-2] + centre * u[:, 1:-1] + upper * u[:, 2:])
        rhs[:, -1] += implicit * upper * u[:, -1]
        sub, diag, sup = -implicit * lower, 1 - implicit * centre, \
            -implicit * upper
        pivots = np.full(grid.nx - 1, diag)
        for i in range(1, grid.nx - 1):
            ratio = sub / pivots[i - 1]
            pivots[i] -= ratio * sup
            rhs[:, i] -= ratio * rhs[:, i - 1]
        new = u.copy()
        new[:, -2] = rhs[:, -1] / pivots[-1]
        for i in range(grid.nx - 3, -1, -1):
            new[:, i + 1] = (rhs[:, i] - sup * new[:, i + 2]) / pivots[i]
        return new

    for i, span in enumerate(spans):
        if i == 0:
            u = step(step(u, span / 2, 1), span / 2, 1)
        else:
            u = step(u, span, 0.5)
        slices.append(u)
    return np.array(slices[::-1])


class TestCnSolveAgainstReference:
    # (seed, nx, nt, rows): each seed draws its parameters, window and payoffs
    CONFIGS = [(0, 40, 40, 1), (1, 40, 7, 2), (2, 40, 1, 2),
               (3, 100, 100, 1), (4, 100, 30, 2), (5, 100, 250, 1),
               (6, 400, 100, 2), (7, 400, 400, 1), (8, 400, 13, 1),
               (9, 800, 200, 2), (10, 800, 60, 1), (11, 800, 800, 2)]

    @pytest.mark.parametrize("seed,nx,nt,rows", CONFIGS)
    def test_agrees_with_explicit_product_and_gtsv(self, seed, nx, nt, rows):
        # the sine basis's product of factors rounds differently from the
        # reference's product and pivoted solve, and nothing else
        rng = np.random.default_rng(seed)
        params = ModelParams(
            theta=rng.uniform(0.1, 2.0), mu=rng.uniform(-0.02, 0.1),
            s_r=rng.uniform(0.0, 0.05), s_V=rng.uniform(0.05, 0.6),
            rho=rng.uniform(-0.9, 0.9), barrier_b=rng.uniform(0.3, 0.8),
            recovery_r=rng.uniform(0.0, 0.8))
        bond_T = rng.uniform(0.5, 5.0)
        t0, t1 = np.sort(rng.uniform(0.0, bond_T, 2))
        strike = rng.uniform(0.5, 1.5)
        payoffs = (unit_payoff, lambda x: np.maximum(strike - 0.5 * x, 0.0))
        payoff = payoffs[0] if rows == 1 else (
            lambda x: np.array([f(x) for f in payoffs]))
        grid = GridConfig(nx=nx, nt=nt)
        sol = cn_solve(payoff, t0, t1, bond_T, params, grid=grid)
        expected, variances = reference_cn_solve(payoff, t0, t1, bond_T,
                                                 params, grid)
        np.testing.assert_allclose(sol.variances, variances, rtol=1e-13)
        got = np.array([sol.slice(k) for k in range(len(sol.variances))])
        assert got.shape == expected.shape
        assert np.array_equal(got[-1], expected[-1])
        got, expected = (v.reshape(-1, rows, nx + 1) for v in (got, expected))
        for j in range(rows):
            error = np.max(np.abs(got[:, j] - expected[:, j]))
            assert error <= 1e-11 * np.max(np.abs(expected[:, j]))


class TestCnSolveAtTheSineBasisFloor:
    def test_just_inside_agrees_with_an_extended_precision_march(self):
        # s_V = 3.18 at 40 x 40: rho^38 = 1.03e-8, just above the floor, and
        # a slice's far nodes carry about 1e-15 / rho^38 of roundoff (2.1e-8
        # and 2.4e-8 of each row's largest value, against 5e-16 at s_V = 0.2)
        params = dataclasses.replace(BENCH, s_V=3.18)
        grid = GridConfig(nx=40, nt=40)
        payoff = lambda x: np.array([np.ones_like(x),
                                     np.maximum(0.9 - 0.5 * x, 0.0)])
        sol = cn_solve(payoff, 0.0, 2.0, 2.0, params, grid=grid)
        floor = sol.scale[-1]
        assert oracles._SYMMETRIC_FLOOR <= floor <= 1.1 * oracles._SYMMETRIC_FLOOR
        expected = extended_cn_march(payoff, 0.0, 2.0, 2.0, params, grid)
        got = np.array([sol.slice(k) for k in range(len(sol.variances))])
        assert got.shape == expected.shape
        for j in range(2):
            scale = np.max(np.abs(expected[:, j]))
            error = np.max(np.abs(got[:, j] - expected[:, j])) / scale
            assert error <= 1e-15 / floor

    @pytest.mark.parametrize("nx", [40, 800])
    def test_corner_of_the_box_is_not_refused(self, nx):
        # the CLI box's corner of most variance: rho^(nx - 2) is 1.76e-6 at
        # nx = 40 and 1.55e-6 at 800, some 150 times the floor
        params = ModelParams(theta=1e-12, mu=0.05, s_r=0.05, s_V=0.8,
                             rho=1.0, barrier_b=0.6, recovery_r=0.4)
        sol = cn_solve(unit_payoff, 0.0, 10.0, 10.0, params,
                       grid=GridConfig(nx=nx, nt=40))
        assert sol.scale[-1] >= 100.0 * oracles._SYMMETRIC_FLOOR
        assert np.all(np.isfinite(sol.slice(0)))

    # rho^38 = 0.34, 4.5e-3 and 8.1e-7: the worst error reads 5.1e-16,
    # 4.6e-14 and 2.5e-10, each about a fifth of 1e-15 / rho^38
    @pytest.mark.parametrize("s_v", [0.2, 1.0, 2.5])
    def test_roundoff_grows_as_rho_falls(self, s_v):
        params = dataclasses.replace(BENCH, s_V=s_v)
        grid = GridConfig(nx=40, nt=40)
        payoff = lambda x: np.array([np.ones_like(x),
                                     np.maximum(0.9 - 0.5 * x, 0.0)])
        sol = cn_solve(payoff, 0.0, 2.0, 2.0, params, grid=grid)
        expected = extended_cn_march(payoff, 0.0, 2.0, 2.0, params, grid)
        got = np.array([sol.slice(k) for k in range(len(sol.variances))])
        for j in range(2):
            scale = np.max(np.abs(expected[:, j]))
            error = np.max(np.abs(got[:, j] - expected[:, j])) / scale
            assert error <= 1e-15 / sol.scale[-1]


def dense_cn_march(u, spans, h):
    """cn_solve's scheme on the interior values u, 0 at both Dirichlet
    nodes, each step a dense np.linalg.solve: its slices, first to last."""
    n = len(u)
    lower = 0.5 * (1.0 / (h * h) + 1.0 / (2.0 * h))
    upper = 0.5 * (1.0 / (h * h) - 1.0 / (2.0 * h))
    a = (np.diag(np.full(n, -1.0 / (h * h)))
         + np.diag(np.full(n - 1, lower), -1)
         + np.diag(np.full(n - 1, upper), 1))
    eye = np.eye(n)
    slices = [u]
    for i, span in enumerate(spans):
        if i == 0:
            half = eye - 0.5 * span * a
            u = np.linalg.solve(half, np.linalg.solve(half, u))
        else:
            u = np.linalg.solve(eye - 0.5 * span * a, (eye + 0.5 * span * a) @ u)
        slices.append(u)
    return np.array(slices[::-1])


class TestSineBasis:
    """GridSolution's slices against what its modes say of the scheme."""

    # at nt = 1 the coarse steps' factors (1 - a) / (1 + a) have a > 1 from
    # mode 22 on: G_0 reads -2.1e-3 at mode 20 and 1.9e-3 at mode 39, each
    # past an odd count of negative factors on the way
    @pytest.mark.parametrize("mode,flips", [(1, False), (20, True),
                                            (39, True)])
    def test_one_mode_agrees_with_a_dense_march(self, mode, flips):
        grid = GridConfig(nx=40, nt=1)
        y, spans = ladder(0.0, 2.0, 2.0, BENCH, grid)
        h = y[1] - y[0]
        # D^-1 times the orthonormal DST-I's vector of this mode
        rho = math.sqrt((2.0 - h) / (2.0 + h))
        i = np.arange(1, grid.nx)
        vector = (math.sqrt(2.0 / grid.nx) * np.sin(mode * i * math.pi / grid.nx)
                  / rho ** (i - 1))
        payoff = np.concatenate([[0.0], vector, [0.0]])
        sol = cn_solve(lambda x: payoff.copy(), 0.0, 2.0, 2.0, BENCH,
                       grid=grid)
        expected = dense_cn_march(vector, spans, h)
        got = np.array([sol.slice(k) for k in range(len(sol.variances))])
        assert got.shape == (len(spans) + 1, grid.nx + 1)
        assert np.all(got[:, [0, -1]] == 0.0)
        error = np.max(np.abs(got[:, 1:-1] - expected))
        assert error <= 1e-13 * np.max(np.abs(vector))
        gains = got[:, 1] / vector[0]
        assert (np.min(gains) < -1e-3) == flips

    @pytest.mark.parametrize("nx", [40, 800])
    def test_discrete_steady_state_is_every_slice(self, nx):
        # u_far (rho^(2 (nx - i)) - rho^(2 nx)) / (1 - rho^(2 nx)) has no
        # sine coefficients, and no step moves it
        grid = GridConfig(nx=nx, nt=40)
        y, _ = ladder(0.0, 2.0, 2.0, BENCH, grid)
        h = y[1] - y[0]
        rho2 = (2.0 - h) / (2.0 + h)
        i = np.arange(nx + 1)
        steady = 0.7 * (rho2 ** (nx - i) - rho2 ** nx) / (1.0 - rho2 ** nx)
        sol = cn_solve(lambda x: steady.copy(), 0.0, 2.0, 2.0, BENCH,
                       grid=grid)
        assert np.max(np.abs(sol.coefficients)) <= 1e-14
        for k in range(len(sol.variances)):
            assert np.max(np.abs(sol.slice(k) - steady)) <= 1e-15

    def test_slice_is_a_new_array(self):
        sol = cn_solve(unit_payoff, 0.0, 2.0, 2.0, BENCH,
                       grid=GridConfig(nx=40, nt=40))
        n = len(sol.variances) - 1
        first, last = sol.slice(0), sol.slice(n)
        assert np.array_equal(last, sol.payoff)
        first[:] = last[:] = np.nan
        assert np.all(np.isfinite(sol.slice(0)))
        assert np.all(np.isfinite(sol.slice(n)))
        assert np.all(np.isfinite(sol.payoff))

    # t0 reads slice 0 and t1 the payoff, each to roundoff at the nodes
    @pytest.mark.parametrize("t,end", [(0.0, 0), (2.0, -1)])
    def test_interpolate_at_the_nodes_reads_the_end_slices(self, t, end):
        sol = cn_solve(lambda x: np.maximum(0.9 - 0.5 * x, 0.0), 0.0, 2.0,
                       2.0, BENCH, grid=GridConfig(nx=40, nt=40))
        k = range(len(sol.variances))[end]
        got = sol.interpolate(np.exp(sol.log_x_nodes), t)
        assert np.max(np.abs(got - sol.slice(k))) <= 1e-15


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
    """Wrap each chunk's generator in logged; returns a log for each: keyed
    by the chunk index for a chunk's first stream, by (index, stream) for
    another."""
    logs = {}
    chunk_rng = oracles._chunk_rng
    monkeypatch.setattr(
        oracles, "_chunk_rng", lambda seed, index, *stream: logged(
            chunk_rng(seed, index, *stream),
            logs.setdefault((index, *stream) if stream else index, [])))
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
        # factors fall below 1 and take part of their survival off
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

    @pytest.mark.parametrize("recovery", [0.4, 0.9])
    def test_bond_is_linear_in_recovery(self, recovery):
        # the recovery leg is the constant R Z(r, t; T) and only survival is
        # simulated, so the estimate at R is R Z plus (1 - R) times the one
        # at R = 0, on the same paths; near the barrier many paths default
        state = MarketState(r=0.05, v=0.65, t=0.0)

        def bond_at(r):
            params = dataclasses.replace(BENCH, recovery_r=r)
            return mc_spot(state, BOND, None, params, 8195,
                           steps_per_year=50, seed=5)["bond"]

        base, est = bond_at(0.0), bond_at(recovery)
        z = model.zcb_price(state.r, state.t, BOND.maturity_T, BENCH)
        assert est.mean == pytest.approx(
            recovery * z + (1.0 - recovery) * base.mean, rel=0, abs=1e-12)
        assert est.std_error == pytest.approx(
            (1.0 - recovery) * base.std_error, rel=1e-12)

    def test_puttable_dominates_bond(self, spot_with_option):
        bond_est = spot_with_option["bond"]
        puttable_est = spot_with_option["puttable"]
        assert puttable_est.mean >= bond_est.mean - 3.0 * (
            bond_est.std_error + puttable_est.std_error)


def reference_mc_spot(state, bond, option, params, n_paths, steps_per_year,
                      seed, normals):
    """mc_spot as a fine march over the given normals, allocating every
    intermediate.

    Written out from the engine as it stood before its path-step reused
    buffers, r, ln V and the discount stepped on each row, at every fine
    step.  normals(chunk_index, groups) gives each step's (z1, z2) of each
    group, shaped (steps, 2, groups).  Each path's survival probability
    takes the bridge factor 1 - exp(-2 g+ g' / v_step) of every step on
    every path, with no cutoff, or 0 where g' <= 0.  The recovery leg is
    the constant R Z(r, t; T): at T the bond pays it plus (1 - R) times the
    survival probability, discounted by e^{-int r du}; at T1 the option
    payoffs and the held bond's u - R, each discounted by Z e^{-int r du},
    are weighted by the survival probability, and the held bond adds the
    constant.  The controls' X = ln(M / M_0) steps on each row by its own
    recursion, -s_V^2 dt / 2 plus the ln V noise, and the survival S takes
    its bridge factor on every path, with no cutoff, at the engine's update
    nodes.  The chunking, seeding and reduction are the engine's own, so a
    difference can only come from the step's arithmetic.  Columns q and
    Q + q of the (2, 2 Q) paths step on +-(z1, z2) and +-(-z2, z1), and
    each group scores its mean (see oracles._group_means).
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
    recovery = params.recovery_r
    recovery_leg = recovery * math.exp(ab[0] - bb[0] * state.r)
    signs = np.array([[1.0], [-1.0]])
    g0 = math.log(state.v) - (ab[0] - bb[0] * state.r) - log_b
    updates = [i for i in range(len(steps))
               if (i + 1) % oracles._SURVIVAL_STRIDE == 0
               or i + 1 == len(steps) or i == expiry_step]

    def run_chunk(chunk_index, size):
        groups = (size + 3) // 4
        drawn = normals(chunk_index, groups)
        shape = (2, 2 * groups)
        r = np.full(shape, state.r)
        lnv = np.full(shape, math.log(state.v))
        gap = lnv - (ab[0] - bb[0] * r) - log_b
        disc = np.zeros(shape)
        log_m = np.zeros(shape)  # ln(M / M_0), M = V e^{-sum r dt}
        survival = np.ones(shape)
        above, t_above = np.full(shape, g0), grid_times[0]
        alive = np.ones(shape)
        at_expiry, expiry_controls = [], []
        for i, (dt, exp_th, r_std, sqrt_dt) in enumerate(steps):
            a1, a2 = drawn[i]
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
            alive = alive * np.where(
                gap_new > 0.0,
                -np.expm1(-2.0 * np.maximum(gap, 0.0) * gap_new
                          / step_vars[i]),
                0.0)
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
                held = recovery_leg + scale * (units - recovery)
                at_expiry = [put, call, held + put, held - call]
                expiry_controls = [np.expm1(log_m), survival
                                   - oracles._survival_mean(
                                       g0, s_v * s_v * (T1 - state.t))]
        value = recovery_leg + (1.0 - recovery) * alive * np.exp(-disc)
        controls = [np.expm1(log_m), survival - oracles._survival_mean(
            g0, s_v * s_v * (T - state.t)), *expiry_controls]
        return ([oracles._group_means(v.reshape(2, 2, groups), size)
                 for v in (value, *at_expiry)],
                [oracles._group_means(c.reshape(2, 2, groups), size)
                 for c in controls])

    keys = ("bond", "put", "call", "puttable", "callable")
    return dict(zip(keys, oracles._reduce_chunks(run_chunk, n_paths, 1, seed)))


class TestNodeTables:
    """mc_spot's node tables equal the scalar model's values to the bit."""

    @staticmethod
    def grid_of(monkeypatch, params, bond, option):
        # the node times that mc_spot passes to _node_tables
        seen = []
        node_tables = oracles._node_tables

        def logged(grid_times, T, p):
            seen.append(grid_times.copy())
            return node_tables(grid_times, T, p)

        monkeypatch.setattr(oracles, "_node_tables", logged)
        mc_spot(STATE, bond, option, params, 8, steps_per_year=500, seed=1)
        monkeypatch.undo()
        (grid_times,) = seen
        return grid_times

    # theta tau crosses _SMALL_THETA_TAU at tau = 1.25 at theta = 0.04;
    # T1 = 1.0005 splits the step from 1.0 to 1.002
    @pytest.mark.parametrize("params,option", [
        pytest.param(BENCH, OPT, id="readme"),
        pytest.param(dataclasses.replace(BENCH, theta=0.04), None,
                     id="small_theta_tau"),
        pytest.param(BENCH, OptionSpec(expiry_T1=1.0005, exercise_e=0.9),
                     id="split_step"),
        pytest.param(dataclasses.replace(BENCH, s_r=0.0), OPT, id="s_r_0"),
    ])
    def test_equal_the_scalar_model(self, monkeypatch, params, option):
        T = BOND.maturity_T
        grid_times = self.grid_of(monkeypatch, params, BOND, option)
        if option is not None:
            assert option.expiry_T1 in grid_times.tolist()
        taus = T - grid_times
        if params.theta == 0.04:
            assert (params.theta * taus).min() < model._SMALL_THETA_TAU \
                < (params.theta * taus).max()
        ab, bb, step_vars = oracles._node_tables(grid_times, T, params)
        assert ab.tolist() == [model.abar(u, T, params) for u in grid_times]
        assert bb.tolist() == [model.bbar(u, T, params) for u in grid_times]
        assert step_vars.tolist() == [
            model.cum_variance(u, w, T, params)
            for u, w in zip(grid_times[:-1], grid_times[1:])]

    def test_non_finite_variance_raises(self):
        # s_r^2 = 1e308 is finite, and s_r^2 times the 2.3 of _h2 over the
        # first step is not
        params = dataclasses.replace(BENCH, theta=1e-3, s_r=1e154)
        grid_times = np.array([0.0, 1.0, 2.0])
        with pytest.raises(DomainError, match="not finite"):
            model.cum_variance(0.0, 1.0, 2.0, params)
        with pytest.raises(DomainError, match=r"variance over \[0.0, 1.0\]"):
            oracles._node_tables(grid_times, 2.0, params)


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
    def test_equals_a_fine_march_where_every_group_refines(self, monkeypatch,
                                                           v, option):
        # at c = inf every group with a live path takes its fine normals in
        # every block: the engine then equals a fine march over them, which
        # it composes into one matrix product per block, and so rounds
        # differently; the reference takes every bridge factor, so the
        # engine's cutoffs change nothing.  A group whose four paths are
        # all dead marches on normals that meet its coarse increments: its
        # fine nodes change no estimate
        monkeypatch.setattr(oracles, "_refine_cutoff", lambda n: math.inf)
        refined = RefinementLog(monkeypatch)
        args = (MarketState(r=0.05, v=v, t=0.0), BOND, option, BENCH,
                self.N_PATHS)
        got = mc_spot(*args, steps_per_year=50, seed=5)
        normals = refined.normals()
        assert len(normals) == 3
        for drawn in normals:  # every block
            assert not np.isnan(drawn).any()
        expected = reference_mc_spot(*args, steps_per_year=50, seed=5,
                                     normals=lambda index, groups:
                                     normals[index])
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
    def test_normals_drawn_per_block(self, monkeypatch, n_paths):
        # each block draws one normal per group for each direction its
        # increments span from a chunk's first stream, and a refined group
        # 2 per fine step from its second, and nothing else, near the
        # barrier too: one fill a block from the first stream and one a
        # refined block from the second, with no fill beyond them
        args = (MarketState(r=0.05, v=0.65, t=0.0), BOND, SPLIT_OPT, BENCH,
                n_paths)
        expected = mc_spot(*args, steps_per_year=50, seed=5)
        logs = log_draws(monkeypatch, NormalsOnly)
        refined = RefinementLog(monkeypatch)
        assert mc_spot(*args, steps_per_year=50, seed=5) == expected
        sizes = [min(oracles._CHUNK, n_paths - start)
                 for start in range(0, n_paths, oracles._CHUNK)]
        assert set(logs) == {key for index in range(len(sizes))
                             for key in (index, (index, 1))}
        # 101 steps of 1/50, the one across T1 split: 12 blocks, ending at
        # nodes 10, 20, ..., 100, at T1's node 51 and at T's, 101; the two
        # of one step span 2 directions, the one from node 51, which starts
        # with what is left of the split step, 6, and the others 4
        ranks = [4] * 5 + [2, 6] + [4] * 4 + [2]
        for index, size in enumerate(sizes):
            groups = math.ceil(size / 4)
            assert logs[index] == [("normal", rank * groups)
                                   for rank in ranks]
            fine = [("normal", 2 * block.steps * len(refined_groups))
                    for chunk, block, refined_groups, *_ in refined.calls
                    if chunk == index]
            assert fine
            assert logs[index, 1] == fine


class RefinementLog:
    """Wraps oracles._fine_survival to keep, for each call, the chunk, the
    block, the groups refined, their coarse increments, the fine normals
    z = z' + M^+ (delta - M z') rebuilt from the z' drawn, M the block's
    normal map, and every group's coarse increment delta."""

    def __init__(self, monkeypatch):
        self.calls, self.fines = [], []
        fine_survival = oracles._fine_survival

        def logged(block, fine, normals, start, gap_first, gap_last, near):
            taken = []

            class Taking:
                def standard_normal(self, size):
                    got = fine.standard_normal(size)
                    taken.append(got.copy())
                    return got

            result = fine_survival(block, Taking(), normals, start,
                                   gap_first, gap_last, near)
            # chunks run one after another at one worker, each with its own
            # second stream
            if not any(fine is seen for seen in self.fines):
                self.fines.append(fine)
            chunk = next(i for i, seen in enumerate(self.fines)
                         if fine is seen)
            groups = near.reshape(2, 2, -1).any(axis=(0, 1)).nonzero()[0]
            z_prime = np.concatenate(taken).reshape(2 * block.steps, -1)
            delta = block.factor @ normals
            increments = delta[:, groups]
            # z = z' + M^+ (delta - M z'), M^+ from numpy's own SVD
            z = z_prime + np.linalg.pinv(block.normal_map, rcond=1e-10) @ (
                increments - block.normal_map @ z_prime)
            self.calls.append((chunk, block, groups, increments, z, delta))
            return result

        monkeypatch.setattr(oracles, "_fine_survival", logged)

    def normals(self):
        """Each chunk's fine (z1, z2), shaped (steps, 2, groups): those
        rebuilt where a group refined, and elsewhere M^+ delta, the least of
        the z with M z = delta; NaN in a block with no call."""
        out = []
        for chunk, block, groups, _, z, delta in self.calls:
            if chunk == len(out):
                steps = max(call[1].stop for call in self.calls
                            if call[0] == chunk)
                out.append(np.full((steps, 2, delta.shape[1]), np.nan))
            drawn = out[chunk][block.stop - block.steps:block.stop]
            drawn[:] = (np.linalg.pinv(block.normal_map, rcond=1e-10)
                        @ delta).reshape(block.steps, 2, -1)
            drawn[:, :, groups] = z.reshape(block.steps, 2, -1)
        return out


def blocks_of(monkeypatch, *args, **kwargs):
    """mc_spot(*args, **kwargs)'s coarse blocks, as _coarse_blocks built
    them."""
    built = []
    coarse_blocks = oracles._coarse_blocks

    def kept(*inputs):
        built.extend(coarse_blocks(*inputs))
        return built

    monkeypatch.setattr(oracles, "_coarse_blocks", kept)
    mc_spot(*args, **kwargs)
    return built


# s_r = 0 zeroes the y and d rows of every block's normal map, and makes
# its g and m rows one: the group's 8 x 8 covariance has rank 2
RANK_CASES = {"README": BENCH, "s_r=0": dataclasses.replace(BENCH, s_r=0.0)}


class TestCoarseDraws:
    """Each block draws the fine scheme's increments exactly, and its
    refined groups the fine normals given them."""

    @pytest.mark.parametrize("params", list(RANK_CASES.values()),
                             ids=list(RANK_CASES))
    def test_factor_has_the_increments_covariance(self, monkeypatch, params):
        blocks = blocks_of(monkeypatch, STATE, BOND, SPLIT_OPT, params, 100,
                           steps_per_year=50, seed=5)
        assert [block.stop for block in blocks] == [
            10, 20, 30, 40, 50, 51, 60, 70, 80, 90, 100, 101]
        for block in blocks:
            cov = block.normal_map @ block.normal_map.T
            assert np.abs(block.factor @ block.factor.T - cov).max() \
                <= 1e-14 * np.abs(cov).max()
            # one normal per direction the increments span: over equal
            # steps the rows of g, y, d and m take their z1 and their z2
            # each from the constant and the geometric, so that a block of
            # two or more steps spans 4; the block from node 51 starts with
            # what is left of the step split at T1, and spans 6
            assert block.factor.shape == (8, np.linalg.matrix_rank(cov))
            if params.s_r == 0.0:
                assert block.factor.shape[1] == 2
                assert np.abs(block.factor[[1, 2, 5, 6]]).max() <= 1e-15 * (
                    np.abs(block.factor).max())
            else:
                assert block.factor.shape[1] == (
                    6 if block.stop == 60 else min(4, 2 * block.steps))

    @pytest.mark.parametrize("v", [1.0, 0.65])
    @pytest.mark.parametrize("params", list(RANK_CASES.values()),
                             ids=list(RANK_CASES))
    def test_refined_normals_meet_the_increments(self, monkeypatch, v,
                                                 params):
        refined = RefinementLog(monkeypatch)
        mc_spot(MarketState(r=0.05, v=v, t=0.0), BOND, SPLIT_OPT, params,
                8195, steps_per_year=50, seed=5)
        assert refined.calls
        for _, block, groups, increments, z, _ in refined.calls:
            assert z.shape == (2 * block.steps, len(groups))
            assert np.abs(block.normal_map @ z - increments).max() <= 1e-12


def fine_survival_by_path(block, fine, normals, start, gap_first, gap_last,
                          near):
    """_fine_survival written out path by path: each marked path's gaps at
    the block's interior nodes are +-g_maps[pair] @ (z', w, deviations at
    the first node) + gap_det, its sign's and pair's, and its product is
    over the bridge factors of its own nodes."""
    groups = normals.shape[1]
    paths = near.ravel().nonzero()[0]
    picked = np.unique(paths % groups)
    z_prime = fine.standard_normal((2 * block.steps, len(picked)))
    products = []
    for path in paths:
        sign, column = divmod(path, 2 * groups)
        pair, group = divmod(column, groups)
        operand = np.concatenate([z_prime[:, np.searchsorted(picked, group)],
                                  normals[:, group], start[:, column]])
        gaps = (1 - 2 * sign) * (block.g_maps[pair] @ operand) + block.gap_det
        nodes = np.concatenate([[gap_first.flat[path]], gaps,
                                [gap_last.flat[path]]])
        products.append(oracles._bridge_survival(nodes[:-1] * nodes[1:],
                                                 block.fine_vars).prod())
    return np.array(products)


class ScaledNormals:
    """A generator's standard normals times scale."""

    def __init__(self, seed, scale):
        self.rng, self.scale = np.random.default_rng(seed), scale

    def standard_normal(self, size):
        return self.scale * self.rng.standard_normal(size)


class TestFineSurvival:
    """A refined block's fine factors, however its paths split between the
    two signs and the two pairs."""

    GROUPS = 12

    def test_signed_maps(self, monkeypatch):
        # g_maps runs +A, +B, -A, -B
        for block in blocks_of(monkeypatch, STATE, BOND, SPLIT_OPT, BENCH, 100,
                               steps_per_year=50, seed=5):
            assert block.g_maps.shape[0] == 4
            assert np.array_equal(block.g_maps[2:], -block.g_maps[:2])

    # a block of 10 equal steps, and the one from T1's node, whose first
    # step is what is left of the step split at T1
    @pytest.mark.parametrize("stop", [10, 60])
    def test_every_split_equals_a_path_by_path_march(self, monkeypatch, stop):
        # 1 to 12 marked paths in every split over the stretches +A, +B, -A
        # and -B, stretch k marking the groups from 3 k on: among them 8
        # paths with one on -z, the case where an in-place negation of one
        # column of the gaps read other entries under numpy 2.4.6
        block = next(block for block in blocks_of(
            monkeypatch, STATE, BOND, SPLIT_OPT, BENCH, 100,
            steps_per_year=50, seed=5) if block.stop == stop)
        # every gap about the square root of a fine step's variance, the
        # normals scaled to a twentieth: each path's fine factors are below
        # 1 and above 0, and each of its gaps moves its product
        block = dataclasses.replace(block,
                                    gap_det=np.full_like(block.gap_det, 0.04))
        groups = self.GROUPS
        rng = np.random.default_rng(3)
        normals = 0.05 * rng.standard_normal((block.factor.shape[1], groups))
        start = 0.001 * rng.standard_normal((4, 2 * groups))
        gap_first = rng.uniform(0.03, 0.05, (2, 2 * groups))
        gap_last = rng.uniform(0.03, 0.05, (2, 2 * groups))
        splits = [split for split in itertools.product(range(13), repeat=4)
                  if 1 <= sum(split) <= 12]
        assert len(splits) == 1819
        for split in splits:
            near = np.zeros((2, 2 * groups), dtype=bool)
            for k, count in enumerate(split):
                near[k // 2, (k % 2) * groups
                     + (3 * k + np.arange(count)) % groups] = True
            got = oracles._fine_survival(
                block, ScaledNormals(11, 0.05), normals, start, gap_first,
                gap_last, near)
            expected = fine_survival_by_path(
                block, ScaledNormals(11, 0.05), normals, start, gap_first,
                gap_last, near)
            assert ((0.0 < expected) & (expected < 1.0)).all()
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0,
                                       err_msg=str(split))


class ThreadLogged:
    """A chunk's generator that logs the thread of each standard_normal
    draw."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def standard_normal(self, size=None, out=None):
        self.log.append(threading.current_thread())
        return self.rng.standard_normal(size, out=out)


class TestMcSpotDraws:
    """Each chunk draws its normals on its own thread, and the estimates are
    the same at every worker count."""

    # README config, seed 1, 16384 paths, 500 steps a year, as recorded from
    # the coarse march, its refinements drawn from each chunk's second
    # stream (z against the closed forms: bond +1.20 alone, and with the
    # option bond +1.22, put -1.79, call -1.97, puttable -1.15, callable
    # +2.23; the option's four share their T1 draws)
    RECORDED = {
        None: {"bond": (0.8835577562586244, 0.00020139192862180457)},
        OPT: {"bond": (0.8835608944910094, 0.0002014281373078987),
              "put": (0.005327662379475276, 0.0001436172412246144),
              "call": (0.07561179392908937, 7.007610815129505e-05),
              "puttable": (0.8887960434818283, 9.040036612463636e-05),
              "callable": (0.8078565871732637, 0.0001302485328741807)},
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("option", [None, OPT], ids=["None", "option"])
    def test_estimates_as_recorded(self, option, workers):
        got = mc_spot(STATE, BOND, option, BENCH, 16384, steps_per_year=500,
                      seed=1, workers=workers)
        assert {key: (est.mean, est.std_error) for key, est in got.items()} \
            == self.RECORDED[option]

    @pytest.mark.parametrize("option", [None, OPT], ids=["None", "option"])
    def test_estimates_independent_of_fresh_memory(self, monkeypatch, option):
        # at seed 31 two blocks refine 8 paths with one of them on -z; with
        # every float array that numpy.empty returns filled with NaN, each
        # estimate is the same to the bit, so no gap is read before the
        # march writes it
        args = (STATE, BOND, option, BENCH, 16384)
        expected = mc_spot(*args, steps_per_year=500, seed=31)
        refined = []
        fine_survival = oracles._fine_survival

        def logged(block, fine, normals, start, gap_first, gap_last, near):
            refined.append(near.reshape(4, -1).sum(axis=1).tolist())
            return fine_survival(block, fine, normals, start, gap_first,
                                 gap_last, near)

        empty = np.empty

        def nan_filled(*shape, **kwargs):
            out = empty(*shape, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(oracles, "_fine_survival", logged)
        monkeypatch.setattr(np, "empty", nan_filled)
        got = mc_spot(*args, steps_per_year=500, seed=31)
        monkeypatch.undo()
        assert [1 for split in refined
                if sum(split) == 8 and 1 in split[2:]] == [1, 1]
        assert got == expected
        for est in got.values():
            assert math.isfinite(est.mean) and math.isfinite(est.std_error)

    # three chunks, the last of 3 paths
    N_PATHS = 2 * oracles._CHUNK + 3

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_thread_outlives_the_call(self, monkeypatch, workers):
        # at one worker no thread starts and every chunk draws on the
        # caller's; at three each chunk draws on its pool's threads
        before = threading.active_count()
        started = []
        start = threading.Thread.start

        def logged_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", logged_start)
        logs = log_draws(monkeypatch, ThreadLogged)
        mc_spot(STATE, BOND, OPT, BENCH, self.N_PATHS, steps_per_year=50,
                seed=5, workers=workers)
        assert threading.active_count() == before
        drawn_on = {t for log in logs.values() for t in log}
        assert len(logs) == 6 and drawn_on  # two streams a chunk
        if workers == 1:
            assert not started
            assert drawn_on == {threading.current_thread()}
        else:
            assert started and drawn_on <= set(started)
            assert not any(t.is_alive() for t in drawn_on)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_thread_outlives_a_raise(self, monkeypatch, workers):
        # every chunk raises at T1, mid-march
        class AtExpiry(Exception):
            pass

        def raising(*args):
            raise AtExpiry

        before = threading.active_count()
        monkeypatch.setattr(oracles, "_unit_value", raising)
        with pytest.raises(AtExpiry) as caught:
            mc_spot(STATE, BOND, OPT, BENCH, self.N_PATHS, steps_per_year=50,
                    seed=5, workers=workers)
        # counted while the traceback, and so each chunk's frame, lives on:
        # the join does not wait for the frames to be collected
        assert caught.tb is not None
        assert threading.active_count() == before


def plain_estimates(run_chunk, n_paths, seed):
    """McEstimates of run_chunk's arrays with no control: mean and sqrt(var/n).

    The reduction with no control entering, written out here: the chunks'
    arrays joined in chunk order, each shifted by its first sample and
    centred once.
    """
    values = np.concatenate([
        np.array(run_chunk(chunk_index, min(oracles._CHUNK, n_paths - start)))
        for chunk_index, start in enumerate(range(0, n_paths, oracles._CHUNK))
    ], axis=1)
    n = values.shape[1]
    shifted = values - values[:, :1]
    mean = shifted.mean(axis=1)
    centred = shifted - mean[:, None]
    std_error = np.sqrt((centred * centred).sum(axis=1) / (n - 1) / n)
    return [oracles.McEstimate(mean=float(m), std_error=float(se),
                               n_paths=n_paths, seed=seed)
            for m, se in zip(mean + values[:, 0], std_error)]


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

    def test_control_off_its_mean_by_a_shared_offset_stays_out(self):
        # 1 + 1e-3 z spreads as 1e-3 z but sits off its exact mean 0 by 1:
        # about its mean 0 its fourth powers count 9e-9 samples, not 3000.
        # Fitted on, it would match z exactly and read a mean of -1000
        def run_chunk(chunk_index, size):
            z = np.random.default_rng(chunk_index).standard_normal(size)
            return [z], [1.0 + 1e-3 * z]
        (got,) = oracles._reduce_chunks(run_chunk, 9000, 1, 0)
        (plain,) = plain_estimates(lambda *job: run_chunk(*job)[0], 9000, 0)
        assert got == plain

    def test_control_repeating_another_adds_nothing(self):
        # [c, 2c] spans what [c] does: the same fit, with one more degree of
        # freedom taken, so se^2 grows by (n - 2) / (n - 3)
        def run_chunk(chunk_index, size, repeat):
            rng = np.random.default_rng(chunk_index)
            c = rng.standard_normal(size)
            z = c + rng.standard_normal(size)
            return [z], [c, 2.0 * c] if repeat else [c]
        (once,) = oracles._reduce_chunks(
            lambda *job: run_chunk(*job, False), 9000, 1, 0)
        (twice,) = oracles._reduce_chunks(
            lambda *job: run_chunk(*job, True), 9000, 1, 0)
        assert abs(twice.mean - once.mean) <= 1e-15 * abs(once.mean)
        assert 0.0 < twice.std_error - once.std_error <= 1e-4 * once.std_error


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
