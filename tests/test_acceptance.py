"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Tolerances are contractual and must not be loosened.  The closed forms are
checked against independently coded finite-difference and Monte-Carlo
oracles, structural bounds, and analytic identities.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from credbond import (
    BondSpec,
    GridConfig,
    MarketState,
    ModelParams,
    OptionSpec,
    bond_price,
    call_price,
    cn_solve,
    find_boundary_l,
    mc_spot,
    put_call_parity_gap,
    put_price,
)
from credbond.analytics import binorm_cdf, norm_cdf
from credbond.bond import survival_curve, survival_w
from credbond.cli import main as cli_main
from credbond.model import cum_variance, zcb_price

BENCH = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                    barrier_b=0.6, recovery_r=0.4)
BOND = BondSpec(maturity_T=2.0)
OPT = OptionSpec(expiry_T1=1.0, exercise_e=0.9)
STATE = MarketState(r=0.05, v=1.0, t=0.0)


def report(criterion: str, passed: bool) -> None:
    # bypass pytest capture so the per-criterion verdict always reaches the log
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}",
          file=sys.__stdout__, flush=True)


def random_params(rng) -> ModelParams:
    return ModelParams(
        theta=float(rng.uniform(0.2, 3.0)),
        mu=float(rng.uniform(0.0, 0.10)),
        s_r=float(rng.uniform(0.002, 0.05)),
        s_V=float(rng.uniform(0.05, 0.5)),
        rho=float(rng.uniform(-0.95, 0.95)),
        barrier_b=float(rng.uniform(0.3, 0.9)),
        recovery_r=float(rng.uniform(0.0, 0.7)),
    )


def test_criterion_01_vasicek_pde_residual():
    """zcb_price solves the Vasicek term-structure PDE to 1e-6 relative."""
    rng = np.random.default_rng(101)
    h_r, h_t = 1e-4, 1e-4
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p = random_params(rng)
        T = float(rng.uniform(0.5, 5.0))
        t = float(rng.uniform(0.0, T - 0.2))
        r = float(rng.uniform(-0.02, 0.12))
        z = zcb_price(r, t, T, p)
        z_t = (zcb_price(r, t + h_t, T, p) - zcb_price(r, t - h_t, T, p)) / (2 * h_t)
        z_r = (zcb_price(r + h_r, t, T, p) - zcb_price(r - h_r, t, T, p)) / (2 * h_r)
        z_rr = (zcb_price(r + h_r, t, T, p) - 2 * z
                + zcb_price(r - h_r, t, T, p)) / (h_r * h_r)
        residual = (z_t + p.theta * (p.mu - r) * z_r
                    + 0.5 * p.s_r ** 2 * z_rr - r * z)
        worst = max(worst, abs(residual) / z)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report("01 vasicek pde residual", ok)
    assert worst <= 1e-6, f"worst residual {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_bond_vs_fd_oracle():
    """Straight-bond closed form within 1e-4 of Crank-Nicolson on a 20x20 grid."""
    start = time.perf_counter()
    sol = cn_solve(lambda x: np.ones_like(x), 0.0, 2.0, 2.0,
                   BENCH, grid=GridConfig(nx=800, nt=800))
    recovery = BENCH.recovery_r
    xs = np.geomspace(0.62, 2.2, 20)
    ts = np.linspace(0.0, 1.9, 20)
    worst = 0.0
    for t in ts:
        fd_w = np.asarray(sol.interpolate(xs, float(t)))
        for x, wf in zip(xs, fd_w):
            exact = recovery + (1 - recovery) * survival_curve(
                float(x), float(t), 2.0, 2.0, BENCH)
            approx = recovery + (1 - recovery) * wf
            worst = max(worst, abs(approx - exact) / exact)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report("02 bond closed form vs fd oracle", ok)
    assert worst <= 1e-4, f"max relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_bond_vs_two_factor_mc():
    """Straight bond within 3 standard errors of the full 2-factor simulation."""
    res = bond_price(STATE, BOND, BENCH)
    start = time.perf_counter()
    est = mc_spot(STATE, BOND, None, BENCH, 200_000, steps_per_year=500,
                  seed=2024, workers=4)
    elapsed = time.perf_counter() - start
    diff = abs(est.mean - res.price)
    ok = (diff <= 3.0 * est.std_error and est.std_error <= 5e-4
          and elapsed < 60.0)
    report("03 bond closed form vs 2-factor mc", ok)
    assert est.std_error <= 5e-4, f"std error {est.std_error}"
    assert diff <= 3.0 * est.std_error, (
        f"diff {diff} vs 3 se = {3 * est.std_error}")
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def _option_fd_solutions(grid):
    L = find_boundary_l(OPT, BOND, BENCH)
    e, recovery = OPT.exercise_e, BENCH.recovery_r

    def w_rem(x):
        return np.array([survival_curve(float(v), 1.0, 2.0, 2.0, BENCH)
                         for v in np.atleast_1d(x)])

    def put_pay(x):
        return (e - recovery - (1 - recovery) * w_rem(x)) * (np.atleast_1d(x) < L)

    def call_pay(x):
        return (recovery + (1 - recovery) * w_rem(x) - e) * (np.atleast_1d(x) > L)

    psol = cn_solve(put_pay, 0.0, 1.0, 2.0, BENCH, grid=grid)
    csol = cn_solve(call_pay, 0.0, 1.0, 2.0, BENCH, grid=grid)
    return psol, csol


PUT_PROBES = (0.63, 0.66, 0.69, 0.72, 0.89, 0.95, 1.0, 1.1, 1.2, 1.3)
CALL_PROBES = (0.72, 0.89, 0.95, 1.0, 1.1, 1.2, 1.35, 1.5, 1.7, 2.0)


def _option_probe_errors(sol, pricer, probes):
    z = zcb_price(0.05, 0.0, 2.0, BENCH)
    worst = 0.0
    for x in probes:
        st = MarketState(0.05, x * z, 0.0)
        closed = pricer(st, OPT, BOND, BENCH).price / z
        fd = float(sol.interpolate(x, 0.0))
        worst = max(worst, abs(fd - closed) / abs(closed))
    return worst


def test_criterion_04_put_vs_fd_oracle():
    """Put closed form within 1e-3 of the FD oracle at 10 probes off x=L."""
    start = time.perf_counter()
    psol, _ = _option_fd_solutions(GridConfig(nx=800, nt=800))
    worst = _option_probe_errors(psol, put_price, PUT_PROBES)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    report("04 put closed form vs fd oracle", ok)
    assert worst <= 1e-3, f"max relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_call_vs_fd_oracle():
    """Call closed form within 1e-3 of the FD oracle, same protocol as the put."""
    start = time.perf_counter()
    _, csol = _option_fd_solutions(GridConfig(nx=800, nt=800))
    worst = _option_probe_errors(csol, call_price, CALL_PROBES)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 10.0
    report("05 call closed form vs fd oracle", ok)
    assert worst <= 1e-3, f"max relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_06_put_call_parity():
    """|parity gap| <= 1e-9 Z at 100 random points, statement FD-validated."""
    # one-time FD validation of the parity identity itself at 5 points
    psol, csol = _option_fd_solutions(GridConfig(nx=400, nt=400))
    z = zcb_price(0.05, 0.0, 2.0, BENCH)
    e, recovery = OPT.exercise_e, BENCH.recovery_r
    fd_ok = True
    for x in (0.68, 0.85, 1.0, 1.2, 1.5):
        fd_gap = float(psol.interpolate(x, 0.0)) - float(csol.interpolate(x, 0.0))
        w1 = survival_curve(x, 0.0, 1.0, 2.0, BENCH)
        w_full = survival_curve(x, 0.0, 2.0, 2.0, BENCH)
        synthetic = (e - recovery) * w1 - (1 - recovery) * w_full
        fd_ok = fd_ok and abs(fd_gap - synthetic) <= 1e-3

    rng = np.random.default_rng(606)
    worst_ratio = 0.0
    count = 0
    while count < 100:
        p = random_params(rng)
        T = float(rng.uniform(1.0, 5.0))
        t1 = float(rng.uniform(0.2, 0.9)) * T
        e_mult = float(rng.uniform(p.recovery_r + 0.02, 0.99))
        t = float(rng.uniform(0.0, 0.9 * t1))
        r = float(rng.uniform(-0.02, 0.12))
        zt = zcb_price(r, t, T, p)
        x = float(rng.uniform(1.02, 4.0)) * p.barrier_b
        st = MarketState(r=r, v=x * zt, t=t)
        spec = OptionSpec(expiry_T1=t1, exercise_e=e_mult)
        gap = put_call_parity_gap(st, spec, BondSpec(T), p)
        worst_ratio = max(worst_ratio, abs(gap) / zt)
        count += 1
    ok = fd_ok and worst_ratio <= 1e-9
    report("06 put-call parity", ok)
    assert fd_ok, "FD validation of the parity statement failed"
    assert worst_ratio <= 1e-9, f"worst |gap|/Z = {worst_ratio}"


def test_criterion_07_bounds_and_monotonicity():
    """Structural bounds, monotonicity and knock-out over 1000 random draws."""
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(1000):
        p = random_params(rng)
        T = float(rng.uniform(0.5, 5.0))
        t = float(rng.uniform(0.0, 0.9 * T))
        r = float(rng.uniform(-0.02, 0.12))
        z = zcb_price(r, t, T, p)
        bond = BondSpec(T)
        # moneyness in volatility units so W < 1 stays representable
        # (deeper draws make N(d2) underflow and W round to exactly 1.0)
        sigma = math.sqrt(cum_variance(t, T, T, p))
        m = float(rng.uniform(0.05, 3.0))
        m_hi = min(3.4, m + float(rng.uniform(0.05, 0.4)))
        x = p.barrier_b * math.exp(m * sigma)
        x_hi = p.barrier_b * math.exp(m_hi * sigma)

        w = survival_w(x, t, bond, p)
        w_hi = survival_w(x_hi, t, bond, p)
        res = bond_price(MarketState(r, x * z, t), bond, p)
        res_hi = bond_price(MarketState(r, x_hi * z, t), bond, p)
        good = (
            0.0 <= w < 1.0
            and survival_w(p.barrier_b, t, bond, p) == 0.0
            and w_hi >= w
            and p.recovery_r * z < res.price < z
            and res_hi.price >= res.price
        )

        t1 = float(rng.uniform(0.3, 0.9)) * T
        if t < t1:
            e_mult = float(rng.uniform(p.recovery_r + 0.02, 0.99))
            spec = OptionSpec(expiry_T1=t1, exercise_e=e_mult)
            edge = MarketState(r, p.barrier_b * (1.0 + 1e-8) * z, t)
            good = (good
                    and put_price(edge, spec, bond, p).price <= 1e-6
                    and call_price(edge, spec, bond, p).price <= 1e-6)
        if not good:
            violations += 1
    ok = violations == 0
    report("07 bounds, monotonicity, knock-out", ok)
    assert violations == 0, f"{violations} violations out of 1000 draws"


def test_criterion_08_boundary_solver_contract():
    """Early-redemption boundary satisfies its defining equation to 1e-12."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        recovery = float(rng.uniform(0.0, 0.8))
        e_mult = float(rng.uniform(recovery + 1e-3, 1.0 - 1e-6))
        p = ModelParams(theta=1.0, mu=0.05, s_r=0.01, s_V=0.2, rho=-0.3,
                        barrier_b=0.6, recovery_r=recovery)
        spec = OptionSpec(expiry_T1=1.0, exercise_e=e_mult)
        L = find_boundary_l(spec, BOND, p)
        w = survival_curve(L, 1.0, 2.0, 2.0, p)
        residual = abs(recovery + (1 - recovery) * w - e_mult)
        worst = max(worst, residual)
    ok = worst <= 1e-12
    report("08 boundary solver contract", ok)
    assert worst <= 1e-12, f"worst residual {worst}"


def test_criterion_09_bivariate_normal_accuracy():
    """N2 matches the arcsine law at the origin and its reduction identities."""
    worst_center = 0.0
    for rho in np.arange(-0.99, 0.995, 0.01):
        rho = float(round(rho, 2))
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        worst_center = max(worst_center, abs(binorm_cdf(0.0, 0.0, rho) - expect))

    worst_reduce = 0.0
    for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
        for a in (-2.0, -0.5, 0.0, 1.0, 2.5):
            worst_reduce = max(
                worst_reduce,
                abs(binorm_cdf(a, 40.0, rho) - norm_cdf(a)),
                abs(binorm_cdf(40.0, a, rho) - norm_cdf(a)))
            for b in (-1.5, 0.7):
                worst_reduce = max(
                    worst_reduce,
                    abs(binorm_cdf(a, b, 0.0) - norm_cdf(a) * norm_cdf(b)))
    ok = worst_center <= 1e-12 and worst_reduce <= 1e-10
    report("09 bivariate normal accuracy", ok)
    assert worst_center <= 1e-12, f"arcsine identity error {worst_center}"
    assert worst_reduce <= 1e-10, f"reduction identity error {worst_reduce}"


def test_criterion_10_verify_determinism(tmp_path):
    """cmd_verify output is byte-identical across runs and worker counts."""
    doc = {
        "model": {"theta": 1.0, "mu": 0.05, "s_r": 0.01, "s_V": 0.2,
                  "rho": -0.3, "barrier_b": 0.6, "recovery_r": 0.4},
        "bond": {"maturity_T": 2.0},
        "option": {"expiry_T1": 1.0, "exercise_e": 0.9},
        "state": {"r": 0.05, "v": 1.0, "t": 0.0},
        "verify": {"paths": 30000, "steps_per_year": 100, "seed": 99,
                   "grid_nx": 200, "grid_nt": 200},
    }
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    outputs = []
    for suite in ("mc-forward", "mc-spot"):
        for workers in (1, 1, 4):
            result = runner.invoke(cli_main, [
                "verify", "--config", str(path), "--suite", suite,
                "--workers", str(workers)])
            assert result.exit_code == 0, result.output
            outputs.append((suite, result.output.encode()))
    by_suite = {}
    for suite, blob in outputs:
        by_suite.setdefault(suite, []).append(blob)
    ok = all(len(set(blobs)) == 1 for blobs in by_suite.values())
    report("10 verify determinism", ok)
    assert ok, "verify reports differ across runs or worker counts"


def test_criterion_11_fd_convergence_order():
    """Grid-doubling error ratio near 4 on the smooth straight-bond payoff."""
    probe_x = np.array([0.75, 0.9, 1.1, 1.3])
    exact = np.array([survival_curve(float(x), 0.0, 2.0, 2.0, BENCH)
                      for x in probe_x])
    errors = []
    for n in (100, 200, 400):
        sol = cn_solve(lambda x: np.ones_like(x), 0.0, 2.0, 2.0,
                       BENCH, grid=GridConfig(nx=n, nt=n))
        fd = np.asarray(sol.interpolate(probe_x, 0.0))
        errors.append(float(np.max(np.abs(fd - exact))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(3.2 <= ratio <= 4.8 for ratio in ratios)
    report("11 fd convergence order", ok)
    assert ok, f"grid-doubling ratios {ratios} outside [3.2, 4.8]"
