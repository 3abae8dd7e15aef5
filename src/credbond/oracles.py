"""Independent numerical verification engines.

A Crank-Nicolson solver for the reduced one-dimensional barrier PDE
  u_t + 0.5 * sigma_x^2(t; T) * x^2 * u_xx = 0   (x > B)
and two Monte-Carlo pricers: a forward-measure engine for the driftless
numeraire ratio x (exact lognormal stepping with Brownian-bridge barrier
correction) and a risk-neutral two-factor engine simulating (r, V) jointly
with discrete default monitoring.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from . import model
from .bond import BondSpec, _unit_value
from .options import OptionSpec
from .errors import (
    BelowBarrier,
    DegenerateVariance,
    InvalidTenor,
    ResolutionError,
    SeedError,
    StepError,
)

_CHUNK = 8192
_DOMAIN_WIDTH_SIGMAS = 8.0


@dataclass
class GridConfig:
    """Resolution of the finite-difference solve."""

    nx: int = 800
    nt: int = 800


@dataclass
class GridSolution:
    """Backward-solved surface u(x, t) on a uniform grid in ln x."""

    log_x_nodes: np.ndarray
    times: np.ndarray
    values: np.ndarray  # shape (nt + 1, nx + 1), values[k] at times[k]

    def interpolate(self, x, t: float):
        """u at (x, t): cubic in ln x, linear between stored time slices."""
        y = np.log(np.asarray(x, dtype=float))

        def at(k: int):
            return CubicSpline(self.log_x_nodes, self.values[k])(y)

        times = self.times
        if t <= times[0]:
            return at(0)
        if t >= times[-1]:
            return at(-1)
        k = int(np.searchsorted(times, t))
        t_lo, t_hi = times[k - 1], times[k]
        w_hi = (t - t_lo) / (t_hi - t_lo)
        return (1.0 - w_hi) * at(k - 1) + w_hi * at(k)


def cn_solve(
    terminal_payoff: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    bond_T: float,
    params: model.ModelParams,
    grid: GridConfig | None = None,
) -> GridSolution:
    """Backward Crank-Nicolson solve of the reduced PDE on [t0, t1].

    The grid spans [B, B * exp(8 * sqrt(I_total))] in x with Dirichlet data on
    both ends: 0 at the barrier, where the claim knocks out, and the terminal
    payoff's value at the far node, constant in time.  terminal_payoff maps
    the array of x nodes to an array of the same shape.  Rannacher smoothing
    is always on: the first step after the terminal condition is replaced by
    two half-sized fully-implicit steps.  A window too short for grid.nt
    steps of nonzero length, half steps included, raises ResolutionError.
    """
    if grid is None:
        grid = GridConfig()
    if grid.nx < 4 or grid.nt < 1:
        raise ResolutionError(f"grid {grid.nx}x{grid.nt} too coarse")
    if not t0 < t1 <= bond_T:
        raise InvalidTenor(f"need t0 < t1 <= bond_T, got {t0}, {t1}, {bond_T}")

    b = params.barrier_b
    total_var = model.cum_variance(t0, bond_T, bond_T, params)
    if total_var <= model._MIN_VARIANCE:
        # the grid width 8 sqrt(I) would be below roundoff
        raise DegenerateVariance(
            f"variance over [{t0}, {bond_T}] is numerically zero")
    width = _DOMAIN_WIDTH_SIGMAS * math.sqrt(total_var)
    y = np.linspace(math.log(b), math.log(b) + width, grid.nx + 1)
    h = y[1] - y[0]
    times = np.linspace(t0, t1, grid.nt + 1)
    dt = times[1] - times[0]
    mid = 0.5 * (times[-2] + times[-1])  # where the two half steps meet
    if not (np.all(np.diff(times) > 0.0) and times[-2] < mid < times[-1]):
        raise ResolutionError(
            f"window [{t0}, {t1}] too short for {grid.nt} time steps")

    sig2_max = max(model.sigma_x2(u, bond_T, params)
                   for u in np.linspace(t0, t1, 33))
    if sig2_max * dt / (2.0 * h * h) > 1e4:
        raise ResolutionError(
            "time step too large relative to spatial step for damped smoothing")

    values = np.empty((grid.nt + 1, grid.nx + 1))
    values[grid.nt] = terminal_payoff(np.exp(y))
    values[grid.nt, 0] = 0.0
    far = values[grid.nt, -1]

    def step(u_later: np.ndarray, t_lo: float, t_hi: float,
             implicit_weight: float) -> np.ndarray:
        span = t_hi - t_lo
        sig2 = model.cum_variance(t_lo, t_hi, bond_T, params) / span
        lower = 0.5 * sig2 * (1.0 / (h * h) + 1.0 / (2.0 * h))
        diag = -sig2 / (h * h)
        upper = 0.5 * sig2 * (1.0 / (h * h) - 1.0 / (2.0 * h))

        u_new = np.empty_like(u_later)
        u_new[0] = 0.0  # knocked out at the barrier: nothing to add to rhs[0]
        u_new[-1] = far

        explicit = 1.0 - implicit_weight
        interior = u_later[1:-1]
        rhs = interior + span * explicit * (
            lower * u_later[:-2] + diag * interior + upper * u_later[2:])
        rhs[-1] += span * implicit_weight * upper * u_new[-1]

        n_int = len(rhs)
        ab = np.zeros((3, n_int))
        ab[0, 1:] = -span * implicit_weight * upper
        ab[1, :] = 1.0 - span * implicit_weight * diag
        ab[2, :-1] = -span * implicit_weight * lower
        u_new[1:-1] = solve_banded((1, 1), ab, rhs)
        return u_new

    for n in range(grid.nt - 1, -1, -1):
        t_lo, t_hi = times[n], times[n + 1]
        if n == grid.nt - 1:
            u = step(values[n + 1], mid, t_hi, implicit_weight=1.0)
            u = step(u, t_lo, mid, implicit_weight=1.0)
        else:
            u = step(values[n + 1], t_lo, t_hi, implicit_weight=0.5)
        values[n] = u

    return GridSolution(log_x_nodes=y, times=times, values=values)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error; reproducible given seed."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed % 2 ** 64, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n_paths: int) -> list[int]:
    sizes = [_CHUNK] * (n_paths // _CHUNK)
    if n_paths % _CHUNK:
        sizes.append(n_paths % _CHUNK)
    return sizes


def _reduce_chunks(run_chunk, n_paths: int, workers: int,
                   seed: int) -> McEstimate:
    sizes = _chunk_sizes(n_paths)
    jobs = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda job: run_chunk(*job), jobs))
    else:
        results = [run_chunk(ci, size) for ci, size in jobs]
    # fixed chunk size and in-order reduction keep the result independent of
    # the worker count and bit-reproducible for a given seed
    total = 0.0
    total_sq = 0.0
    for s, s2 in results:
        total += s
        total_sq += s2
    mean = total / n_paths
    if n_paths > 1:
        var = max(0.0, (total_sq - n_paths * mean * mean) / (n_paths - 1))
        std_error = math.sqrt(var / n_paths)
    else:
        std_error = math.inf
    return McEstimate(mean=mean, std_error=std_error, n_paths=n_paths,
                      seed=seed)


def mc_forward(
    x0: float,
    t: float,
    bond_T: float,
    params: model.ModelParams,
    n_paths: int,
    seed: int = 0,
    n_steps: int = 32,
    workers: int = 1,
) -> McEstimate:
    """Forward-measure engine for the numeraire ratio x = V/Z.

    Exact lognormal stepping (per-interval variance from cum_variance) with a
    Brownian-bridge barrier-crossing correction against the flat barrier
    x = B, so the continuously monitored knock-out is sampled without bias.
    Knocked-out paths score the recovery R; survivors score the face value 1.
    The returned mean is the straight bond in units of Z (multiply by Z for
    its price).
    """
    if n_paths <= 0:
        raise SeedError("n_paths must be positive")
    if not x0 > params.barrier_b:
        raise BelowBarrier(f"x0={x0} must exceed the barrier {params.barrier_b}")
    grid_t = np.linspace(t, bond_T, n_steps + 1)
    step_vars = np.array([
        model.cum_variance(grid_t[i], grid_t[i + 1], bond_T, params)
        for i in range(n_steps)
    ])
    log_b = math.log(params.barrier_b)
    log_x0 = math.log(x0)

    def run_chunk(chunk_index: int, size: int) -> tuple[float, float]:
        rng = _chunk_rng(seed, chunk_index)
        lx = np.full(size, log_x0)
        alive = np.ones(size, dtype=bool)
        for v in step_vars:
            zn = rng.standard_normal(size)
            un = rng.random(size)
            if v <= 0.0:
                continue
            lx_new = lx - 0.5 * v + math.sqrt(v) * zn
            with np.errstate(over="ignore", under="ignore"):
                bridge = np.exp(-2.0 * (lx - log_b) * (lx_new - log_b) / v)
            hit = alive & ((lx_new <= log_b) | (un < bridge))
            alive &= ~hit
            lx = lx_new
        value = np.where(alive, 1.0, params.recovery_r)
        return float(value.sum()), float((value * value).sum())

    return _reduce_chunks(run_chunk, n_paths, workers, seed)


def mc_spot(
    state: model.MarketState,
    bond: BondSpec,
    option: OptionSpec | None,
    params: model.ModelParams,
    n_paths: int,
    steps_per_year: int = 500,
    seed: int = 0,
    kind: str | None = None,
    workers: int = 1,
) -> McEstimate:
    """Risk-neutral two-factor engine: exact Vasicek r, Euler log-V.

    Default is monitored at every step against the moving barrier B*Z(r, u);
    between steps a Brownian-bridge crossing check is applied to the gap
    g = ln V - ln(B*Z(r, u)), which is flat at zero in that coordinate
    (the bridge variance is the step's cumulative numeraire variance, exact
    to leading order over a fine step).  A hit pays R*Z(r, u) discounted by
    the trapezoid of the realized short rate (zero for the bare option
    kinds, which knock out worthless).  Survivors receive the
    contractual payoff: face 1 at T for the straight bond, or the T1
    exercise payoff for option kinds ("put", "call", "puttable",
    "callable") built from the straight-bond closed form.
    """
    if n_paths <= 0:
        raise SeedError("n_paths must be positive")
    if steps_per_year < 50:
        raise StepError(f"need at least 50 steps per year, got {steps_per_year}")
    if kind is None:
        kind = "bond" if option is None else "put"
    if kind != "bond" and option is None:
        raise ValueError(f"kind={kind!r} needs an OptionSpec")
    if kind not in ("bond", "put", "call", "puttable", "callable"):
        raise ValueError(f"unknown instrument kind {kind!r}")

    T = bond.maturity_T
    horizon = T if kind == "bond" else option.expiry_T1
    span = horizon - state.t
    if span <= 0.0:
        raise InvalidTenor("evaluation time must precede the simulation horizon")
    n_steps = max(1, math.ceil(span * steps_per_year))
    dt = span / n_steps
    theta, mu, s_r, s_v, rho = (params.theta, params.mu, params.s_r,
                                params.s_V, params.rho)
    exp_th = math.exp(-theta * dt)
    r_std = s_r * math.sqrt(-math.expm1(-2.0 * theta * dt) / (2.0 * theta))
    rho_c = math.sqrt(1.0 - rho * rho)
    sqrt_dt = math.sqrt(dt)

    grid_times = state.t + dt * np.arange(n_steps + 1)
    ab = np.array([model.abar(u, T, params) for u in grid_times])
    bb = np.array([model.bbar(u, T, params) for u in grid_times])
    step_vars = np.array([
        model.cum_variance(grid_times[i], grid_times[i + 1], T, params)
        for i in range(n_steps)
    ])
    log_b = math.log(params.barrier_b)
    # bare options knock out worthless; bond-bearing contracts get the rebate
    recovery = 0.0 if kind in ("put", "call") else params.recovery_r

    def run_chunk(chunk_index: int, size: int) -> tuple[float, float]:
        rng = _chunk_rng(seed, chunk_index)
        r = np.full(size, state.r)
        lnv = np.full(size, math.log(state.v))
        gap = lnv - (ab[0] - bb[0] * r) - log_b
        disc = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        value = np.zeros(size)
        for i in range(n_steps):
            z1 = rng.standard_normal(size)
            z2 = rng.standard_normal(size)
            un = rng.random(size)
            zv = rho * z1 + rho_c * z2
            r_new = mu + (r - mu) * exp_th + r_std * z1
            lnv = lnv + (r - 0.5 * s_v * s_v) * dt + s_v * sqrt_dt * zv
            disc = disc + 0.5 * (r + r_new) * dt
            r = r_new
            log_z = ab[i + 1] - bb[i + 1] * r
            gap_new = lnv - log_z - log_b
            v_step = step_vars[i]
            if v_step > 0.0:
                with np.errstate(over="ignore", under="ignore"):
                    bridge = np.exp(-2.0 * np.maximum(gap, 0.0)
                                    * np.maximum(gap_new, 0.0) / v_step)
            else:
                bridge = np.zeros(size)
            hit = alive & ((gap_new <= 0.0) | (un < bridge))
            gap = gap_new
            if hit.any():
                value[hit] = (np.exp(-disc[hit]) * recovery
                              * np.exp(log_z[hit]))
                alive &= ~hit
        if alive.any():
            df = np.exp(-disc[alive])
            if kind == "bond":
                value[alive] = df
            else:
                z_t1 = np.exp(ab[-1] - bb[-1] * r[alive])
                x = np.exp(lnv[alive]) / z_t1
                c_unit = _unit_value(x, horizon, T, params)
                e = option.exercise_e
                if kind == "put":
                    pay = np.maximum(e - c_unit, 0.0)
                elif kind == "call":
                    pay = np.maximum(c_unit - e, 0.0)
                elif kind == "puttable":
                    pay = np.maximum(c_unit, e)
                else:  # callable
                    pay = np.minimum(c_unit, e)
                value[alive] = df * z_t1 * pay
        return float(value.sum()), float((value * value).sum())

    return _reduce_chunks(run_chunk, n_paths, workers, seed)
