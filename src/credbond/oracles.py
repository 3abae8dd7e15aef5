"""Independent numerical verification engines.

A Crank-Nicolson solver for the reduced one-dimensional barrier PDE
  u_t + 0.5 * sigma_x^2(t; T) * x^2 * u_xx = 0   (x > B)
and two Monte-Carlo pricers: a forward-measure engine for the driftless
numeraire ratio x (exact lognormal stepping with Brownian-bridge barrier
correction) and a risk-neutral two-factor engine simulating (r, V) jointly.
Each Monte-Carlo path scores its exact Brownian-bridge survival given its
nodes, from one bridge factor, and both engines draw only normals.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv

from . import model
from .bond import BondSpec, _unit_value
from .options import OptionSpec, _expiry_payoff
from .errors import (
    BelowBarrier,
    DegenerateVariance,
    DomainError,
    InvalidTenor,
    ResolutionError,
    SeedError,
    StepError,
)

_CHUNK = 8192
_DOMAIN_WIDTH_SIGMAS = 8.0
# cn_solve's steps take node i at ln B + i h: a node off that place by this
# fraction of h moves a read by as small a fraction of one step's change
_GRID_UNIFORMITY = 1e-6
# mc_spot's survival control takes its bridge factor over this many steps
_SURVIVAL_STRIDE = 10
# c with 1 - exp(-c) == 1.0: mc_spot evaluates a bridge factor only where
# 2 a+ b <= c var, since beyond it the factor rounds to 1
_SURVIVAL_CUTOFF = 40.0
# a control enters the regression only where at least about this many
# samples carry its spread (see _reduce_chunks)
_CONTROL_MIN_SAMPLES = 10.0


@dataclass
class GridConfig:
    """Resolution of the finite-difference solve."""

    nx: int = 800
    nt: int = 800


@dataclass
class GridSolution:
    """Backward-solved surface u(x, t) on a uniform grid in ln x.

    values has shape (nt + 1, nx + 1) for a payoff of one row and
    (nt + 1, m, nx + 1) for a payoff of m rows; values[k] is at times[k].
    """

    log_x_nodes: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def interpolate(self, x, t: float):
        """u at (x, t): cubic in ln x, linear between stored time slices.

        Returns shape x.shape for a payoff of one row and (m,) + x.shape for
        one of m rows.  Raises DomainError for a non-finite x or t,
        ResolutionError for an x beyond the grid's far node, where the
        spline would extrapolate, and BelowBarrier for an x below the first
        node whose ln x lies below it too.  So x = B and the first node pass
        whichever way exp(ln B) rounds, and both are taken at the node,
        where u is 0.
        """
        x = np.asarray(x, dtype=float)
        if not (np.all(np.isfinite(x)) and math.isfinite(t)):
            raise DomainError(f"FD surface read at a non-finite point (t = {t})")
        # the nodes as cn_solve formed the x its payoff took
        nodes = np.exp(self.log_x_nodes)
        if np.any(x > nodes[-1]):
            raise ResolutionError(
                f"x = {np.max(x)} is beyond the grid's reach x = {nodes[-1]}")
        log_b = self.log_x_nodes[0]  # math.log(B), as cn_solve took it
        for v in x[x < nodes[0]].tolist():
            if not (v > 0.0 and math.log(v) >= log_b):
                raise BelowBarrier(f"x = {v} is below the grid's barrier node")
        y = np.maximum(np.log(x), log_b)

        def at(k: int):
            return CubicSpline(self.log_x_nodes, self.values[k], axis=-1)(y)

        times = self.times
        if t <= times[0]:
            return at(0)
        if t >= times[-1]:
            return at(-1)
        k = int(np.searchsorted(times, t))
        t_lo, t_hi = times[k - 1], times[k]
        w_hi = (t - t_lo) / (t_hi - t_lo)
        return (1.0 - w_hi) * at(k - 1) + w_hi * at(k)


def _solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """x with A x = rhs, for A given by its sub-, main and super-diagonal.

    rhs is one right-hand side, shape (n,), or several as the columns of a
    Fortran-ordered (n, nrhs) array.  LAPACK gtsv with partial pivoting, as
    solve_banded((1, 1), ...) calls it, so the result is the same to the
    bit.  All four arrays are overwritten.
    Raises ResolutionError where gtsv reports the system singular.
    """
    *_, x, info = dgtsv(sub, diag, sup, rhs, 1, 1, 1, 1)
    if info != 0:
        raise ResolutionError(f"Crank-Nicolson system singular (gtsv info {info})")
    return x


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
    the array of nx + 1 x nodes to one payoff, shape (nx + 1,), or to m
    payoffs as the rows of an (m, nx + 1) array.  The m payoffs march as one
    system with m right-hand sides, each row as its own solve would to the
    bit; GridSolution says how the surface and interpolate are shaped.
    Rannacher smoothing is always on: the first step after the terminal
    condition is replaced by two half-sized fully-implicit steps.  A window
    too short for grid.nt steps of nonzero length, half steps included,
    raises ResolutionError; a variance too small for grid.nx ln x steps
    equal to within _GRID_UNIFORMITY of a step, DegenerateVariance; a far
    node beyond the float range, DomainError.
    Each step's tridiagonal system is solved by LAPACK gtsv, the routine
    scipy.linalg.solve_banded calls for one band each side, without that
    function's per-call input checks.  So the payoff is checked up front: a
    non-finite one raises DomainError before the first step.  A surface that
    overflows on the way raises DomainError too.
    """
    if grid is None:
        grid = GridConfig()
    if grid.nx < 4 or grid.nt < 1:
        raise ResolutionError(f"grid {grid.nx}x{grid.nt} too coarse")
    if not t0 < t1 <= bond_T:
        raise InvalidTenor(f"need t0 < t1 <= bond_T, got {t0}, {t1}, {bond_T}")

    b = params.barrier_b
    total_var = model.cum_variance(t0, bond_T, bond_T, params)
    width = _DOMAIN_WIDTH_SIGMAS * math.sqrt(total_var)
    if not math.log(b) + width <= model._LOG_HUGE:
        raise DomainError(
            f"the grid's far node B e^{width} is beyond the float range")
    y = np.linspace(math.log(b), math.log(b) + width, grid.nx + 1)
    h = y[1] - y[0]
    if not (h > 0.0 and np.ptp(np.diff(y)) <= _GRID_UNIFORMITY * h):
        # the step h = 8 sqrt(I) / nx is within reach of the nodes' roundoff
        raise DegenerateVariance(
            f"variance over [{t0}, {bond_T}] is too small for {grid.nx} "
            "uniform ln x steps")
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

    payoff = np.asarray(terminal_payoff(np.exp(y)), dtype=float)
    if not np.all(np.isfinite(payoff)):
        raise DomainError("terminal payoff is not finite on the grid")
    # values[n] holds the m payoffs' slices as rows, and each step builds
    # their right-hand sides as the rows of rhs, whose transpose is the
    # Fortran-ordered (nx - 1, m) array gtsv takes
    rows = payoff.reshape(-1, grid.nx + 1)
    values = np.empty((grid.nt + 1,) + rows.shape)
    values[grid.nt] = rows
    values[:, :, 0] = 0.0  # knocked out at the barrier: nothing to add to rhs[0]
    values[:, :, -1] = values[grid.nt, :, -1]
    far = values[grid.nt, :, -1]

    n_int = grid.nx - 1
    sub, diag, sup = np.empty(n_int - 1), np.empty(n_int), np.empty(n_int - 1)
    rhs, term = np.empty((2, len(far), n_int))

    def step(later: int, n: int, t_lo: float, t_hi: float,
             implicit_weight: float) -> None:
        # values[n] from values[later]; n == later is safe, since the
        # right-hand side is built before values[n] is written
        span = t_hi - t_lo
        sig2 = model.cum_variance(t_lo, t_hi, bond_T, params) / span
        lower = 0.5 * sig2 * (1.0 / (h * h) + 1.0 / (2.0 * h))
        centre = -sig2 / (h * h)
        upper = 0.5 * sig2 * (1.0 / (h * h) - 1.0 / (2.0 * h))

        u = values[later]
        explicit = 1.0 - implicit_weight
        # u + span explicit ((lower u- + centre u) + upper u+), in that order
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
        values[n, :, 1:-1] = _solve_tridiagonal(sub, diag, sup, rhs.T).T

    # an overflow is caught on the whole surface, below
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.nt - 1, -1, -1):
            t_lo, t_hi = times[n], times[n + 1]
            if n == grid.nt - 1:
                step(n + 1, n, mid, t_hi, implicit_weight=1.0)
                step(n, n, t_lo, mid, implicit_weight=1.0)
            else:
                step(n + 1, n, t_lo, t_hi, implicit_weight=0.5)
    if not np.all(np.isfinite(values)):
        raise DomainError("the FD surface overflowed: payoff too large")

    if payoff.ndim == 1:
        values = values[:, 0]
    return GridSolution(log_x_nodes=y, times=times, values=values)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error; reproducible given seed."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


# row 0 of a chunk's paths steps on +z, row 1 on -z: antithetic pairs
_SIGNS = np.array([[1.0], [-1.0]])


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence((seed % 2 ** 64, chunk_index))
    return np.random.Generator(np.random.SFC64(seq))


def _group_means(values: np.ndarray, size: int) -> np.ndarray:
    """A chunk's samples from its paths' values, shaped (2, k, groups).

    values[s, j, q] is the path of sign s (+z, then -z) in antithetic pair j
    of group q.  A group's 2 k paths step on dependent normals and it scores
    their mean: k = 1 in mc_forward, 2 in mc_spot.  A chunk that does not
    fill its last group keeps that group's first size - 2 k (groups - 1)
    paths, in the order pair 0 +z, pair 0 -z, pair 1 +z, ..., and scores
    their mean.
    """
    k, groups = values.shape[1:]
    means = (values[0] + values[1]).sum(axis=0) * (0.5 / k)
    kept = size - 2 * k * (groups - 1)
    if kept < 2 * k:
        means[-1] = sum(values[:, :, -1].T.ravel()[:kept]) / kept
    return means


def _bridge_survival(prod: np.ndarray, var: float) -> np.ndarray:
    """The probability that a Brownian bridge of variance var stays above 0.

    prod is g g', the bridge's values at its two ends: 1 - exp(-2 g g' / var)
    where both are > 0, and 0 where g' <= 0, prod being clamped at 0 (a path
    with g <= 0 is at 0 from an earlier factor).  Where var is 0, or so small
    that 2 / var overflows, the factor is its limit: 1 where prod > 0, else 0.
    """
    scale = -2.0 / float(var) if var > 0.0 else -math.inf
    if scale == -math.inf:
        return np.where(prod > 0.0, 1.0, 0.0)
    return -np.expm1(np.maximum(prod, 0.0) * scale)


def _reduce_chunks(run_chunk, n_paths: int, workers: int,
                   seed: int) -> list[McEstimate]:
    """An McEstimate of each sample array that run_chunk returns.

    run_chunk(chunk_index, size) returns (samples, controls), two lists of
    arrays of one length; each control has mean exactly 0 under the engine's
    own recursion.  Every estimate is regressed on the controls that enter:
    with M the centred co-moment matrix of the n samples, C the controls
    that enter and k their count, beta solves M_CC beta = M_Cj, the estimate
    is mean_j - beta . mean_C and its standard error
    sqrt(max(0, M_jj - beta . M_Cj) / (n - 1 - k) / n).  M_CC is solved in
    correlation form by least squares, so a control that repeats another's
    information adds nothing.  A control c enters where M_cc is positive and
    finite and M_cc^2 / sum(c^4) >= _CONTROL_MIN_SAMPLES, the fourth powers
    taken about c's exact mean 0: that ratio counts the samples that carry
    c's spread, about n for a spread-out control and about m where m samples
    hold it all, or where the rest sit off 0 by a shared offset.  A control
    held by a handful of samples would fit the estimates' residual on them
    and report an se that the spread across seeds does not bear out.  The
    count is at most n, so a control enters only where n >= 10 > 1 + k for
    the at most 4 controls an engine returns.  With none entering, the plain
    mean and sqrt(M_jj / (n - 1) / n) apply.
    The samples are the means of a group of dependent paths, an antithetic
    pair in mc_forward and two in mc_spot (see _group_means), so n counts
    len(array) samples per chunk, not its paths.
    Each chunk gives its means and co-moment matrix, taken about its first
    sample and then about the mean of the shifted samples, so that equal
    samples give exactly 0; the chunks merge in order (Chan et al.).
    """
    def moments(job):
        samples, controls = run_chunk(*job)
        values = np.array([*samples, *controls])
        shifted = values - values[:, :1]
        mean = shifted.mean(axis=1)
        centred = shifted - mean[:, None]
        co = (centred[:, None] * centred[None]).sum(axis=-1)
        square = values[len(samples):] ** 2
        fourth = (square * square).sum(axis=1)
        return len(samples), values.shape[1], values[:, 0] + mean, co, fourth

    jobs = list(enumerate(min(_CHUNK, n_paths - start)
                          for start in range(0, n_paths, _CHUNK)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(moments, jobs))
    else:
        results = [moments(job) for job in jobs]
    # fixed chunk size and in-order reduction keep the result independent of
    # the worker count and bit-reproducible for a given seed
    n_samples = results[0][0]
    n = 0
    mean = np.zeros(len(results[0][2]))
    co = np.zeros((len(mean), len(mean)))
    fourth = np.zeros(len(mean) - n_samples)
    for _, count, chunk_mean, chunk_co, chunk_fourth in results:
        fourth = fourth + chunk_fourth
        total = n + count
        delta = chunk_mean - mean
        mean = mean + delta * (count / total)
        co = co + chunk_co + np.outer(delta, delta) * (n * count / total)
        n = total
    # a control's fourth powers can underflow to 0 where its spread is
    # positive: it then has no count, and no use
    enter = [c for c in range(n_samples, len(mean))
             if 0.0 < co[c, c] < math.inf and fourth[c - n_samples] > 0.0
             and co[c, c] * (co[c, c] / fourth[c - n_samples])
             >= _CONTROL_MIN_SAMPLES]
    if enter:
        scale = np.sqrt(co[enter, enter])
        corr = co[np.ix_(enter, enter)] / np.outer(scale, scale)
        beta = np.linalg.lstsq(corr, co[enter, :n_samples] / scale[:, None],
                               rcond=None)[0] / scale[:, None]
    estimates = []
    for j in range(n_samples):
        if enter:
            est = mean[j] - beta[:, j] @ mean[enter]
            var = (max(0.0, co[j, j] - beta[:, j] @ co[enter, j])
                   / (n - 1 - len(enter)))
        elif n > 1:
            est, var = mean[j], co[j, j] / (n - 1)
        else:
            est, var = mean[j], math.inf
        estimates.append(McEstimate(mean=float(est),
                                    std_error=float(np.sqrt(var / n)),
                                    n_paths=n_paths, seed=seed))
    return estimates


def _survival_mean(g0: float, var: float) -> float:
    """P(X_u > -g0 for all u <= tau), X a Brownian motion from 0 with drift
    -var / (2 tau) and variance var at tau: Phi(h) - e^{g0} Phi(-k), with
    h = (g0 - var / 2) / sqrt(var) and k = (g0 + var / 2) / sqrt(var).

    g0 - k^2 / 2 = -h^2 / 2, so e^{g0} Phi(-k) = phi(h) m(k), m(k) =
    Phi(-k) / phi(k) the Mills ratio: no factor overflows, whatever g0 > 0.
    m is taken from erfc up to k = 37, where exp(k^2 / 2) is still finite,
    and beyond it from its asymptotic series, whose next term is below 3e-13
    of m there.  0 where g0 <= 0, X starting at or below the level, and 1
    where var = 0.  g0 is taken as a Python float, whose products overflow
    to inf without a numpy RuntimeWarning: k * k and h * h do where var is
    near the float minimum.
    """
    g0 = float(g0)
    if not g0 > 0.0:
        return 0.0
    if var == 0.0:
        return 1.0
    sd = math.sqrt(var)
    h = (g0 - 0.5 * var) / sd
    k = (g0 + 0.5 * var) / sd
    if k <= 37.0:
        mills = (math.sqrt(0.5 * math.pi) * math.erfc(k / math.sqrt(2.0))
                 * math.exp(0.5 * k * k))
    else:
        w = 1.0 / (k * k)
        mills = (1.0 - w * (1.0 - w * (3.0 - w * (15.0 - w * 105.0)))) / k
    return (0.5 * math.erfc(-h / math.sqrt(2.0))
            - math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi) * mills)


def mc_forward(
    x0: float,
    t: float,
    bond_T: float,
    params: model.ModelParams,
    n_paths: int,
    seed: int = 0,
    n_steps: int = 1,
    workers: int = 1,
) -> McEstimate:
    """Forward-measure engine for the numeraire ratio x = V/Z.

    Exact lognormal stepping, with the per-interval variance from
    cum_variance.  Given a path's nodes, the probability that it stayed
    above the flat barrier x = B is the product of its steps' Brownian-bridge
    factors (see _bridge_survival), and the path scores R + (1 - R) times
    it: the face value 1 on survival and the recovery R on default, in
    expectation given the nodes.  Both are exact over a step of any length,
    so one step over [t, T] is the default.  The returned mean is the
    straight bond in units of Z (multiply by Z for its price).  x is
    driftless, so the control expm1(ln(x_T / x0)), taken from the summed
    increments of ln x, has mean exactly 0; the estimate is regressed on it
    (see _reduce_chunks).  Paths run in antithetic pairs; the mean and
    std_error are over the pair means (see _group_means for an odd chunk).
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
    g0 = math.log(x0) - math.log(params.barrier_b)

    def run_chunk(chunk_index: int,
                  size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        rng = _chunk_rng(seed, chunk_index)
        shape = (2, (size + 1) // 2)
        log_ratio = np.zeros(shape)  # ln(x / x0), the increments summed
        gap = np.full(shape, g0)  # ln x - ln B
        survival = np.ones(shape)
        for v in step_vars:
            zn = rng.standard_normal(shape[1])
            log_ratio += _SIGNS * (math.sqrt(v) * zn) - 0.5 * v
            gap_new = g0 + log_ratio
            survival *= _bridge_survival(gap * gap_new, v)
            gap = gap_new
        payoff = params.recovery_r + (1.0 - params.recovery_r) * survival
        return ([_group_means(payoff[:, None], size)],
                [_group_means(np.expm1(log_ratio)[:, None], size)])

    return _reduce_chunks(run_chunk, n_paths, workers, seed)[0]


def mc_spot(
    state: model.MarketState,
    bond: BondSpec,
    option: OptionSpec | None,
    params: model.ModelParams,
    n_paths: int,
    steps_per_year: int = 500,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, McEstimate]:
    """Risk-neutral two-factor engine, one path set: exact Vasicek r, Euler ln V.

    Default is the first touch of the moving barrier B*Z(r, u).  Given a
    path's nodes, the probability that it stayed above is the product of its
    steps' Brownian-bridge factors (see _bridge_survival) on the gap
    g = ln V - ln(B*Z(r, u)), which is flat at zero in that coordinate (the
    bridge variance is the step's cumulative numeraire variance, exact to
    leading order over a fine step).  Each path carries that probability,
    alive, from 1: a step that takes it from a to a f pays the rebate
    R*Z(r, u) at its end node on the mass a (1 - f), discounted by the
    trapezoid of the realized short rate, and at T alive pays face 1.  So
    the "bond" estimate scores, in expectation given the nodes, what a
    sampled knock-out would.  Given an option, T1 is a step node where a
    survivor holds the straight bond's closed-form value u: the put and
    call pay alive times _expiry_payoff of u, and the held bond is the
    rebates so far plus alive times u; the puttable is it plus the put, the
    callable it less the call.  Returns {"bond": ...}, with an option also
    "put", "call", "puttable", "callable".
    Every estimate is regressed on controls with mean exactly 0 (see
    _reduce_chunks), built on X = ln(M / M_0), where M = V e^{-sum r_k h_k}
    discounts V on the left-point r_k of its Euler step: X steps by
    v_std (rho z1 + rho_c z2) - s_V^2 h / 2, a Brownian motion with drift
    -s_V^2 / 2 at the nodes.  D = expm1(X_T) has mean 0.  S is the
    probability, given a path's X at its update nodes, that a Brownian
    bridge through them stays above the flat level -g0, g0 = ln(x0 / B):
    the product over successive update nodes of 1 - exp(-2 a+ b / var)
    (see _bridge_survival), with a and b X + g0 at the two nodes and var =
    s_V^2 times the time between them, and 0 once some b <= 0.  S updates at every
    _SURVIVAL_STRIDE-th node, at T1 and at T, and evaluates its factor only
    where 2 a+ b <= _SURVIVAL_CUTOFF var, beyond which it rounds to 1.  The
    bridge is exact for X whatever the nodes, so E[S] is the first-passage
    probability _survival_mean(g0, s_V^2 (T - t)); the control is S - E[S].
    S sees the barrier crossings that decide most of the bond's variance,
    though the default barrier B Z(r, u) moves with r and S's does not.
    Given an option, D and S at T1 join them.  At s_V = 0 every control is
    0 and the plain mean applies.
    Paths run in groups of four that share one standard 2-D normal draw
    (z1, z2) per step (rotation sampling, Fishman and Huang 1983): pair A
    steps on +-(z1, z2) and pair B on +-(-z2, z1), the draw turned by 90
    degrees.  Each path's normals are iid N(0, 1), so each path has the
    model's law, and B's V-shock rho_c z1 - rho z2 is independent of A's,
    rho z1 + rho_c z2.  But A's r-shock z1 enters B's V-shock, so the four
    paths are dependent: each estimate and its std_error are over the
    group means (see _group_means for an incomplete chunk).  r - mu, ln V,
    the trapezoid and ln M are linear in the normals, so a pair is a
    deterministic path, computed once per call, plus a deviation that one
    path adds and its partner subtracts; one 4x6 matrix product per step
    advances the deviations of both pairs.  A step takes its bridge factor
    only on a path with 2 g+ g' <= _SURVIVAL_CUTOFF v_step, g+ = max(g, 0)
    and g' the new gap: beyond it the factor rounds to 1 and the step
    changes nothing.  A chunk draws only normals, one (2, Q) block a step.
    """
    if n_paths <= 0:
        raise SeedError("n_paths must be positive")
    if steps_per_year < 50:
        raise StepError(f"need at least 50 steps per year, got {steps_per_year}")
    T = bond.maturity_T
    span = T - state.t
    if span <= 0.0:
        raise InvalidTenor("evaluation time must precede the bond's maturity")
    n_steps = max(1, math.ceil(span * steps_per_year))
    dt = span / n_steps
    # the last node is T itself: t + n dt can round past it
    grid_times = np.append(state.t + dt * np.arange(n_steps), T)
    step_dts = [dt] * n_steps
    expiry_step = None  # the step that ends at T1
    if option is not None:
        T1 = option.expiry_T1
        if not state.t < T1 < T:
            raise InvalidTenor(
                f"option expiry {T1} must lie inside ({state.t}, {T})")
        k = int(np.searchsorted(grid_times, T1))
        if grid_times[k] != T1:  # split the step across T1
            step_dts[k - 1:k] = [T1 - grid_times[k - 1], grid_times[k] - T1]
            grid_times = np.insert(grid_times, k, T1)
        expiry_step = k - 1
    theta, mu, s_r, s_v, rho = (params.theta, params.mu, params.s_r,
                                params.s_V, params.rho)
    rho_c = math.sqrt(1.0 - rho * rho)
    ab = np.array([model.abar(u, T, params) for u in grid_times])
    bb = np.array([model.bbar(u, T, params) for u in grid_times])
    step_vars = [model.cum_variance(u, w, T, params)
                 for u, w in zip(grid_times[:-1], grid_times[1:])]
    # y = r - mu, ln V, the trapezoid of int r du and ln M are linear in the
    # normals: each is a deterministic path, stepped here once per call on
    # zero normals, plus a pair deviation that row 0 adds and row 1
    # subtracts.  kernels[i] takes the deviations of (g, y, d, m) at node i
    # and the step's normals (z1, z2) to the deviations at node i + 1, with g
    # the gap ln V - ln Z - ln B, ln Z = abar - bbar r, d the trapezoid and
    # m = ln M, the control's discounted firm value (see the docstring).
    kernels = np.empty((len(step_dts), 4, 6))
    y_det, lnv_det, disc_det = [state.r - mu], [math.log(state.v)], [0.0]
    for i, h in enumerate(step_dts):
        decay = math.exp(-theta * h)
        r_std = s_r * math.sqrt(-math.expm1(-2.0 * theta * h) / (2.0 * theta))
        v_std = s_v * math.sqrt(h)
        y = y_det[-1]
        y_det.append(y * decay)
        lnv_det.append(lnv_det[-1] + (mu + y - 0.5 * s_v * s_v) * h)
        disc_det.append(disc_det[-1] + (mu + 0.5 * (y + y_det[-1])) * h)
        kernels[i] = (
            (1.0, h - bb[i] + bb[i + 1] * decay, 0.0, 0.0,
             rho * v_std + bb[i + 1] * r_std, rho_c * v_std),
            (0.0, decay, 0.0, 0.0, r_std, 0.0),
            (0.0, 0.5 * h * (1.0 + decay), 1.0, 0.0, 0.5 * h * r_std, 0.0),
            (0.0, 0.0, 0.0, 1.0, rho * v_std, rho_c * v_std))
    log_m_det = -0.5 * s_v * s_v * (grid_times - state.t)  # X's drifts
    log_z_det = ab - bb * (mu + np.array(y_det))
    gap_det = np.array(lnv_det) - log_z_det - math.log(params.barrier_b)
    # ln(Z e^{-int r du}), the discounted Z that a rebate R Z is paid on
    log_disc_z_det = log_z_det - np.array(disc_det)
    # X + g0 on the deterministic path, and the bridge variance of X from the
    # last update node of S to each update node
    level = log_m_det + gap_det[0]
    update_nodes = {*range(_SURVIVAL_STRIDE, len(grid_times), _SURVIVAL_STRIDE),
                    len(grid_times) - 1}
    if option is not None:
        update_nodes.add(expiry_step + 1)
    bridge_var, last = {}, 0
    for j in sorted(update_nodes):
        bridge_var[j] = s_v * s_v * (grid_times[j] - grid_times[last])
        last = j
    # E[S] at T and, given an option, at T1
    horizons = [T] if option is None else [T, T1]
    survival_means = [_survival_mean(gap_det[0], s_v * s_v * (u - state.t))
                      for u in horizons]

    def run_chunk(chunk_index: int,
                  size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        rng = _chunk_rng(seed, chunk_index)
        groups = (size + 3) // 4
        pairs = 2 * groups
        shape = (2, pairs)
        # rows 0-3 hold the deviations of (g, y, d, m), rows 4-5 the normals;
        # column q is pair A of group q and column groups + q its pair B
        dev, dev_next = np.zeros((6, pairs)), np.empty((6, pairs))
        normals = np.empty((2, groups))
        # the gap of every path at the last node and at this one
        gap_last, gap = np.full(shape, max(gap_det[0], 0.0)), np.empty(shape)
        prod = np.empty(shape)
        near = np.empty(shape, dtype=bool)
        alive = np.ones(shape)  # the probability of no touch so far
        value = np.zeros(shape)
        # S, and X + g0 at its last update node and at this one
        survival = np.full(shape, float(gap_det[0] > 0.0))
        above_last, above = np.full(shape, gap_det[0]), np.empty(shape)
        at_expiry, expiry_controls = [], []

        def bridge_factors(last, now, var):
            # the flat indices of the paths whose bridge factor over a span
            # of variance var, from values last to now, may be below 1, and
            # the factor there: beyond the cutoff it rounds to 1
            np.multiply(last, now, out=prod)
            np.less_equal(prod, 0.5 * _SURVIVAL_CUTOFF * var, out=near)
            idx = near.ravel().nonzero()[0]
            return idx, _bridge_survival(prod.ravel()[idx], var)

        def discounted_z(node, signs, cols):
            # Z e^{-int r du} at a node, on the paths of these signs (+1 for
            # row 0, -1 for row 1) and columns
            return np.exp(log_disc_z_det[node]
                          - signs * (bb[node] * y[cols] + d[cols]))

        for i, kernel in enumerate(kernels):
            rng.standard_normal(out=normals)
            dev[4:, :groups] = normals
            np.negative(normals[1], out=dev[4, groups:])
            dev[5, groups:] = normals[0]
            np.matmul(kernel, dev, out=dev_next[:4])
            dev, dev_next = dev_next, dev
            g, y, d = dev[:3]
            np.add(gap_det[i + 1], g, out=gap[0])
            np.subtract(gap_det[i + 1], g, out=gap[1])
            # g+ g': node 0's gap is clamped, and a path whose last gap is
            # <= 0 has alive 0 already
            idx, factor = bridge_factors(gap_last, gap, step_vars[i])
            if idx.size:
                rows, cols = np.divmod(idx, pairs)
                before = alive.ravel()[idx]
                after = before * factor
                alive.ravel()[idx] = after
                value.ravel()[idx] += (params.recovery_r * (before - after)
                                       * discounted_z(i + 1, 1.0 - 2.0 * rows,
                                                      cols))
            if (var := bridge_var.get(i + 1)) is not None:
                np.add(level[i + 1], dev[3], out=above[0])
                np.subtract(level[i + 1], dev[3], out=above[1])
                # a b: where it is <= 0 the factor is 0, and where a <= 0 S
                # is 0 already
                idx, factor = bridge_factors(above_last, above, var)
                survival.ravel()[idx] *= factor
                above_last, above = above, above_last
            if i == expiry_step:
                scale = alive * discounted_z(i + 1, _SIGNS, slice(None))
                # a path with gap <= 0 has alive 0: it is taken at B
                units = _unit_value(
                    params.barrier_b * np.exp(np.maximum(gap, 0.0)), T1, T,
                    params)
                put = scale * _expiry_payoff(units, option, call=False)
                call = scale * _expiry_payoff(units, option, call=True)
                held = value + scale * units  # the rebates paid so far kept
                at_expiry = [put, call, held + put, held - call]
                expiry_controls = [
                    np.expm1(log_m_det[i + 1] + _SIGNS * dev[3]),
                    survival - survival_means[1]]
            gap_last, gap = gap, gap_last
        value += alive * np.exp(-(disc_det[-1] + _SIGNS * d))
        controls = (np.expm1(log_m_det[-1] + _SIGNS * dev[3]),
                    survival - survival_means[0], *expiry_controls)
        return ([_group_means(v.reshape(2, 2, groups), size)
                 for v in (value, *at_expiry)],
                [_group_means(c.reshape(2, 2, groups), size)
                 for c in controls])

    keys = ("bond", "put", "call", "puttable", "callable")
    return dict(zip(keys, _reduce_chunks(run_chunk, n_paths, workers, seed)))

