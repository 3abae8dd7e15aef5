"""Independent numerical verification engines.

A Crank-Nicolson solver for the reduced one-dimensional barrier PDE
  u_t + 0.5 * sigma_x^2(t; T) * x^2 * u_xx = 0   (x > B)
in ln x, stepped in the variance clock v = int sigma_x^2 du, where its
coefficients are constant and the sine basis diagonalises every step: no
step is marched, and each slice read is one inverse sine transform of the
payoff's coefficients; and two Monte-Carlo pricers: a forward-measure
engine for the driftless ratio x (exact lognormal stepping with
Brownian-bridge barrier correction) and a risk-neutral two-factor engine
simulating (r, V) jointly.  Each Monte-Carlo
path scores its exact Brownian-bridge survival given its nodes, from one
bridge factor, and both engines draw only normals.  The two-factor engine
draws its fine scheme's law exactly at coarse nodes and refines a block,
drawing its fine normals given the coarse draw, only where a crossing can
happen; each chunk draws its normals from two streams of its own, on its
own thread.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import dst

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
# from the payoff back, cn_solve takes _LADDER_STEPS steps of dv / 2^j for
# j = _LADDER_LEVELS (twice as many) down to 1, then steps of dv: over the
# last 24 dv of variance a step is at most 1/24 of the variance left after it
_LADDER_LEVELS = 6
_LADDER_STEPS = 24
# cn_solve's steps take node i at ln B + i h: a node off that place by this
# fraction of h moves a read by as small a fraction of one step's change
_GRID_UNIFORMITY = 1e-6
# the smallest rho^(nx - 2) cn_solve takes: the sine basis of the symmetric
# form is 1 / rho^(nx - 2) from the grid's, so a slice's far nodes carry
# about 1e-15 / rho^(nx - 2) of roundoff
_SYMMETRIC_FLOOR = 1e-8
# mc_spot's survival control takes its bridge factor over this many steps,
# and its coarse march draws blocks of this many
_SURVIVAL_STRIDE = 10
# c with 1 - exp(-c) == 1.0: mc_spot evaluates a bridge factor only where
# 2 a+ b <= c var, since beyond it the factor rounds to 1
_SURVIVAL_CUTOFF = 40.0
# a control enters the regression only where at least about this many
# samples carry its spread (see _reduce_chunks)
_CONTROL_MIN_SAMPLES = 10.0
# the bias that mc_spot's coarse march may take on a survival probability,
# in all, by skipping the fine factors of blocks (see _refine_cutoff)
_SKIP_BIAS = 1e-10
# a block's singular values below this share of its largest are taken as 0
_RANK_TOL = 1e-10


@dataclass
class GridConfig:
    """Resolution of the finite-difference solve."""

    nx: int = 800
    nt: int = 800


@dataclass
class GridSolution:
    """Backward-solved surface u(x, t) on a uniform grid in ln x, kept in
    the sine basis of its step matrix.

    slice(k) is the slice with variances[k] of variance left to t1, falling
    from the window's whole variance at k = 0 to 0 at k = n, n being
    cn_solve's number of steps; each is built when it is read, and no slice
    is stored but the payoff (there is no values array).  payoff is the
    terminal slice, shape (nx + 1,) for a payoff of one row and (m, nx + 1)
    for one of m rows, 0 at the barrier node.  On the interior, slice k is
    payoff + D^-1 DST(coefficients (G_k - 1)): D = diag(scale),
    coefficients the orthonormal DST-I of D (payoff - steady state), and G_k
    mode by mode the product of the factors of the steps from the payoff
    back to slice k, exp(steps[k] @ log_factors) in magnitude and negative
    where steps[k] @ flips is odd.  Each row of steps counts, per kind of
    step (a Crank-Nicolson step at each ladder level, then the pair of
    Rannacher half steps), how many lie between its slice and the payoff;
    each row of log_factors is one kind's log |factor| per mode, and of
    flips 1 where that factor is negative.  steps depends on the grid's
    shape alone: every solve of one (nx, nt) shares the one read-only array.
    t1, bond_T and params are cn_solve's: interpolate maps a time t to
    cum_variance over [t, t1].
    """

    log_x_nodes: np.ndarray
    variances: np.ndarray
    payoff: np.ndarray
    coefficients: np.ndarray
    scale: np.ndarray
    steps: np.ndarray
    log_factors: np.ndarray
    flips: np.ndarray
    t1: float
    bond_T: float
    params: model.ModelParams

    def _gains_less_one(self, k) -> np.ndarray:
        """G - 1 per mode at slice k, or at each slice of a range as rows."""
        counts = self.steps[k]
        e = np.expm1(counts @ self.log_factors)
        # G < 0 at an odd count of negative factors; the counts are integers
        return np.where((counts @ self.flips).astype(int) & 1, -2.0 - e, e)

    def _surface(self, gains_less_one: np.ndarray) -> np.ndarray:
        """The slice whose modes are the payoff's times G, from G - 1."""
        out = self.payoff.copy()
        out[..., 1:-1] += dst(self.coefficients * gains_less_one, type=1,
                              norm="ortho") / self.scale
        return out

    def slice(self, k: int) -> np.ndarray:
        """Slice k, shaped as payoff: at k = n the payoff itself."""
        return self._surface(self._gains_less_one(k))

    def interpolate(self, x, t: float):
        """u at (x, t): cubic in ln x, linear in variance between slices.

        The cubic is local: the one through the four nodes around ln x, the
        two on each side of it, or the first or last four at the grid's
        ends.  A t before the window reads its first slice and one after t1
        the slice at t1.  Returns shape x.shape for a payoff of one row and
        (m,) + x.shape for one of m rows.  Raises DomainError for a
        non-finite x or t, ResolutionError for an x beyond the grid's far
        node, where the cubic would extrapolate, and BelowBarrier for an x
        below the first node whose ln x lies below it too.  So x = B and the
        first node pass whichever way exp(ln B) rounds, and both are taken
        at the node, where u is 0.
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

        # p, the slice index of t, fractional between slices; np.interp
        # takes a variance beyond the window's to slice 0
        left = (model.cum_variance(t, self.t1, self.bond_T, self.params)
                if t < self.t1 else 0.0)
        n = len(self.variances) - 1
        p = float(np.interp(left, self.variances[::-1],
                            np.arange(n, -1, -1.0)))
        k = min(int(p), n - 1)
        w = p - k
        # a slice is linear in G and the cubic in its data: blend the two
        # slices' G and build one slice
        gains = self._gains_less_one(np.s_[k:k + 2])
        blended = self._surface((1.0 - w) * gains[0] + w * gains[1])
        # y at s steps of h from the barrier node, read from the cubic
        # through nodes i - 1 to i + 2, i = floor(s) kept off both ends
        nx = len(self.log_x_nodes) - 1
        s = (y - log_b) * (nx / (self.log_x_nodes[-1] - log_b))
        i = np.clip(np.floor(s), 1, nx - 2)
        t = (s - i)[..., None]
        weights = np.concatenate([
            -t * (t - 1.0) * (t - 2.0) / 6.0,
            (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
            -(t + 1.0) * t * (t - 2.0) / 2.0,
            (t + 1.0) * t * (t - 1.0) / 6.0], axis=-1)
        stencil = i.astype(int)[..., None] + np.arange(-1, 3)
        return (blended[..., stencil] * weights).sum(axis=-1)


@functools.lru_cache(maxsize=4)
def _grid_tables(nx: int, nt: int) -> tuple[np.ndarray, ...]:
    """cn_solve's read-only tables of the grid's shape: GridSolution's steps,
    each slice's variance left to t1 in units of dv, the modes' sin^2(k pi /
    2 nx), the levels' 0.5^(j + 1), and the exponents of scale and steady."""
    # the step from slice k + 1 back to slice k is dv / 2^exps[k]
    q = min(_LADDER_STEPS, nt)
    exps = np.repeat(np.arange(_LADDER_LEVELS + 1),
                     [nt - q] + [q] * (_LADDER_LEVELS - 1) + [2 * q])
    n = len(exps)
    # kind exps[k] for the Crank-Nicolson step from k + 1 back to k, k < n - 1,
    # the last kind for the half steps off the payoff; summed from each
    # slice to the payoff
    taken = np.zeros((n + 1, _LADDER_LEVELS + 2))
    taken[np.arange(n - 1), exps[:-1]] = 1.0
    taken[n - 1, -1] = 1.0
    tables = (np.cumsum(taken[::-1], axis=0)[::-1],
              np.append(np.cumsum(0.5 ** exps[::-1])[::-1], 0.0),
              np.sin(np.arange(1, nx) * (0.5 * math.pi / nx)) ** 2,
              0.5 ** np.arange(1, _LADDER_LEVELS + 2),
              np.arange(nx - 1), np.arange(nx - 1, 0, -1))
    for table in tables:
        table.flags.writeable = False
    return tables


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
    payoffs as the rows of an (m, nx + 1) array.  Each of the m rows is to
    the bit what its own solve would give; GridSolution says how the
    surface and interpolate are shaped.
    The scheme runs in the variance clock v = cum_variance, in which the PDE
    u_v + (u_yy - u_y) / 2 = 0, y = ln x, has constant coefficients, in
    steps of dv = cum_variance(t0, t1, bond_T) / grid.nt that halve toward
    the payoff (see _LADDER_LEVELS), grid.nt + q _LADDER_LEVELS in all,
    q = min(_LADDER_STEPS, grid.nt): a read where sigma_x^2 falls to 0 at
    the payoff, the last tenth of the time holding a few thousandths of the
    variance, lies many steps from it.  Rannacher smoothing is always on:
    the first step after the terminal condition is replaced by two
    fully-implicit half steps.
    A window with no variance raises ResolutionError; a variance too small
    for grid.nx ln x steps equal to within _GRID_UNIFORMITY of a step,
    DegenerateVariance; a far node beyond the float range, DomainError.
    No step is marched.  Every step, of either kind, leaves the discrete
    steady state u_far (rho^(2 (nx - i)) - rho^(2 nx)) / (1 - rho^(2 nx))
    fixed, and D = diag(rho^i), rho = sqrt(upper / lower), makes the step
    matrix of size s a symmetric tridiagonal Toeplitz one, which the DST-I
    diagonalises: mode k's eigenvalue is mu_k = -(lower + upper)
    + 2 sqrt(lower upper) cos(k pi / nx), a Crank-Nicolson step of size 2 s
    multiplies it by (1 + s mu_k) / (1 - s mu_k) and the two half steps of
    size s by (1 - s mu_k)^-2.  So the solve takes the sine coefficients of
    the payoff less the steady state once, and GridSolution builds a slice
    from them with one inverse DST.  An ln x step h >= 2, where upper <= 0
    and the scheme is not monotone, a rho^(nx - 2) below _SYMMETRIC_FLOOR,
    or dv / 2 > 1e4 h^2, too large a step for the half steps to damp,
    raises ResolutionError.  A non-finite payoff raises DomainError, as
    does one so large that a slice could overflow.  The step counts, and
    all else of the grid's shape alone, are shared read-only (_grid_tables).
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
    h = float(y[1] - y[0])
    if not (h > 0.0 and np.ptp(np.diff(y)) <= _GRID_UNIFORMITY * h):
        # the step h = 8 sqrt(I) / nx is within reach of the nodes' roundoff
        raise DegenerateVariance(
            f"variance over [{t0}, {bond_T}] is too small for {grid.nx} "
            "uniform ln x steps")
    steps, fractions, sin_sq, levels, powers, nodes = _grid_tables(
        grid.nx, grid.nt)
    # D's diagonal rho^i, rho^2 = upper / lower = (2 - h) / (2 + h); at
    # h >= 2 it is 0 from i = 1 on
    rho2 = max((2.0 - h) / (2.0 + h), 0.0)
    scale = math.sqrt(rho2) ** powers
    if not scale[-1] >= _SYMMETRIC_FLOOR:
        raise ResolutionError(
            f"ln x step {h} too large at nx = {grid.nx}: the scheme is not "
            f"monotone, or its symmetric form's rho^{grid.nx - 2} = "
            f"{scale[-1]:.3g} is below {_SYMMETRIC_FLOOR}")
    window_var = model.cum_variance(t0, t1, bond_T, params)
    if window_var == 0.0:
        raise ResolutionError(f"no variance over [{t0}, {t1}] to march in")
    dv = window_var / grid.nt
    if 0.5 * dv > 1e4 * h * h:
        raise ResolutionError(
            "time step too large relative to spatial step for damped smoothing")

    payoff = np.array(terminal_payoff(np.exp(y)), dtype=float)
    if not np.all(np.isfinite(payoff)):
        raise DomainError("terminal payoff is not finite on the grid")
    payoff[..., 0] = 0.0  # knocked out at the barrier
    far = payoff[..., -1:]
    # the interior of the steady state u_far (rho^(2 (nx - i)) - rho^(2 nx))
    # / (1 - rho^(2 nx)), 0 at the barrier and u_far at the far node
    steady = far * ((rho2 ** nodes - rho2 ** grid.nx)
                    / (1.0 - rho2 ** grid.nx))
    coefficients = dst((payoff[..., 1:-1] - steady) * scale, type=1,
                       norm="ortho")
    # |slice - payoff| <= 2 sum |coefficients| / rho^(nx - 2), as |G| <= 1
    # and no entry of the orthonormal DST-I exceeds 1
    with np.errstate(over="ignore"):
        reach = (np.max(np.abs(payoff), axis=-1)
                 + 2.0 * np.sum(np.abs(coefficients), axis=-1) / scale[-1])
    if not np.all(np.isfinite(reach)):
        raise DomainError("the FD surface could overflow: payoff too large")

    # -mu_k = (sqrt(lower) - sqrt(upper))^2 + 4 sqrt(lower upper)
    # sin^2(k pi / 2 nx), two terms that do not cancel, and lower - upper is
    # 1 / (2 h)
    lower = 0.5 * (1.0 / (h * h) + 1.0 / (2.0 * h))
    upper = 0.5 * (1.0 / (h * h) - 1.0 / (2.0 * h))
    decay = (0.5 / h / (math.sqrt(lower) + math.sqrt(upper))) ** 2 \
        + 4.0 * math.sqrt(lower * upper) * sin_sq
    # a = -s mu_k at level j, s = dv / 2^(j + 1): a Crank-Nicolson factor
    # (1 - a) / (1 + a) has log |.| = -2 atanh(min(a, 1 / a)) and is
    # negative where a > 1; the half steps' (1 + a)^-2 has log -2 log1p(a)
    a = (dv * levels)[:, None] * decay
    log_factors, flips = np.zeros((2, len(levels) + 1, grid.nx - 1))
    with np.errstate(divide="ignore", over="ignore"):
        log_cn = -2.0 * np.arctanh(np.minimum(a, 1.0 / a))
    # a factor of exactly 0 (a = 1) as the smallest normal float, so that a
    # level with no steps still counts 0 * log
    np.maximum(log_cn, -model._LOG_HUGE, out=log_factors[:-1])
    np.multiply(-2.0, np.log1p(a[-1]), out=log_factors[-1])
    np.greater(a, 1.0, out=flips[:-1])
    return GridSolution(log_x_nodes=y, variances=dv * fractions,
                        payoff=payoff, coefficients=coefficients,
                        scale=scale, steps=steps,
                        log_factors=log_factors, flips=flips, t1=t1,
                        bond_T=bond_T, params=params)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean with its standard error; reproducible given seed."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


# row 0 of a chunk's paths steps on +z, row 1 on -z: antithetic pairs
_SIGNS = np.array([[1.0], [-1.0]])


def _chunk_rng(seed: int, chunk_index: int,
               *stream: int) -> np.random.Generator:
    seq = np.random.SeedSequence((seed % 2 ** 64, chunk_index, *stream))
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


def _bridge_survival(prod: np.ndarray, var) -> np.ndarray:
    """The probability that a Brownian bridge of variance var stays above 0.

    prod is g g', the bridge's values at its two ends: 1 - exp(-2 g g' / var)
    where both are > 0, and 0 where g' <= 0, prod being clamped at 0 (a path
    with g <= 0 is at 0 from an earlier factor).  var is a float or an array
    that broadcasts against prod.  Where var is 0, or so small that 2 / var
    overflows, the factor is its limit: 1 where prod > 0, else 0.
    """
    # a product past the float range is -inf, where the factor is 1
    with np.errstate(divide="ignore", over="ignore"):
        scale = -2.0 / np.asarray(var, dtype=float)
        flat = np.isinf(scale)
        if not flat.any():
            return -np.expm1(np.maximum(prod, 0.0) * scale)
        return np.where(flat, np.where(prod > 0.0, 1.0, 0.0), -np.expm1(
            np.maximum(prod, 0.0) * np.where(flat, 0.0, scale)))


def _reduce_chunks(run_chunk, n_paths: int, workers: int,
                   seed: int) -> list[McEstimate]:
    """An McEstimate of each sample array that run_chunk returns.

    run_chunk(chunk_index, size) returns (samples, controls), two lists of
    arrays of one length; each control has mean exactly 0 under the engine's
    own recursion.  The chunks' arrays join in chunk order, so all n samples
    are held at once: 9 x 50,000 floats, about 3.6 MB, for mc_spot with an
    option at 200,000 paths.  Each array is shifted by its first sample and
    centred, so that equal samples give an se of exactly 0.  Each estimate
    is one least-squares fit of its samples on the k controls that enter,
    each scaled to unit norm: with beta the slopes, the estimate is
    mean_j - beta . mean_C and its standard error
    sqrt(sum(residual^2) / (n - 1 - k) / n).  A control that repeats
    another's information adds nothing.  A control c enters where its
    centred spread sum(c^2) is positive and finite and
    sum(c^2)^2 / sum(c^4) >= _CONTROL_MIN_SAMPLES, the fourth powers taken
    from the raw c, about its exact mean 0: that ratio counts the samples
    that carry c's spread, about n for a spread-out control and about m
    where m samples hold it all, or where the rest sit off 0 by a shared
    offset.  A control held by a handful of samples would fit the
    estimates' residual on them and report an se that the spread across
    seeds does not bear out.  The count is at most n, so a control enters
    only where n >= 10 > 1 + k for the at most 4 controls an engine
    returns.  With none entering, the plain mean and n - 1 apply.
    The samples are the means of a group of dependent paths, an antithetic
    pair in mc_forward and two in mc_spot (see _group_means), so n counts
    len(array) samples per chunk, not its paths.
    """
    def values(job):
        samples, controls = run_chunk(*job)
        return len(samples), np.array([*samples, *controls])

    jobs = list(enumerate(min(_CHUNK, n_paths - start)
                          for start in range(0, n_paths, _CHUNK)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(values, jobs))
    else:
        results = [values(job) for job in jobs]
    # fixed chunk size and joining in chunk order keep the result independent
    # of the worker count and bit-reproducible for a given seed
    n_samples = results[0][0]
    raw = np.concatenate([chunk for _, chunk in results], axis=1)
    n = raw.shape[1]
    shifted = raw - raw[:, :1]
    mean = shifted.mean(axis=1)
    centred = shifted - mean[:, None]
    mean += raw[:, 0]
    residual, controls = centred[:n_samples], centred[n_samples:]
    spread = (controls * controls).sum(axis=1)
    square = raw[n_samples:] ** 2
    fourth = (square * square).sum(axis=1)
    # a control's fourth powers can underflow to 0 where its spread is
    # positive: it then has no count, and no use
    enter = [c for c in range(len(controls))
             if 0.0 < spread[c] < math.inf and fourth[c] > 0.0
             and spread[c] * (spread[c] / fourth[c]) >= _CONTROL_MIN_SAMPLES]
    est = mean[:n_samples]
    if enter:
        scale = np.sqrt(spread[enter])
        basis = controls[enter] / scale[:, None]
        beta = np.linalg.lstsq(basis.T, residual.T, rcond=None)[0]
        residual = residual - beta.T @ basis
        est = est - (beta / scale[:, None]).T @ mean[n_samples:][enter]
    var = ((residual * residual).sum(axis=1) / (n - 1 - len(enter)) if n > 1
           else np.full(n_samples, math.inf))
    return [McEstimate(mean=float(m), std_error=float(np.sqrt(v / n)),
                       n_paths=n_paths, seed=seed)
            for m, v in zip(est, var)]


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


@dataclass(frozen=True)
class _Block:
    """One block of mc_spot's coarse march, over fine steps stop - steps to
    stop - 1.

    phi takes the deviations (g, y, d, m) of a pair at the block's first
    node to their part at its last.  normal_map, M, 8 x 2 steps, takes the
    group's fine normals z (z1, z2 of each step in turn, pair A's; pair B
    steps on each turned by 90 degrees) to the increments the two pairs
    add, A's rows then B's: M = U S V^T over the r directions that it
    spans.  The block draws r normals w per group and adds delta = factor w,
    factor = U S, so that factor factor^T = M M^T.  Given delta, z has the
    law of z' + P (delta - M z'), P = M^+ and z' iid standard normal; as
    P delta = V w and P M = V V^T, that is V w + (I - V V^T) z', and no
    inverse is formed.  g_maps holds four signed maps, for the paths +A, +B,
    -A and -B in turn: g_maps[k] takes (z', w, the pair's deviations at the
    first node) to path k's g less gap_det, the deterministic gap, at the
    block's steps - 1 interior nodes, through that z.  fine_vars is each
    fine step's bridge variance.  half_cut is half the
    cutoff c times the block's bridge variance (see _coarse_blocks).
    """

    stop: int
    steps: int
    phi: np.ndarray
    normal_map: np.ndarray
    factor: np.ndarray
    g_maps: np.ndarray
    gap_det: np.ndarray
    fine_vars: np.ndarray
    half_cut: float


def _turned(normal_map: np.ndarray) -> np.ndarray:
    """normal_map's columns for pair B: each step's (z1, z2) as (-z2, z1)."""
    out = np.empty_like(normal_map)
    out[..., 0::2] = normal_map[..., 1::2]
    out[..., 1::2] = -normal_map[..., 0::2]
    return out


def _refine_cutoff(n_blocks: int) -> float:
    """The c at which mc_spot's march takes a block's fine factors.

    A path skips them where 2 g+ g' > c V at the block's ends, V the
    block's bridge variance; for g a Brownian motion in the variance clock,
    as the fine factors take it, their product has expectation
    1 - exp(-2 g+ g' / V) given the ends, so a skip takes off at most e^-c
    of the path's survival, and at most n_blocks e^-c = _SKIP_BIAS over the
    march.  No c above _SURVIVAL_CUTOFF is taken, where every factor rounds
    to 1.
    """
    return min(_SURVIVAL_CUTOFF, math.log(n_blocks / _SKIP_BIAS))


def _coarse_blocks(kernels: np.ndarray, ends: list[int], step_vars: np.ndarray,
                   gap_det: np.ndarray) -> list[_Block]:
    """mc_spot's blocks, one ending at each of the fine nodes ends.

    kernels[i] takes the deviations at fine node i and step i's normals to
    the deviations at node i + 1.  The blocks are composed side by side,
    each padded to the longest by steps that keep the deviations and draw
    nothing.  Each normal map is scaled to a largest entry of 1 and
    factored by its singular values; those below _RANK_TOL of the largest
    are taken as 0.  So a block spans 4 directions over equal steps (each
    row takes its z1, and its z2, from a constant and a geometric series),
    6 at most, 2 at s_r = 0 (the y and d rows are 0, and g's and m's are
    one) and none at s_V = s_r = 0.  A block's bridge variance V is the
    larger of its fine steps' and the variance of its g increment.
    """
    starts = [0, *ends[:-1]]
    n = len(ends)
    width = max(e - a for a, e in zip(starts, ends))
    step = np.zeros((n, width, 4, 6))
    step[..., :4] = np.eye(4)
    for b, (a, e) in enumerate(zip(starts, ends)):
        step[b, :e - a] = kernels[a:e]
    # composed step by step: g_state and g_normals take the deviations at
    # the first node and pair A's normals to g after each step
    phi = np.tile(np.eye(4), (n, 1, 1))
    normal_map = np.zeros((n, 4, 2 * width))
    g_state, g_normals = np.empty((n, width, 4)), np.empty((n, width, 2 * width))
    for k in range(width):
        phi = step[:, k, :, :4] @ phi
        normal_map = step[:, k, :, :4] @ normal_map
        normal_map[:, :, 2 * k:2 * k + 2] = step[:, k, :, 4:]
        g_state[:, k], g_normals[:, k] = phi[:, 0], normal_map[:, 0]
    joint = np.concatenate([normal_map, _turned(normal_map)], axis=1)
    size = np.abs(joint).max(axis=(1, 2))
    size[size == 0.0] = 1.0
    u, s, vt = np.linalg.svd(joint / size[:, None, None], full_matrices=False)
    keep = s > _RANK_TOL * s[:, :1]
    factor = u * (s * size[:, None])[:, None, :]
    # V, its columns past the rank 0 (the singular values fall, so a block
    # keeps its first rank); padded steps have rows of 0 in it
    rank = keep.sum(axis=1).tolist()
    basis = vt.transpose(0, 2, 1) * keep[:, None, :]
    # g = H z = H (I - V V^T) z' + H V w, H pair A's g_normals (p = 0) or
    # pair B's, plus the deviations' part
    h = np.stack([g_normals, _turned(g_normals)], axis=1)
    spanned = h @ basis[:, None]
    rest = h - spanned @ basis[:, None].transpose(0, 1, 3, 2)
    var = np.maximum(np.add.reduceat(step_vars, starts),
                     (normal_map[:, 0] ** 2).sum(axis=1))
    half_cut = 0.5 * _refine_cutoff(n) * var
    blocks = []
    for b, (a, e) in enumerate(zip(starts, ends)):
        m, w, r = e - a, 2 * (e - a), rank[b]
        # columns for (z', w, deviations at the first node), a row per
        # interior node
        maps = np.empty((2, m - 1, w + r + 4))
        maps[..., :w] = rest[b, :, :m - 1, :w]
        maps[..., w:-4] = spanned[b, :, :m - 1, :r]
        maps[..., -4:] = g_state[b, :m - 1]
        blocks.append(_Block(
            stop=e, steps=m, phi=phi[b], normal_map=joint[b, :, :w],
            factor=factor[b, :, :r], g_maps=np.concatenate([maps, -maps]),
            gap_det=gap_det[a + 1:e], fine_vars=step_vars[a:e],
            half_cut=float(half_cut[b])))
    return blocks


def _fine_survival(block: _Block, fine: np.random.Generator,
                   normals: np.ndarray, start: np.ndarray,
                   gap_first: np.ndarray, gap_last: np.ndarray,
                   near: np.ndarray) -> np.ndarray:
    """The product of block's fine bridge factors on each path near marks.

    normals, (r, groups), are the w the groups drew for the block, start,
    (4, 2 groups), the pairs' deviations at its first node, and gap_first,
    gap_last and near (a bool) are shaped (2, 2 groups), the paths' gaps at
    the block's two ends.  The groups with a path marked draw their z' (see
    _Block) from the generator fine, 2 steps rows over those groups in
    order.  Returns the products in the order of near's flat indices.
    """
    steps, (rank, groups) = block.steps, normals.shape
    paths = near.ravel().nonzero()[0]
    column = paths % (2 * groups)
    group = column % groups
    picked = np.zeros(groups, dtype=bool)
    picked[group] = True
    z_prime = fine.standard_normal(
        2 * steps * np.count_nonzero(picked)).reshape(2 * steps, -1)
    # each path's (z', w, deviations at the first node), a column a path
    operand = np.empty((2 * steps + rank + 4, len(paths)))
    np.take(z_prime, (np.cumsum(picked) - 1)[group], axis=1,
            out=operand[:2 * steps], mode="clip")
    np.take(normals, group, axis=1, out=operand[2 * steps:-4], mode="clip")
    np.take(start, column, axis=1, out=operand[-4:], mode="clip")
    # each path's gap at the block's fine nodes, a column a path; the paths
    # run by sign, then pair, as g_maps does
    nodes = np.empty((steps + 1, len(paths)))
    nodes[0] = gap_first.ravel()[paths]
    nodes[-1] = gap_last.ravel()[paths]
    bounds = [0, *np.searchsorted(paths, groups * np.arange(1, 4)),
              len(paths)]
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(block.g_maps[k], operand[:, lo:hi], out=nodes[1:-1, lo:hi])
    nodes[1:-1] += block.gap_det[:, None]
    factors = _bridge_survival(nodes[:-1] * nodes[1:], block.fine_vars[:, None])
    return factors.prod(axis=0)


def _node_tables(grid_times: np.ndarray, T: float,
                 params: model.ModelParams) -> tuple[np.ndarray, ...]:
    """abar and bbar at mc_spot's nodes and each step's cum_variance, to the
    bit the model's: its terms in its order, from each node's _h1, _h2 and
    bbar, with its DomainError on a non-finite sum and its clamp at 0."""
    theta = params.theta
    h1, h2, bb = np.array([(model._h1(theta, tau), model._h2(theta, tau),
                            -math.expm1(-theta * tau) / theta)
                           for tau in (T - grid_times).tolist()]).T
    sq_r = model._squared(params.s_r)
    # the model's float arithmetic overflows to inf without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ab = -theta * params.mu * h1 + 0.5 * sq_r * h2
        var = (sq_r * (h2[:-1] - h2[1:])
               + model._squared(params.s_V) * np.diff(grid_times)
               + 2.0 * params.rho * params.s_r * params.s_V
               * (h1[:-1] - h1[1:]))
    if not np.all(np.isfinite(var)):
        k = int(np.argmin(np.isfinite(var)))
        raise DomainError(f"variance over [{grid_times[k]}, "
                          f"{grid_times[k + 1]}] is {var[k]}, not finite")
    return ab, bb, np.where(var > 0.0, var, 0.0)


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
    alive, from 1, and only survival is simulated: the recovery R*Z(r, tau)
    paid at the touch tau is worth R*Z(r, t; T) today whatever tau is, as
    Z e^{-int r du} is a martingale, so the recovery leg is that constant,
    from the Vasicek Z, as the barrier is.  The "bond" path scores the
    paper's [R + (1 - R) W] Z as R*Z(r, t; T) + (1 - R) alive_T e^{-int r du},
    the integral the trapezoid of the realized short rate.  Given an
    option, T1 is a step node where a survivor holds the straight bond's
    closed-form value u in units of Z; with scale = Z(r, T1) e^{-int r du}
    to T1, the put and call pay scale alive times _expiry_payoff of u, and
    the held bond R*Z(r, t; T) + scale alive (u - R), the recovery on the
    mass that survives T1 taken back out of the constant; the puttable is
    it plus the put, the callable it less the call.  Returns {"bond": ...},
    with an option also "put", "call", "puttable", "callable".
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
    path adds and its partner subtracts, stepped by a 4x6 matrix per step.
    The march draws that fine scheme's law exactly, but only at the coarse
    nodes where S updates (see _Block and _coarse_blocks): per block of up
    to _SURVIVAL_STRIDE steps it composes the steps' matrices once per
    call, and draws the group's 8-dimensional increment, rotation and
    antithetic pairs kept, from one normal per direction the increment
    spans: 4 over equal steps where the steps' 2 per group would be 20.
    The fine steps' bridge factors are 1 but near a crossing: a block takes
    them only for the groups with a live path whose coarse bridge has
    2 g+ g' <= c V, V the block's bridge variance, with g+ = max(g, 0) and
    g' the gaps at its ends.  There the group draws its fine normals given
    its coarse increment (Brownian-bridge construction; Glasserman 2004,
    section 3.1), and each such path takes the fine factors over the
    block's nodes, those beyond _SURVIVAL_CUTOFF v_step being 1 to the bit.
    A path skipped loses at most e^-c of its survival per block for g a
    Brownian motion in the variance clock, and c is set so that n_blocks
    e^-c = _SKIP_BIAS (see _refine_cutoff): 27.6 at 101 blocks.  A chunk
    draws only normals, its coarse ones from its stream and the
    refinements' from a second, in the order of the march, on the chunk's
    own thread: every estimate is the same to the bit whatever the worker
    or CPU count.
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
    ab, bb, step_vars = _node_tables(grid_times, T, params)
    # y = r - mu, ln V, the trapezoid of int r du and ln M are linear in the
    # normals: each is a deterministic path, stepped here once per call on
    # zero normals, plus a pair deviation that row 0 adds and row 1
    # subtracts.  kernels[i] takes the deviations of (g, y, d, m) at node i
    # and the step's normals (z1, z2) to the deviations at node i + 1, with g
    # the gap ln V - ln Z - ln B, ln Z = abar - bbar r, d the trapezoid and
    # m = ln M, the control's discounted firm value (see the docstring).
    # As arrays: the paths accumulate in order, as a loop rounds, and exp and
    # expm1 are math's, which numpy's can miss by an ulp
    h = np.array(step_dts)
    decay = np.array([math.exp(-theta * u) for u in step_dts])
    r_std = s_r * np.sqrt(np.array(
        [-math.expm1(-2.0 * theta * u) for u in step_dts]) / (2.0 * theta))
    v_std = s_v * np.sqrt(h)
    y_det = np.multiply.accumulate(np.append(state.r - mu, decay))
    lnv_det = np.add.accumulate(np.append(
        math.log(state.v), (mu + y_det[:-1] - 0.5 * s_v * s_v) * h))
    disc_det = np.add.accumulate(np.append(
        0.0, (mu + 0.5 * (y_det[:-1] + y_det[1:])) * h))
    zero, one = np.zeros_like(h), np.ones_like(h)
    kernels = np.stack([
        one, h - bb[:-1] + bb[1:] * decay, zero, zero,
        rho * v_std + bb[1:] * r_std, rho_c * v_std,
        zero, decay, zero, zero, r_std, zero,
        zero, 0.5 * h * (1.0 + decay), one, zero, 0.5 * h * r_std, zero,
        zero, zero, zero, one, rho * v_std, rho_c * v_std], axis=-1).reshape(
            -1, 4, 6)
    log_m_det = -0.5 * s_v * s_v * (grid_times - state.t)  # X's drifts
    log_z_det = ab - bb * (mu + y_det)
    gap_det = lnv_det - log_z_det - math.log(params.barrier_b)
    recovery = params.recovery_r
    # the recovery leg, worth R Z(r, t; T) whenever the touch comes
    recovery_leg = recovery * model.zcb_price(state.r, state.t, T, params)
    # X + g0 on the deterministic path; the coarse nodes, where S updates
    # and each block of the march ends, and the bridge variance of X from
    # each coarse node to the next
    level = log_m_det + gap_det[0]
    ends = {*range(_SURVIVAL_STRIDE, len(grid_times), _SURVIVAL_STRIDE),
            len(grid_times) - 1}
    if option is not None:
        ends.add(expiry_step + 1)
    ends = sorted(ends)
    blocks = _coarse_blocks(kernels, ends, step_vars, gap_det)
    bridge_vars = s_v * s_v * np.diff(grid_times[[0, *ends]])
    # E[S] at T and, given an option, at T1
    horizons = [T] if option is None else [T, T1]
    survival_means = [_survival_mean(gap_det[0], s_v * s_v * (u - state.t))
                      for u in horizons]
    expiry_node = None if option is None else expiry_step + 1

    def run_chunk(chunk_index: int,
                  size: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        groups = (size + 3) // 4
        pairs = 2 * groups
        shape = (2, pairs)
        # the deviations of (g, y, d, m) at this coarse node and the last;
        # column q is pair A of group q and column groups + q its pair B
        dev, start = np.zeros((4, pairs)), np.empty((4, pairs))
        # the gap of every path at the last coarse node and at this one
        gap_last, gap = np.full(shape, max(gap_det[0], 0.0)), np.empty(shape)
        prod = np.empty(shape)
        near = np.empty(shape, dtype=bool)
        alive = np.ones(shape)  # the probability of no touch so far
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

        coarse = _chunk_rng(seed, chunk_index)
        fine = _chunk_rng(seed, chunk_index, 1)
        for block, var in zip(blocks, bridge_vars):
            normals = coarse.standard_normal(
                block.factor.shape[1] * groups).reshape(-1, groups)
            dev, start = start, dev
            np.matmul(block.phi, start, out=dev)
            dev.reshape(4, 2, groups)[:] += (block.factor @ normals).reshape(
                2, 4, groups).transpose(1, 0, 2)
            node = block.stop
            np.add(gap_det[node], dev[0], out=gap[0])
            np.subtract(gap_det[node], dev[0], out=gap[1])
            # the groups with a live path whose coarse bridge may cross:
            # only there can a fine factor be below 1 by more than the
            # bias bound allows (see _refine_cutoff)
            np.multiply(gap_last, gap, out=prod)
            np.less_equal(prod, block.half_cut, out=near)
            near &= alive > 0.0
            if near.any():
                alive.ravel()[near.ravel()] *= _fine_survival(
                    block, fine, normals, start, gap_last, gap, near)
            np.add(level[node], dev[3], out=above[0])
            np.subtract(level[node], dev[3], out=above[1])
            # a b: where it is <= 0 the factor is 0, and where a <= 0 S
            # is 0 already
            idx, factor = bridge_factors(above_last, above, var)
            survival.ravel()[idx] *= factor
            above_last, above = above, above_last
            if node == expiry_node:
                y, d = dev[1], dev[2]
                # alive Z(r, T1) e^{-int r du}
                scale = alive * np.exp(log_z_det[node] - disc_det[node]
                                       - _SIGNS * (bb[node] * y + d))
                # a path with gap <= 0 has alive 0: it is taken at B
                units = _unit_value(
                    params.barrier_b * np.exp(np.maximum(gap, 0.0)), T1, T,
                    params)
                put = scale * _expiry_payoff(units, option, call=False)
                call = scale * _expiry_payoff(units, option, call=True)
                held = recovery_leg + scale * (units - recovery)
                at_expiry = [put, call, held + put, held - call]
                expiry_controls = [
                    np.expm1(log_m_det[node] + _SIGNS * dev[3]),
                    survival - survival_means[1]]
            gap_last, gap = gap, gap_last
        value = recovery_leg + (1.0 - recovery) * alive * np.exp(
            -(disc_det[-1] + _SIGNS * dev[2]))
        controls = (np.expm1(log_m_det[-1] + _SIGNS * dev[3]),
                    survival - survival_means[0], *expiry_controls)
        return ([_group_means(v.reshape(2, 2, groups), size)
                 for v in (value, *at_expiry)],
                [_group_means(c.reshape(2, 2, groups), size)
                 for c in controls])

    keys = ("bond", "put", "call", "puttable", "callable")
    return dict(zip(keys, _reduce_chunks(run_chunk, n_paths, workers, seed)))
