"""Special functions and root finding shared by the pricing modules.

Univariate/bivariate standard normal CDFs (the bivariate one also in an
elementwise array form) and a bracketed root finder.  All functions here are
pure and thread-safe.

The scalar forms need only ``math``.  SciPy loads on first use: the array
CDF ``_ndtr`` (the package's only ``scipy.special`` import) binds
``scipy.special.ndtr`` in its own place on its first call, and
``find_root`` imports ``scipy.optimize`` when it runs.  Racing first calls
each bind the same ufunc, so the lazy binding stays thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NoBracket, NoConvergence

# Arguments with |x| >= SATURATION are treated as +-infinity.
SATURATION = 40.0

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 2.0 * _TWO_PI


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 absolute, saturating in the tails."""
    if x != x:
        raise DomainError("norm_cdf argument is NaN")
    if x >= SATURATION:
        return 1.0
    if x <= -SATURATION:
        return 0.0
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _ndtr(x):
    """Standard normal CDF elementwise: scipy.special.ndtr, bound on first call."""
    global _ndtr
    from scipy.special import ndtr
    _ndtr = ndtr
    return ndtr(x)


# Gauss-Legendre rules on [-1, 1] for the single-integral representation
# (6/12/20 points depending on |rho|, as in the Genz/Drezner-West scheme),
# as pairs (t, w) of the node t = (x + 1)/2 on [0, 1] and the weight on
# [-1, 1].  The integrands take a node x only as c * (x + 1)/2, and halving
# is exact, so c * t rounds as (c * (x + 1))/2 does.
def _leggauss(n: int) -> tuple[tuple[float, float], ...]:
    x, w = np.polynomial.legendre.leggauss(n)
    return tuple(zip(((x + 1.0) / 2.0).tolist(), w.tolist()))


_GL6 = _leggauss(6)
_GL12 = _leggauss(12)
_GL20 = _leggauss(20)
# The same rules for the array form, as column vectors of t and w
_GL_COLUMNS = tuple(tuple(np.array(column)[:, None] for column in zip(*rule))
                    for rule in (_GL6, _GL12, _GL20))
# Upper ends of the |rho| ranges of the array form's branches: the 6-, 12-
# and 20-node rules, the high-correlation form, and |rho| = 1.
_RHO_BOUNDS = np.array([0.3, 0.75, 0.925, 1.0])


def binorm_cdf(a: float, b: float, rho: float) -> float:
    """P[X <= a, Y <= b] for standard bivariate normals with correlation rho.

    Genz/Drezner-West single-integral quadrature with the high-correlation
    complementary branch; absolute error below 1e-12 for |rho| <= 1 - 1e-12.
    Correlations of exactly +-1 reduce to min/max logic.
    """
    # NaN fails every comparison: these two tests also reject it
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    if a != a or b != b:
        raise DomainError("binorm_cdf arguments must not be NaN")

    if a <= -SATURATION or b <= -SATURATION:
        return 0.0
    if a >= SATURATION:
        return norm_cdf(b)
    if b >= SATURATION:
        return norm_cdf(a)
    if rho >= 1.0:
        return norm_cdf(min(a, b))
    if rho <= -1.0:
        return max(0.0, norm_cdf(a) + norm_cdf(b) - 1.0)

    r = abs(rho)
    if r < 0.3:
        rule = _GL6
    elif r < 0.75:
        rule = _GL12
    else:
        rule = _GL20

    exp, sqrt = math.exp, math.sqrt
    h, k = -a, -b
    hk = h * k
    bvn = 0.0
    if r < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(rho)
        sin = math.sin
        for t, w in rule:
            sn = sin(asr * t)
            bvn += w * exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / _FOUR_PI + norm_cdf(-h) * norm_cdf(-k)
    else:
        if rho < 0.0:
            k = -k
            hk = -hk
        ass = (1.0 - rho) * (1.0 + rho)
        aa = sqrt(ass)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / ass + hk) / 2.0
        if asr > -100.0:
            bvn = aa * exp(asr) * (
                1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0
                + c * d * ass * ass / 5.0
            )
        if -hk < 100.0:
            bb = sqrt(bs)
            sp = _SQRT_2PI * norm_cdf(-bb / aa)
            bvn -= exp(-hk / 2.0) * sp * bb * (
                1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
            )
        half_aa = aa / 2.0
        for t, w in rule:
            xsq = (aa * t) ** 2
            rs = sqrt(1.0 - xsq)
            asr1 = -(bs / xsq + hk) / 2.0
            if asr1 > -100.0:
                bvn += half_aa * w * exp(asr1) * (
                    exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    - (1.0 + c * xsq * (1.0 + d * xsq))
                )
        bvn = -bvn / _TWO_PI
        if rho > 0.0:
            bvn += norm_cdf(-max(h, k))
        else:
            bvn = -bvn
            if k > h:
                bvn += norm_cdf(k) - norm_cdf(h)
    return float(min(1.0, max(0.0, bvn)))


def binorm_cdf_array(a, b, rho) -> np.ndarray:
    """binorm_cdf elementwise over a, b and rho broadcast together.

    The same scheme as binorm_cdf: each element takes its 6/12/20-node rule
    and its branch (|rho| < 0.925 or the high-correlation complement) by
    mask.  The node sums run in the scalar form's order, and the two forms
    agree to 1e-15 absolute.  The rest (a saturated argument, |rho| = 1, NaN
    or |rho| > 1) goes to binorm_cdf itself, element by element.
    """
    a, b, rho = np.broadcast_arrays(np.asarray(a, dtype=float),
                                    np.asarray(b, dtype=float),
                                    np.asarray(rho, dtype=float))
    shape = a.shape
    a, b, rho = a.ravel(), b.ravel(), rho.ravel()
    # branch 0-2: a quadrature rule, 3: high correlation, 4: the rest
    branch = _RHO_BOUNDS.searchsorted(np.abs(rho), side="right")
    branch[~(np.maximum(np.abs(a), np.abs(b)) < SATURATION)] = 4
    out = np.empty(a.size)
    for i in np.flatnonzero(np.bincount(branch)):
        sel = branch == i
        out[sel] = _BINORM_BRANCHES[i](a[sel], b[sel], rho[sel])
    return out.reshape(shape)


def _binorm_low(a: np.ndarray, b: np.ndarray, rho: np.ndarray,
                rule: int) -> np.ndarray:
    # |rho| < 0.925; nodes run along axis 0, so that numpy sums them in the
    # scalar loop's order
    t, weights = _GL_COLUMNS[rule]
    h, k = -a, -b
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(rho)
    sn = np.sin(asr * t)
    bvn = (weights * np.exp((sn * hk - hs) / (1.0 - sn * sn))).sum(axis=0)
    bvn = bvn * asr / _FOUR_PI + _ndtr(-h) * _ndtr(-k)
    return np.minimum(1.0, np.maximum(0.0, bvn))


def _binorm_high(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # 0.925 <= |rho| < 1: the 20-node rule on the complementary form
    h, k = -a, np.where(rho < 0.0, b, -b)
    hk = h * k
    ass = (1.0 - rho) * (1.0 + rho)
    aa = np.sqrt(ass)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / ass + hk) / 2.0
    bvn = np.where(asr > -100.0, aa * np.exp(asr) * (
        1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0
        + c * d * ass * ass / 5.0), 0.0)
    near = -hk < 100.0
    bb = np.sqrt(bs)
    sp = _SQRT_2PI * _ndtr(-bb / aa)
    # exp(-hk/2) is taken only where the scalar form takes it: it overflows
    # elsewhere
    bvn = bvn - np.where(near, np.exp(np.where(near, -hk / 2.0, 0.0)) * sp * bb * (
        1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), 0.0)
    t, w = _GL_COLUMNS[2]
    xsq = (aa * t) ** 2
    rs = np.sqrt(1.0 - xsq)
    asr1 = -(bs / xsq + hk) / 2.0
    terms = np.where(asr1 > -100.0, aa / 2.0 * w * np.exp(asr1) * (
        np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        - (1.0 + c * xsq * (1.0 + d * xsq))), 0.0)
    terms[0] += bvn
    bvn = -terms.sum(axis=0) / _TWO_PI
    bvn = np.where(rho > 0.0, bvn + _ndtr(-np.maximum(h, k)),
                   np.where(k > h, -bvn + (_ndtr(k) - _ndtr(h)), -bvn))
    return np.minimum(1.0, np.maximum(0.0, bvn))


_BINORM_BRANCHES = (
    lambda a, b, rho: _binorm_low(a, b, rho, 0),
    lambda a, b, rho: _binorm_low(a, b, rho, 1),
    lambda a, b, rho: _binorm_low(a, b, rho, 2),
    _binorm_high,
    lambda a, b, rho: np.array(
        list(map(binorm_cdf, a.tolist(), b.tolist(), rho.tolist()))),
)


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Root of a continuous f on a sign-changing bracket [lo, hi].

    Brent-style (bisection-safeguarded) bracketing; terminates once the
    bracket width drops below ~tol * max(1, |root|).
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    from scipy.optimize import brentq
    root, res = brentq(
        f, lo, hi,
        xtol=tol, rtol=max(tol, 9e-16),
        maxiter=200, full_output=True, disp=False,
    )
    if not res.converged:
        raise NoConvergence("bracketed solve did not converge in 200 iterations")
    return float(root)
