"""Standard normal and bivariate normal CDFs, and a bracketed root finder.

Each CDF also has an elementwise array form.  All functions here are pure
and thread-safe.

Both normal CDFs, scalar and array, are 0.5 erfc(-x/sqrt 2) from
``math.erfc``, so the CDFs need only ``math`` and numpy.  ``find_root``
imports ``scipy.optimize`` when it runs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, NoBracket, NoConvergence

# binorm_cdf takes |x| >= SATURATION as +-infinity.  norm_cdf needs no such
# test: 0.5 erfc(-x/sqrt 2) is exactly 1 for x >= 40 and 0 for x <= -40.
SATURATION = 40.0

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi
_FOUR_PI = 2.0 * _TWO_PI


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 absolute, saturating in the tails."""
    if x != x:
        raise DomainError("norm_cdf argument is NaN")
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _ndtr(x):
    """norm_cdf elementwise, without its guards: NaN gives NaN.

    A 0-d input gives a float.  Mapping math.erfc over a list is faster
    than np.frompyfunc.
    """
    y = -np.asarray(x, dtype=float) * _SQRT_HALF
    erfc = np.fromiter(map(math.erfc, y.ravel().tolist()), float, y.size)
    return erfc.reshape(y.shape) * 0.5


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
# Upper ends of the |rho| ranges of the 6-, 12- and 20-node rules; from the
# last, binorm_cdf takes its high-correlation branch (with the 20-node rule).
# Both forms choose by these; the scalar one compares with the plain floats.
_RHO_GL6, _RHO_GL12, _RHO_HIGH = _RHO_BOUNDS = (0.3, 0.75, 0.925)


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
    if r < _RHO_GL6:
        rule = _GL6
    elif r < _RHO_GL12:
        rule = _GL12
    else:
        rule = _GL20

    exp, sqrt = math.exp, math.sqrt
    h, k = -a, -b
    hk = h * k
    bvn = 0.0
    if r < _RHO_HIGH:
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

    An element with |rho| < 0.925 and neither argument saturated takes its
    6/12/20-node rule by mask, with the node sums in the scalar form's
    order; the two forms agree to 1e-15 absolute there.  The rest (0.925 <=
    |rho| < 1, |rho| = 1, a saturated argument, NaN or |rho| > 1) goes to
    binorm_cdf itself, element by element.
    """
    a, b, rho = np.broadcast_arrays(np.asarray(a, dtype=float),
                                    np.asarray(b, dtype=float),
                                    np.asarray(rho, dtype=float))
    shape = a.shape
    a, b, rho = a.ravel(), b.ravel(), rho.ravel()
    # branch 0-2: a quadrature rule, 3: binorm_cdf one element at a time
    branch = np.searchsorted(_RHO_BOUNDS, np.abs(rho), side="right")
    branch[~(np.maximum(np.abs(a), np.abs(b)) < SATURATION)] = 3
    out = np.empty(a.size)
    for i in np.flatnonzero(np.bincount(branch)):
        sel = branch == i
        if i < 3:
            out[sel] = _binorm_low(a[sel], b[sel], rho[sel], i)
        else:
            out[sel] = list(map(binorm_cdf, a[sel].tolist(), b[sel].tolist(),
                                rho[sel].tolist()))
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
