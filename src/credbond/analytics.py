"""Special functions and root finding shared by the pricing modules.

Univariate/bivariate standard normal CDFs and a bracketed root finder.
All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import optimize as _optimize
from scipy.special import ndtr as _ndtr

from .errors import DomainError, NoBracket, NoConvergence

# Arguments with |x| >= SATURATION are treated as +-infinity.
SATURATION = 40.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate to ~1e-16 absolute, saturating in the tails."""
    if math.isnan(x):
        raise DomainError("norm_cdf argument is NaN")
    if x >= SATURATION:
        return 1.0
    if x <= -SATURATION:
        return 0.0
    return float(_ndtr(x))


# Gauss-Legendre rules on [-1, 1] for the single-integral representation
# (6/12/20 points depending on |rho|, as in the Genz/Drezner-West scheme).
def _leggauss(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    import numpy as _np
    x, w = _np.polynomial.legendre.leggauss(n)
    return tuple(map(float, x)), tuple(map(float, w))


_GL6 = _leggauss(6)
_GL12 = _leggauss(12)
_GL20 = _leggauss(20)


def binorm_cdf(a: float, b: float, rho: float) -> float:
    """P[X <= a, Y <= b] for standard bivariate normals with correlation rho.

    Genz/Drezner-West single-integral quadrature with the high-correlation
    complementary branch; absolute error below 1e-12 for |rho| <= 1 - 1e-12.
    Correlations of exactly +-1 reduce to min/max logic.
    """
    if math.isnan(rho) or abs(rho) > 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(a) or math.isnan(b):
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

    if abs(rho) < 0.3:
        nodes, weights = _GL6
    elif abs(rho) < 0.75:
        nodes, weights = _GL12
    else:
        nodes, weights = _GL20

    h, k = -a, -b
    hk = h * k
    bvn = 0.0
    if abs(rho) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(rho)
        for x, w in zip(nodes, weights):
            sn = math.sin(asr * (x + 1.0) / 2.0)
            bvn += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        bvn = bvn * asr / (2.0 * _TWO_PI) + norm_cdf(-h) * norm_cdf(-k)
    else:
        if rho < 0.0:
            k = -k
            hk = -hk
        ass = (1.0 - rho) * (1.0 + rho)
        aa = math.sqrt(ass)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / ass + hk) / 2.0
        if asr > -100.0:
            bvn = aa * math.exp(asr) * (
                1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0
                + c * d * ass * ass / 5.0
            )
        if -hk < 100.0:
            bb = math.sqrt(bs)
            sp = _SQRT_2PI * norm_cdf(-bb / aa)
            bvn -= math.exp(-hk / 2.0) * sp * bb * (
                1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
            )
        aa = aa / 2.0
        for x, w in zip(nodes, weights):
            xsq = (aa * (x + 1.0)) ** 2
            rs = math.sqrt(1.0 - xsq)
            asr1 = -(bs / xsq + hk) / 2.0
            if asr1 > -100.0:
                bvn += aa * w * math.exp(asr1) * (
                    math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
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
    root, res = _optimize.brentq(
        f, lo, hi,
        xtol=tol, rtol=max(tol, 9e-16),
        maxiter=200, full_output=True, disp=False,
    )
    if not res.converged:
        raise NoConvergence("bracketed solve did not converge in 200 iterations")
    return float(root)
