"""Unit tests for the shared special functions and solvers."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from credbond.analytics import (
    SATURATION,
    binorm_cdf,
    binorm_cdf_array,
    find_root,
    norm_cdf,
)
from credbond.errors import DomainError, NoBracket
from quadrature import integrate


class TestNormCdf:
    def test_known_values(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
        assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert norm_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-15)

    def test_saturation(self):
        assert norm_cdf(SATURATION) == 1.0
        assert norm_cdf(-SATURATION) == 0.0
        assert norm_cdf(1e308) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            norm_cdf(float("nan"))

    @given(st.floats(-8.0, 8.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-14)


class TestScalarCdfsMatchScipy:
    """The math.erfc CDF and the stdlib quantile against scipy.special."""

    def test_norm_cdf_matches_ndtr(self):
        rng = np.random.default_rng(7103)
        xs = np.concatenate([
            rng.uniform(-SATURATION, SATURATION, 100_000),
            rng.uniform(-8.0, 8.0, 100_000),
            [math.nextafter(SATURATION, 0.0), math.nextafter(-SATURATION, 0.0),
             0.0, -0.0, 1e-300, -1e-300]])
        got = np.array([norm_cdf(x) for x in xs.tolist()])
        # 2.2e-16: one ulp at 1
        assert np.max(np.abs(got - ndtr(xs))) <= np.finfo(float).eps

    def test_quantile_matches_ndtri(self):
        rng = np.random.default_rng(7104)
        tail = np.exp(rng.uniform(math.log(1e-12), math.log(0.5), 50_000))
        ps = np.concatenate([rng.uniform(1e-12, 1.0 - 1e-12, 50_000),
                             tail, 1.0 - tail, [0.5, 1e-12, 1.0 - 1e-12]])
        ps = ps[(ps >= 1e-12) & (ps <= 1.0 - 1e-12)]
        inv_cdf = NormalDist().inv_cdf
        got = np.array([inv_cdf(p) for p in ps.tolist()])
        ref = ndtri(ps)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


class TestBinormCdf:
    def test_zero_correlation_factorizes(self):
        for a, b in [(0.3, -1.2), (2.0, 2.0), (-0.5, 0.5)]:
            assert binorm_cdf(a, b, 0.0) == pytest.approx(
                norm_cdf(a) * norm_cdf(b), abs=1e-14)

    def test_center_arcsin_identity(self):
        for rho in (-0.99, -0.5, 0.0, 0.3, 0.925, 0.99):
            expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(expect, abs=1e-13)

    def test_marginalization(self):
        for rho in (-0.8, 0.0, 0.6, 0.95):
            for a in (-1.5, 0.2, 2.5):
                assert binorm_cdf(a, SATURATION, rho) == pytest.approx(
                    norm_cdf(a), abs=1e-12)
                assert binorm_cdf(SATURATION, a, rho) == pytest.approx(
                    norm_cdf(a), abs=1e-12)

    def test_perfect_correlation(self):
        assert binorm_cdf(0.5, 1.5, 1.0) == pytest.approx(norm_cdf(0.5), abs=0)
        assert binorm_cdf(0.5, -0.5, -1.0) == pytest.approx(
            max(0.0, norm_cdf(0.5) + norm_cdf(-0.5) - 1.0), abs=1e-15)
        assert binorm_cdf(-1.0, 0.5, -1.0) == 0.0

    def test_symmetry_in_arguments(self):
        for rho in (-0.9, 0.4, 0.95):
            assert binorm_cdf(0.7, -0.4, rho) == pytest.approx(
                binorm_cdf(-0.4, 0.7, rho), abs=1e-15)

    @given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-0.999, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_complement(self, a, b, rho):
        p = binorm_cdf(a, b, rho)
        assert 0.0 <= p <= min(norm_cdf(a), norm_cdf(b)) + 1e-14
        # inclusion-exclusion against the survival quadrant
        q = binorm_cdf(-a, -b, rho)
        assert p - q == pytest.approx(norm_cdf(a) + norm_cdf(b) - 1.0, abs=5e-13)

    def test_invalid_rho(self):
        with pytest.raises(DomainError):
            binorm_cdf(0.0, 0.0, 1.5)


# each branch edge of |rho| from both sides, the |rho| -> 1 limit and
# |rho| = 1, with interior values of every branch
ARRAY_RHOS = sorted(
    {s * (edge + d) for edge in (0.3, 0.75, 0.925) for d in (-1e-12, 0.0, 1e-12)
     for s in (1.0, -1.0)}
    | {s * v for v in (0.0, 0.1, 0.5, 0.85, 0.95, 0.999, 1.0 - 1e-9, 1.0)
       for s in (1.0, -1.0)})


class TestBinormCdfArray:
    """The array form against scalar binorm_cdf, element by element."""

    RHOS = ARRAY_RHOS

    @staticmethod
    def _arguments():
        rng = np.random.default_rng(20040)
        edges = [SATURATION, -SATURATION, SATURATION - 1e-9,
                 -SATURATION + 1e-9, 39.0, -39.0, 0.0, math.inf, -math.inf]
        return np.concatenate([rng.uniform(-7.0, 7.0, 16), edges])

    def test_matches_scalar_on_grid(self):
        args = self._arguments()
        a, b, rho = (g.ravel() for g in np.meshgrid(args, args, self.RHOS,
                                                    indexing="ij"))
        # one call holds every branch: a mixed-branch array
        got = binorm_cdf_array(a, b, rho)
        ref = np.array([binorm_cdf(*abr) for abr in zip(a, b, rho)])
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_single_branch_arrays_and_broadcasting(self):
        args = self._arguments()
        for rho in self.RHOS:
            got = binorm_cdf_array(args[:, None], args[None, :], rho)
            assert got.shape == (len(args), len(args))
            ref = np.array([[binorm_cdf(x, y, rho) for y in args]
                            for x in args])
            assert np.max(np.abs(got - ref)) <= 1e-15, rho
        assert binorm_cdf_array(0.3, -0.2, 0.5).shape == ()

    def test_edge_elements_are_the_scalar_form(self):
        # a saturated argument or |rho| = 1: binorm_cdf's own value, exactly
        args = self._arguments()
        a, b, rho = (g.ravel() for g in np.meshgrid(args, args, self.RHOS,
                                                    indexing="ij"))
        got = binorm_cdf_array(a, b, rho)
        edge = ((np.abs(rho) == 1.0)
                | (np.maximum(np.abs(a), np.abs(b)) >= SATURATION))
        assert got[edge].tolist() == list(map(
            binorm_cdf, a[edge].tolist(), b[edge].tolist(), rho[edge].tolist()))

    @pytest.mark.parametrize("a,b,rho", [
        (math.nan, 0.0, 0.5), (0.0, math.nan, 0.5), (0.0, 0.0, math.nan),
        (0.0, 0.0, 1.5), (0.0, 0.0, -1.0 - 1e-12),
    ])
    def test_invalid_rejected(self, a, b, rho):
        with pytest.raises(DomainError):
            binorm_cdf(a, b, rho)
        # alone and among valid elements
        with pytest.raises(DomainError):
            binorm_cdf_array(a, b, rho)
        with pytest.raises(DomainError):
            binorm_cdf_array([0.1, a, 0.2], [0.3, b, -0.1], [0.5, rho, 0.95])


class TestFindRoot:
    def test_simple_root(self):
        r = find_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-14)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_endpoint_roots(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0
        assert find_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, -1.0, 1.0, tol=0.0)


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: 3.0 * x * x, 0.0, 2.0) == pytest.approx(
            8.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(lambda x: 1.0, 1.0, 1.0) == 0.0

    def test_gaussian_tail(self):
        val = integrate(lambda x: math.exp(-x * x / 2.0), -8.0, 8.0)
        assert val == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-10)

    def test_reversed_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, 1.0, 0.0)
