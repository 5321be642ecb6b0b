"""Parameter recovery, the log-spectrum covariance matrix and its oracles,
FGLS, the goodness-of-fit statistic, and order selection."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.signal import czt

import mpmath

from mfbm import (
    ModelSpec,
    PathSampler,
    SampledPath,
    build_grid,
    minimize_q,
    chi2_upper_tail,
    fgls_estimate,
    fit_fixed_k,
    k_const,
    ols_estimate,
    select_k,
    sigma_matrix,
    spectrum,
)
from mfbm import test_statistic as t_k_statistic
from mfbm.errors import DegeneratePathError
from mfbm.inference import H_CLAMP, chi2_cdf
from mfbm.wavelet import BandWavelet, WaveletSpectrum

from conftest import sigma_kernel
from oracles import exact_spectrum, meyer_shifted, sigma_entry_oscillatory


class TestChi2:
    def test_zero_statistic(self):
        assert chi2_upper_tail(0.0, 3) == 1.0

    def test_exponential_median(self):
        # chi2(2) is Exp(1/2): upper tail at 2 ln 2 is exactly 1/2
        assert chi2_upper_tail(2.0 * np.log(2.0), 2) == pytest.approx(0.5, rel=1e-14)

    def test_standard_quantile(self):
        q95 = brentq(lambda x: chi2_cdf(x, 3) - 0.95, 1.0, 30.0, xtol=1e-12)
        assert chi2_upper_tail(q95, 3) == pytest.approx(0.05, rel=1e-10)
        assert q95 == pytest.approx(7.8147, abs=2e-4)

    @pytest.mark.parametrize("dof,x", [(1, 0.3), (3, 7.815), (6, 2.2), (10, 31.0)])
    def test_against_mpmath(self, dof, x):
        want = float(mpmath.gammainc(dof / 2, x / 2, mpmath.inf, regularized=True))
        assert chi2_upper_tail(x, dof) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_upper_tail(-1.0, 3)
        with pytest.raises(ValueError):
            chi2_upper_tail(1.0, 0)


@pytest.fixture(scope="module")
def grid6000(bump):
    return build_grid(6000, 0.03, 0.05, 20.0, bump)


class TestOlsEstimate:
    def test_exact_line_inversion(self, bump, grid6000):
        pts = np.array([30, 60, 90, 120, 150])
        c = 0.8
        y = -2.2 * grid6000.log_f + c
        est = ols_estimate(y, grid6000, pts, bump)
        assert est.hurst == pytest.approx(0.6, rel=1e-12)
        assert est.sigma2 == pytest.approx(np.exp(c - np.log(k_const(bump, 0.6))), rel=1e-9)
        assert not est.clamped
        assert est.flavor == "ols"

    def test_clamping(self, bump, grid6000):
        pts = np.array([30, 60, 90, 120, 150])
        y = -3.0 * grid6000.log_f  # H would be 1.0
        est = ols_estimate(y, grid6000, pts, bump)
        assert est.hurst == H_CLAMP[1]
        assert est.clamped

    def test_degenerate_design(self, bump, grid6000):
        with pytest.raises(ValueError, match="at least three"):
            ols_estimate(np.zeros(grid6000.a_n + 1), grid6000, [3, 5], bump)


class TestSigmaMatrix:
    def test_disjoint_bands_exact_zero(self, bump):
        s = sigma_matrix(0.5, np.array([1.0, 2.0]), bump, 0.1)
        assert s[0, 1] == 0.0
        assert s[1, 0] == 0.0
        assert s[0, 0] > 0 and s[1, 1] > 0

    def test_symmetric_psd(self, bump):
        g = 0.7 * 1.4 ** np.arange(5)
        s = sigma_matrix(0.35, g, bump, 0.1)
        assert np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s)[0] > 0

    def test_against_oscillatory_route(self, bump):
        # same integral through the truncated oscillatory double quadrature
        for h, glo, ghi in ((0.6, 1.0, 1.0), (0.3, 0.8, 1.1)):
            a = sigma_kernel(h, glo, ghi, bump)
            b = sigma_entry_oscillatory(h, glo, ghi, bump)
            assert a == pytest.approx(b, rel=1e-6)

    def test_against_brute_force_double_trapezoid(self, bump):
        """Dense 2-d trapezoid of the squared oscillatory transform."""
        rng = np.random.default_rng(77)
        for _ in range(3):
            h = float(rng.uniform(0.2, 0.8))
            g1 = float(rng.uniform(0.5, 1.5))
            g2 = g1 * float(rng.uniform(1.0, 1.6))
            want = _brute_force_entry(h, g1, g2, bump)
            got = sigma_kernel(h, min(g1, g2), max(g1, g2), bump)
            assert got == pytest.approx(want, rel=1e-4)

    def test_scaling_law(self, bump):
        """Scaling every frequency by c divides the matrix by c exactly."""
        g = np.array([0.9, 1.2, 1.6])
        s1 = sigma_matrix(0.55, g, bump, 0.1)
        s2 = sigma_matrix(0.55, 2.0 * g, bump, 0.1)
        nz = s1 != 0
        assert np.allclose(2.0 * s2[nz], s1[nz], rtol=1e-6)

    def test_argument_validation(self, bump):
        with pytest.raises(ValueError, match="Hurst"):
            sigma_matrix(1.2, np.array([1.0]), bump, 0.1)
        with pytest.raises(ValueError, match="ascending"):
            sigma_matrix(0.5, np.array([2.0, 1.0]), bump, 0.1)


def _brute_force_entry(h, g1, g2, w):
    """2-d trapezoid for the u-integral of the squared cosine transform of
    profile(xi/g1) profile(xi/g2) |xi|^(-2h-1), truncated where the transform
    has visibly died. On the uniform xi and u grids the cosine sums over xi
    are the real part of one scipy chirp-z transform, after the phase
    exp(-i u xi_lo) of the grid's start."""
    g_lo, g_hi = min(g1, g2), max(g1, g2)
    xi_lo, xi_hi = w.alpha * g_hi, w.beta * g_lo
    xi = np.linspace(xi_lo, xi_hi, 4001)
    wt = np.full(xi.size, xi[1] - xi[0])
    wt[0] *= 0.5
    wt[-1] *= 0.5
    core = w.profile_values(xi / g_lo) * w.profile_values(xi / g_hi) * xi ** (-2 * h - 1)
    f0 = float(core @ wt)
    u_hi = 16.0 / (xi_hi - xi_lo)
    while True:
        us = np.linspace(0.0, u_hi, int(np.ceil(u_hi * xi_hi * 6)) + 1)
        du = us[1] - us[0]
        f_vals = 2.0 * np.real(np.exp(-1j * us * xi_lo)
                               * czt(core * wt, m=us.size, w=np.exp(-1j * du * (xi[1] - xi[0]))))
        tail = np.abs(f_vals[us > 0.75 * u_hi])
        if np.max(tail) < 1e-6 * 2.0 * f0:
            break
        u_hi *= 2.0
    wu = np.full(us.size, du)
    wu[0] *= 0.5
    wu[-1] *= 0.5
    return 2.0 * float(wu @ (f_vals * f_vals))


class TestFgls:
    def test_identity_equals_ols(self, bump, grid6000):
        rng = np.random.default_rng(6)
        pts = np.array([30, 60, 90, 120, 150])
        y = rng.normal(size=grid6000.a_n + 1)
        gls = fgls_estimate(y, grid6000, pts, np.eye(5), bump)
        ols = ols_estimate(y, grid6000, pts, bump)
        assert gls.slope == pytest.approx(ols.slope, abs=1e-12)
        assert gls.intercept == pytest.approx(ols.intercept, abs=1e-12)
        assert gls.flavor == "fgls"
        assert not gls.regularized

    def test_huge_variance_downweights_point(self, bump, grid6000):
        pts = np.array([30, 60, 90, 120, 150])
        y = (-2.0 * grid6000.log_f + 0.5).copy()
        y[pts[0]] += 50.0  # wild outlier at the point with huge variance
        sigma = np.diag([1e6, 1.0, 1.0, 1.0, 1.0])
        gls = fgls_estimate(y, grid6000, pts, sigma, bump)
        ols_rest = np.polyfit(grid6000.log_f[pts[1:]], y[pts[1:]], 1)
        assert gls.slope == pytest.approx(ols_rest[0], abs=5e-3)

    def test_exact_line_any_sigma(self, bump, grid6000):
        pts = np.array([30, 60, 90, 120, 150])
        y = -1.8 * grid6000.log_f + 0.2
        sigma = sigma_matrix(0.4, grid6000.f[pts], bump, 0.1)
        gls = fgls_estimate(y, grid6000, pts, sigma, bump)
        assert gls.slope == pytest.approx(-1.8, rel=1e-10)
        assert gls.intercept == pytest.approx(0.2, rel=1e-8)

    def test_ill_conditioned_gets_ridge(self, bump, grid6000):
        pts = np.array([30, 60, 90, 120, 150])
        base = np.ones((5, 5)) + 1e-14 * np.diag(np.arange(5.0))
        y = np.zeros(grid6000.a_n + 1)
        gls = fgls_estimate(y, grid6000, pts, base, bump)
        assert gls.regularized

    def test_sigma_scale_invariance(self, bump, grid6000):
        """Scaling the weight matrix leaves the line unchanged and scales the
        weighted residual form by the reciprocal."""
        rng = np.random.default_rng(13)
        pts = np.array([30, 60, 90, 120, 150])
        y = rng.normal(size=grid6000.a_n + 1)
        sigma = sigma_matrix(0.45, grid6000.f[pts], bump, 0.1)
        c = 3.0
        g1 = fgls_estimate(y, grid6000, pts, sigma, bump)
        g2 = fgls_estimate(y, grid6000, pts, c * sigma, bump)
        assert g2.slope == pytest.approx(g1.slope, rel=1e-12)
        assert g2.intercept == pytest.approx(g1.intercept, rel=1e-12)
        resid = y[pts] - (g1.slope * grid6000.log_f[pts] + g1.intercept)
        t1, _ = t_k_statistic([resid], [sigma], 6000, 0.03)
        t2, _ = t_k_statistic([resid], [c * sigma], 6000, 0.03)
        assert t2 == pytest.approx(t1 / c, rel=1e-12)


class TestTestStatistic:
    def test_dof_formula(self):
        r = [np.zeros(5), np.zeros(5)]
        s = [np.eye(5), np.eye(5)]
        t, dof = t_k_statistic(r, s, 6000, 0.03)
        assert t == 0.0
        assert dof == 6  # (K+1)(m-2) with K=1, m=5
        t, dof = t_k_statistic([np.zeros(5)], [np.eye(5)], 6000, 0.03)
        assert dof == 3

    def test_weighted_sum(self):
        r = [np.array([1.0, 0.0, 2.0])]
        s = [np.diag([1.0, 1.0, 4.0])]
        t, dof = t_k_statistic(r, s, 100, 0.5)
        assert t == pytest.approx(50.0 * (1.0 + 1.0), rel=1e-12)
        assert dof == 1

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="three"):
            t_k_statistic([np.zeros(2)], [np.eye(2)], 100, 0.5)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            t_k_statistic([np.ones(3)], [np.diag([1.0, -1.0, 1.0])], 100, 0.5)


# (model, f_min, f_max) at n = 6000, delta = 0.03
EXACT_CELLS = {
    "m1": (ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10.0), np.sqrt(5.0)), omega=(5.0,)), 0.8, 16.0),
    "three-regime": (ModelSpec(hurst=(0.3, 0.8, 0.4), sigma=(1.0, 2.0, 1.5), omega=(2.0, 6.0)),
                     0.8, 16.0),
    "fig3": (ModelSpec(hurst=(0.9, 0.2, 0.5), sigma=(5.0, 5.0, 5.0), omega=(0.05, 0.5)), 0.02, 2.0),
}


class TestExactSpectrum:
    @pytest.mark.parametrize("make", [BandWavelet.bump, meyer_shifted], ids=["bump", "meyer-shifted"])
    @pytest.mark.parametrize("cell", list(EXACT_CELLS))
    def test_fit_at_true_k_recovers_the_model(self, make, cell):
        """On the spectrum that equals its expectation, the fit at the true K
        recovers every H and sigma^2 to 1e-9 relative, and T vanishes."""
        model, f_min, f_max = EXACT_CELLS[cell]
        w = make()
        grid = build_grid(6000, 0.03, f_min, f_max, w)
        fit = fit_fixed_k(exact_spectrum(model, w, grid, 0.1), w, model.k)
        for segments in (fit.segments, fit.segments_ols):
            assert [s.hurst for s in segments] == pytest.approx(model.hurst, rel=1e-9)
            assert [s.sigma2 for s in segments] == pytest.approx(np.square(model.sigma), rel=1e-9)
        assert fit.t_stat < 1e-20


class TestSelection:
    def test_fbm_path_accepts_k0(self, bump, fbm06_paths):
        fit = select_k(fbm06_paths[1], bump, f_min=0.05, f_max=20.0)
        assert fit.k == 0
        assert fit.dof == 3
        assert fit.segments[0].flavor == "fgls"
        assert 0.4 < fit.segments[0].hurst < 0.8

    def test_zero_path_degenerate(self, bump):
        path = SampledPath(delta=0.03, values=np.zeros(2000))
        with pytest.raises(DegeneratePathError, match="spectrum"):
            select_k(path, bump, f_min=0.5, f_max=16.0)

    def test_result_serialization(self, bump, fbm06_paths):
        fit = select_k(fbm06_paths[2], bump, f_min=0.05, f_max=20.0)
        d = fit.to_dict()
        assert set(d) >= {"K", "omegas", "segments", "T_stat", "dof", "p_value",
                          "accepted"}
        assert d["segments"][0]["flavor"] == "fgls"
        assert d["r"] == 0.1
        # the fitted spectrum rides along but stays out of the report and repr
        assert fit.spectrum.y.size == fit.spectrum.grid.f.size
        assert "spectrum" not in d and "spectrum=" not in repr(fit)

    def test_rejected_fits_ride_along(self, bump):
        """On a two-regime path K = 0 is rejected; select_k keeps that fit next
        to the one it returns, out of the report and repr."""
        model = ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10.0), np.sqrt(5.0)), omega=(5.0,))
        path = PathSampler(model, 3000, 0.03).draw(2)
        fit = select_k(path, bump, f_min=0.8, f_max=16.0, k_max=1)
        assert fit.k == 1
        assert [f.k for f in fit.rejected] == list(range(fit.k))
        assert not any(f.accepted for f in fit.rejected)
        assert all(f.spectrum is fit.spectrum for f in fit.rejected)
        assert "rejected" not in fit.to_dict() and "rejected=" not in repr(fit)

    def test_lambda_covariances_reported(self, bump, fbm06_paths):
        """Both line-estimator covariances ship with the fit, and the
        generalized-least-squares one is at least as tight on the slope."""
        fit = select_k(fbm06_paths[4], bump, f_min=0.05, f_max=20.0)
        g1 = fit.segments_ols[0].lambda_cov
        g2 = fit.segments[0].lambda_cov
        assert g1.shape == g2.shape == (2, 2)
        assert np.allclose(g1, g1.T) and np.allclose(g2, g2.T)
        assert g2[0, 0] <= g1[0, 0] + 1e-12
        assert "lambda_cov" in fit.to_dict()["segments"][0]

    def test_segments_leave_room_for_refine_points(self, bump, grid6000):
        """Three exact lines, the first on only 4 regression indices: the
        unconstrained K = 2 optimum keeps that short segment, which has no room
        for m = 5 refine points; fit_fixed_k segments with m + 1 indices per
        segment instead of raising."""
        g = grid6000
        i = np.arange(g.a_n + 1)
        t_short, t_mid = g.tau_n + 4, 118
        y = np.where(i <= 4, -1.4 * g.log_f + 0.3,
                     np.where(i <= t_mid - g.tau_n, -2.2 * g.log_f + 0.9,
                              -2.4 * g.log_f + 1.1))
        y[(i > 4) & (i <= t_short)] = 7.7
        y[(i > t_mid - g.tau_n) & (i <= t_mid)] = 7.7
        spec = WaveletSpectrum(grid=g, y=y, r=0.1, counts=np.ones(g.a_n + 1, dtype=int))
        assert minimize_q(y, g, 2).t[1] == t_short
        fit = fit_fixed_k(spec, bump, 2, m=5)
        assert fit.k == 2
        t, tau = fit.segmentation.t, fit.segmentation.tau_n
        for j in range(3):
            assert np.arange(t[j] + 1, t[j + 1] - tau + 1).size >= 6

    def test_cross_segment_separation_asserted(self, bump, fbm06_paths):
        fit = fit_fixed_k(
            spectrum(fbm06_paths[3], bump, build_grid(6000, 0.03, 0.05, 20.0, bump)),
            bump, 1,
        )
        f_prev = fit.segments[0].freqs[-1]
        f_next = fit.segments[1].freqs[0]
        assert f_next / f_prev >= bump.ratio
