"""Spectral weight, variogram, covariance structure, and their oracles."""

import numpy as np
import pytest
from scipy.integrate import quad

from mfbm import (
    ModelSpec,
    SampledPath,
    covariance,
    covariance_matrix,
    spectral_weight,
    variogram,
    variogram_asymptotes,
    variogram_constant,
)
from mfbm.errors import AnalysisError
from mfbm.model import _SERIES_CUT, _cum_panels

from conftest import random_model
from oracles import cum_panels_loop, empirical_variogram

FIG3 = ModelSpec(hurst=(0.9, 0.2, 0.5), sigma=(5.0, 5.0, 5.0), omega=(0.05, 0.5))


def oracle_constant(h):
    """Split quadrature: series-free [0,1] piece plus a Fourier-weighted tail.

    Good to ~2e-9 relative; the endpoint singularity v^(1-2h) limits the
    extrapolation for h near 1.
    """
    head = quad(lambda v: (1.0 - np.cos(v)) / v ** (2 * h + 1), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-12, limit=300, full_output=1)[0]
    tail_plain = 1.0 / (2.0 * h)
    tail_cos = quad(lambda v: v ** (-2.0 * h - 1.0), 1.0, np.inf, weight="cos", wvar=1.0)[0]
    return head + tail_plain - tail_cos


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            ModelSpec(hurst=(0.2, 0.4, 0.6), sigma=(1, 1, 1), omega=(2.0, 1.0))
        with pytest.raises(ValueError, match="positive"):
            ModelSpec(hurst=(0.2, 0.4), sigma=(1, 1), omega=(-1.0,))
        with pytest.raises(ValueError, match="Hurst"):
            ModelSpec(hurst=(1.2,), sigma=(1,))
        with pytest.raises(ValueError, match="scale"):
            ModelSpec(hurst=(0.5,), sigma=(0.0,))
        with pytest.raises(ValueError, match="identical"):
            ModelSpec(hurst=(0.5, 0.5), sigma=(1.0, 1.0), omega=(1.0,))
        with pytest.raises(ValueError, match="pairs"):
            ModelSpec(hurst=(0.5,), sigma=(1.0, 2.0), omega=(1.0,))

    def test_band_check(self):
        m = ModelSpec(hurst=(0.2, 0.7), sigma=(1.0, 1.0), omega=(5.0,))
        m.check_analysis_band(5.0, 10.0, 0.8, 16.0)
        with pytest.raises(AnalysisError, match="outside"):
            m.check_analysis_band(5.0, 10.0, 6.0, 16.0)
        close = ModelSpec(hurst=(0.2, 0.7), sigma=(1.0, 1.0), omega=(1.5,))
        with pytest.raises(AnalysisError, match="band ratio"):
            close.check_analysis_band(5.0, 10.0, 0.8, 16.0)


class TestSpectralWeight:
    def test_single_regime_power_law(self):
        m = ModelSpec.fbm(0.5, 1.0)
        assert spectral_weight(m, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_figure_model_band_value(self):
        assert spectral_weight(FIG3, 0.1) == pytest.approx(25.0 * 0.1**-1.4, rel=1e-12)

    def test_evenness(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.01, 10.0, size=20)
        assert np.allclose(spectral_weight(FIG3, -xs), spectral_weight(FIG3, xs), rtol=0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            spectral_weight(FIG3, 0.0)

    def test_band_boundaries_use_left_regime_value(self):
        # at |xi| = omega_1 the weight switches to the next regime
        w_at = spectral_weight(FIG3, 0.05)
        assert w_at == pytest.approx(25.0 * 0.05 ** -(2 * 0.2 + 1), rel=1e-12)


class TestVariogramConstant:
    @pytest.mark.parametrize("h", [0.1, 0.25, 0.5, 0.6, 0.75, 0.9])
    def test_matches_quadrature_oracle(self, h):
        assert variogram_constant(h) == pytest.approx(oracle_constant(h), rel=1e-8)

    def test_half_is_pi_over_two(self):
        assert variogram_constant(0.5) == pytest.approx(np.pi / 2, rel=1e-14)


class TestVariogram:
    def test_zero_lag(self):
        assert variogram(FIG3, 0.0) == 0.0

    def test_brownian_value(self):
        m = ModelSpec.fbm(0.5, 1.0)
        assert variogram(m, 1.0) == pytest.approx(2.0 * np.pi, rel=1e-10)

    def test_single_regime_scaling(self):
        for h in (0.2, 0.5, 0.8):
            m = ModelSpec.fbm(h, 1.3)
            assert variogram(m, 2.0) / variogram(m, 1.0) == pytest.approx(2.0 ** (2 * h), rel=1e-10)

    def test_single_regime_log_affinity(self):
        m = ModelSpec.fbm(0.3, 0.7)
        deltas = np.geomspace(0.3, 3.0, 11)
        logv = np.log(variogram(m, deltas))
        pred = 2 * 0.3 * np.log(deltas) + np.log(4 * 0.7**2 * variogram_constant(0.3))
        assert np.max(np.abs(logv - pred)) <= 1e-9

    def test_matches_direct_spectral_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = random_model(rng)
            d = float(rng.uniform(0.1, 10.0))
            direct = 0.0
            edges = m.band_edges
            for j in range(m.k + 1):
                hi = edges[j + 1] if np.isfinite(edges[j + 1]) else 400.0 / d
                direct += 4.0 * quad(
                    lambda x: (1.0 - np.cos(d * x)) * spectral_weight(m, x),
                    edges[j], hi, limit=2000, epsabs=1e-13, epsrel=1e-11, full_output=1,
                )[0]
                if not np.isfinite(edges[j + 1]):
                    h = m.hurst[j]
                    s2 = m.sigma[j] ** 2
                    tail = hi ** (-2 * h) / (2 * h) - quad(
                        lambda x: x ** (-2 * h - 1.0), hi, np.inf, weight="cos", wvar=d
                    )[0]
                    direct += 4.0 * s2 * tail
            assert variogram(m, d) == pytest.approx(direct, rel=1e-7)

    def test_monotone_on_ladder(self):
        rng = np.random.default_rng(9)
        ladder = np.geomspace(1e-3, 1e3, 61)
        for _ in range(6):
            m = random_model(rng)
            v = variogram(m, ladder)
            assert np.all(v > 0)
            assert np.all(np.diff(v) >= -1e-12 * v[:-1])

    def test_asymptote_lines(self):
        low, high = variogram_asymptotes(FIG3)
        assert (low.slope, high.slope) == (pytest.approx(1.8), pytest.approx(1.0))
        assert low.regime == "low-frequency"
        assert high.regime == "high-frequency"
        m0 = ModelSpec.fbm(0.4, 2.0)
        low0, high0 = variogram_asymptotes(m0)
        assert low0.slope == high0.slope == pytest.approx(0.8)
        assert low0.intercept == pytest.approx(high0.intercept)

    def test_low_frequency_asymptote_rate(self):
        """log V approaches the low-frequency line at rate delta^(-2 H_0)."""
        m = ModelSpec(hurst=(0.2, 0.7), sigma=(1.0, 1.0), omega=(1.0,))
        low, _ = variogram_asymptotes(m)
        deltas = np.array([10.0, 100.0, 1000.0])
        err = np.abs(np.log(variogram(m, deltas)) - (low.slope * np.log(deltas) + low.intercept))
        rate = err * deltas ** (2 * 0.2)
        assert err[2] < err[1] < err[0]
        assert rate[2] == pytest.approx(rate[0], rel=0.8)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            variogram(FIG3, -1.0)


class TestCumPanels:
    def test_matches_loop_oracle(self):
        """Bit-identical to the per-lag np.linspace loop on the arguments that
        variogram hands _cum_panels (above the series cut, at every finite
        change frequency of every regime) for the M1 grid lags and for all
        pairwise lags of random times (every lag twice, as covariance_matrix
        passes them); and on arguments that triple from one to the next,
        where a gap wider than its start is cut into many panels and
        prev + n_sub * step can miss x by an ulp (hence the pinned last edge)."""
        m1 = ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10.0), np.sqrt(5.0)), omega=(5.0,))
        models = [(m1, 0.03 * np.arange(8194))]
        rng = np.random.default_rng(8)
        for i in range(6):
            t = np.sort(rng.uniform(0.0, 40.0, size=30))
            models.append((random_model(rng, k=1 + i % 2), np.abs(t[:, None] - t[None, :]).ravel()))
        cases = []
        for model, lags in models:
            for j, h in enumerate(model.hurst):
                for edge in model.band_edges[j : j + 2]:
                    if 0.0 < edge < np.inf:
                        xs = np.sort(lags * edge)
                        cases.append((h, xs[xs > _SERIES_CUT]))
        assert len(cases) == 2 + 3 * 2 + 3 * 4
        rng = np.random.default_rng(9)
        for _ in range(12):
            xs = np.repeat(rng.uniform(1.0, 3.0, size=8) * 3.0 ** np.arange(8), 2)
            cases.append((rng.uniform(0.05, 0.95), xs))
        for h, xs in cases:
            assert np.array_equal(_cum_panels(h, xs), cum_panels_loop(h, xs))


class TestCovariance:
    def test_variance_case(self):
        assert covariance(FIG3, 2.5, 2.5) == pytest.approx(variogram(FIG3, 2.5), rel=1e-12)

    def test_zero_time(self):
        assert covariance(FIG3, 0.0, 3.0) == 0.0

    def test_brownian_structure(self):
        m = ModelSpec.fbm(0.5, 1.4)
        s, t = 0.7, 2.2
        assert covariance(m, s, t) == pytest.approx(2 * np.pi * 1.4**2 * min(s, t), rel=1e-10)

    def test_matrix_symmetric_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            m = random_model(rng)
            times = np.sort(rng.uniform(0.01, 20.0, size=int(rng.integers(8, 65))))
            cov = covariance_matrix(m, times)
            assert np.allclose(cov, cov.T, rtol=0, atol=1e-12 * np.max(np.abs(cov)))
            eigs = np.linalg.eigvalsh(cov)
            assert eigs[0] >= -1e-8 * np.trace(cov)


class TestEmpiricalVariogram:
    def test_constant_path(self):
        path = SampledPath(delta=0.1, values=np.full(50, 3.3))
        for lag in (1, 5, 49):
            assert empirical_variogram(path, lag) == 0.0

    def test_hand_computation(self):
        path = SampledPath(delta=1.0, values=np.array([0.0, 1.0, 0.0]))
        assert empirical_variogram(path, 1) == pytest.approx(1.0)

    def test_lag_bounds(self):
        path = SampledPath(delta=1.0, values=np.arange(5.0))
        with pytest.raises(ValueError, match="lag"):
            empirical_variogram(path, 0)
        with pytest.raises(ValueError, match="lag"):
            empirical_variogram(path, 5)


class TestSampledPath:
    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            SampledPath(delta=0.1, values=np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            SampledPath(delta=0.1, values=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="positive"):
            SampledPath(delta=0.0, values=np.zeros(3))

    def test_times(self):
        p = SampledPath(delta=0.5, values=np.zeros(4))
        assert np.allclose(p.times, [0.5, 1.0, 1.5, 2.0])
        assert p.duration == pytest.approx(2.0)
